(* Two-list functional queue so snapshots serialize structurally. *)
type state = { mutable front : string list; mutable back : string list }

let name = "fifo"

let init () = { front = []; back = [] }

let apply (s : state) op =
  match String.split_on_char ' ' op with
  | [ "PUSH"; v ] ->
    s.back <- v :: s.back;
    "OK"
  | [ "POP" ] -> (
    (match s.front with
    | [] ->
      s.front <- List.rev s.back;
      s.back <- []
    | _ :: _ -> ());
    match s.front with
    | [] -> "EMPTY"
    | v :: rest ->
      s.front <- rest;
      v)
  | [ "LEN" ] -> string_of_int (List.length s.front + List.length s.back)
  | _ -> "ERR"

(* POP mutates (it dequeues), so only LEN rides the lease fast path. *)
let read_only op = op = "LEN"

let snapshot (s : state) =
  Snap.to_string (fun buf ->
      Snap.write_list buf Cp_proto.Codec.write_string s.front;
      Snap.write_list buf Cp_proto.Codec.write_string s.back)

let restore str : state =
  let read s ~pos =
    let open Snap in
    let* front, pos = read_list Cp_proto.Codec.read_string s ~pos in
    let* back, pos = read_list Cp_proto.Codec.read_string s ~pos in
    Ok ({ front; back }, pos)
  in
  Snap.of_string ~app:name read str

let push v = "PUSH " ^ v

let pop = "POP"

let len = "LEN"
