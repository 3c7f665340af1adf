(* Shared snapshot codec for the bundled applications. Marshal output is not
   stable across OCaml versions (CI builds 4.14 and 5.2 against the same
   on-wire bytes), so snapshots use the same varint/length-prefixed-string
   primitives as the message codec, with hashtable bindings sorted by key so
   equal states produce byte-identical snapshots regardless of insertion
   order. *)

module Codec = Cp_proto.Codec

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let to_string f =
  let buf = Buffer.create 256 in
  f buf;
  Buffer.contents buf

(* Restore raises on malformed input, like [Marshal.from_string] did; a bad
   snapshot is a bug (or corruption), not a recoverable condition. *)
let of_string ~app read s =
  match read s ~pos:0 with
  | Ok (v, pos) when pos = String.length s -> v
  | Ok _ -> invalid_arg (app ^ ": snapshot has trailing bytes")
  | Error e -> invalid_arg (app ^ ": malformed snapshot (" ^ e ^ ")")

let write_list buf write xs =
  Codec.write_varint buf (List.length xs);
  List.iter (write buf) xs

let read_list read s ~pos =
  let* count, pos = Codec.read_varint s ~pos in
  if count < 0 || count > String.length s then Error "list: bad count"
  else begin
    let rec go i pos acc =
      if i = count then Ok (List.rev acc, pos)
      else
        let* x, pos = read s ~pos in
        go (i + 1) pos (x :: acc)
    in
    go 0 pos []
  end

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let read_pair_ss s ~pos =
  let* k, pos = Codec.read_string s ~pos in
  let* v, pos = Codec.read_string s ~pos in
  Ok ((k, v), pos)

let read_pair_si s ~pos =
  let* k, pos = Codec.read_string s ~pos in
  let* v, pos = Codec.read_varint s ~pos in
  Ok ((k, v), pos)

type 'v value = { size : 'v -> int; put : Codec.cursor -> 'v -> unit }

let string_value = { size = Codec.string_size; put = Codec.put_string }

let int_value = { size = Codec.varint_size; put = Codec.put_varint }

(* [varint count | (string key, value)*], keys ascending: the bytes
   [write_list] of the sorted bindings would give, sized first and written
   once into bytes of exactly that size (no growing buffer, no copy out). *)
let table_snapshot value tbl =
  let pairs = sorted_bindings tbl in
  let count = List.length pairs in
  let size =
    List.fold_left
      (fun acc (k, v) -> acc + Codec.string_size k + value.size v)
      (Codec.varint_size count) pairs
  in
  let bytes = Bytes.create size in
  let c = Codec.cursor bytes ~pos:0 in
  Codec.put_varint c count;
  List.iter
    (fun (k, v) ->
      Codec.put_string c k;
      value.put c v)
    pairs;
  Bytes.unsafe_to_string bytes

let table_restore ~app read ~size str =
  let pairs = of_string ~app (read_list read) str in
  let tbl = Hashtbl.create (max size (List.length pairs)) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) pairs;
  tbl
