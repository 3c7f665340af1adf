type state = (string, int) Hashtbl.t

let name = "bank"

let init () : state = Hashtbl.create 16

let apply (s : state) op =
  let bal a = Hashtbl.find_opt s a in
  match String.split_on_char ' ' op with
  | [ "OPEN"; a; n ] -> (
    match (bal a, int_of_string_opt n) with
    | None, Some n when n >= 0 ->
      Hashtbl.replace s a n;
      "OK"
    | _ -> "FAIL")
  | [ "DEPOSIT"; a; n ] -> (
    match (bal a, int_of_string_opt n) with
    | Some b, Some n when n >= 0 ->
      Hashtbl.replace s a (b + n);
      "OK"
    | _ -> "FAIL")
  | [ "WITHDRAW"; a; n ] -> (
    match (bal a, int_of_string_opt n) with
    | Some b, Some n when n >= 0 && b >= n ->
      Hashtbl.replace s a (b - n);
      "OK"
    | _ -> "FAIL")
  | [ "TRANSFER"; a; b; n ] -> (
    match (bal a, bal b, int_of_string_opt n) with
    | Some ba, Some bb, Some n when n >= 0 && ba >= n && a <> b ->
      Hashtbl.replace s a (ba - n);
      Hashtbl.replace s b (bb + n);
      "OK"
    | _ -> "FAIL")
  | [ "BALANCE"; a ] -> (
    match bal a with Some b -> string_of_int b | None -> "FAIL")
  | [ "TOTAL" ] -> string_of_int (Hashtbl.fold (fun _ b acc -> acc + b) s 0)
  | _ -> "ERR"

let read_only op =
  match String.split_on_char ' ' op with
  | [ "BALANCE"; _ ] | [ "TOTAL" ] -> true
  | _ -> false

let snapshot (s : state) = Snap.table_snapshot Snap.int_value s

let restore str : state = Snap.table_restore ~app:name Snap.read_pair_si ~size:16 str

let open_ a n = Printf.sprintf "OPEN %s %d" a n

let deposit a n = Printf.sprintf "DEPOSIT %s %d" a n

let withdraw a n = Printf.sprintf "WITHDRAW %s %d" a n

let transfer a b n = Printf.sprintf "TRANSFER %s %s %d" a b n

let balance a = "BALANCE " ^ a

let total = "TOTAL"
