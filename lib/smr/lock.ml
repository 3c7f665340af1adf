(* lock -> owner *)
type state = (string, string) Hashtbl.t

let name = "lock"

let init () : state = Hashtbl.create 16

let apply (s : state) op =
  match String.split_on_char ' ' op with
  | [ "ACQUIRE"; owner; lock ] -> (
    match Hashtbl.find_opt s lock with
    | None ->
      Hashtbl.replace s lock owner;
      "OK"
    | Some o when o = owner -> "OK"
    | Some o -> "BUSY " ^ o)
  | [ "RELEASE"; owner; lock ] -> (
    match Hashtbl.find_opt s lock with
    | Some o when o = owner ->
      Hashtbl.remove s lock;
      "OK"
    | Some _ | None -> "FAIL")
  | [ "HOLDER"; lock ] -> (
    match Hashtbl.find_opt s lock with Some o -> o | None -> "NONE")
  | _ -> "ERR"

let read_only op =
  match String.split_on_char ' ' op with [ "HOLDER"; _ ] -> true | _ -> false

let snapshot (s : state) = Snap.table_snapshot Snap.string_value s

let restore str : state = Snap.table_restore ~app:name Snap.read_pair_ss ~size:16 str

let acquire ~owner lock = Printf.sprintf "ACQUIRE %s %s" owner lock

let release ~owner lock = Printf.sprintf "RELEASE %s %s" owner lock

let holder lock = "HOLDER " ^ lock
