type state = (string, string) Hashtbl.t

let name = "kv"

let init () : state = Hashtbl.create 64

let apply (s : state) op =
  match String.split_on_char ' ' op with
  | [ "GET"; k ] -> (
    match Hashtbl.find_opt s k with Some v -> v | None -> "NONE")
  | [ "PUT"; k; v ] ->
    Hashtbl.replace s k v;
    "OK"
  | [ "DEL"; k ] ->
    Hashtbl.remove s k;
    "OK"
  | [ "CAS"; k; old; new_ ] -> (
    match Hashtbl.find_opt s k with
    | Some v when v = old ->
      Hashtbl.replace s k new_;
      "OK"
    | Some _ | None -> "FAIL")
  | _ -> "ERR"

let read_only op =
  match String.split_on_char ' ' op with [ "GET"; _ ] -> true | _ -> false

let snapshot (s : state) = Snap.table_snapshot Snap.string_value s

let restore str : state = Snap.table_restore ~app:name Snap.read_pair_ss ~size:64 str

let get k = "GET " ^ k

let put k v = Printf.sprintf "PUT %s %s" k v

let del k = "DEL " ^ k

let cas k ~old ~new_ = Printf.sprintf "CAS %s %s %s" k old new_

type result = Ok | None_ | Value of string | Fail

let parse_result = function
  | "OK" -> Ok
  | "NONE" -> None_
  | "FAIL" -> Fail
  | v -> Value v
