type state = int ref

let name = "counter"

let init () = ref 0

let apply (s : state) op =
  (match String.split_on_char ' ' op with
  | [ "INC"; n ] -> (
    match int_of_string_opt n with Some n -> s := !s + n | None -> ())
  | [ "GET" ] -> ()
  | _ -> ());
  string_of_int !s

let read_only op = op = "GET"

let snapshot (s : state) = string_of_int !s

let restore str : state = ref (int_of_string str)

let inc n = "INC " ^ string_of_int n

let get = "GET"
