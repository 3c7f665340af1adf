(* Just enough JSON for the benchmark's own files: results, BENCHMARK.json
   and the node dumps are written and read back through this module. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Shortest decimal that reads back to the same float; integral values
   print without a fraction. *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 9e15 then Printf.sprintf "%.0f" x
  else if Float.is_nan x || Float.is_integer x then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [indent] < 0 prints on one line. *)
let rec write b ~indent ~depth v =
  let nl d =
    if indent >= 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * d) ' ')
    end
  in
  let seq open_ close items f =
    Buffer.add_char b open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if indent >= 0 then "," else ", ");
        nl (depth + 1);
        f x)
      items;
    if items <> [] then nl depth;
    Buffer.add_char b close
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num x -> Buffer.add_string b (num_to_string x)
  | Str s -> escape b s
  | Arr l -> seq '[' ']' l (write b ~indent ~depth:(depth + 1))
  | Obj l ->
    seq '{' '}' l (fun (k, x) ->
        escape b k;
        Buffer.add_string b ": ";
        write b ~indent ~depth:(depth + 1) x)

let to_string ?(indent = -1) v =
  let b = Buffer.create 256 in
  write b ~indent ~depth:0 v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let pos = ref 0 and len = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < len && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
        let e = peek () in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > len then fail "bad escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          ws ();
          let k = str () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < len
        && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      do
        incr pos
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> len then fail "trailing bytes";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string ~indent:2 v);
      output_char oc '\n')

(* Accessors: raise [Not_found] on a missing field or a type mismatch. *)
let field k = function Obj l -> List.assoc k l | _ -> raise Not_found

let field_opt k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Num x -> x | _ -> raise Not_found

let to_str = function Str s -> s | _ -> raise Not_found

let to_list = function Arr l -> l | _ -> raise Not_found

let to_bool = function Bool b -> b | _ -> raise Not_found

let to_obj = function Obj l -> l | _ -> raise Not_found
