type record = { at : float; node : int; tid : int; ev : Event.t }

(* Struct-of-arrays ring rather than [record Ring.t]: [emit] sits on the
   simulator's per-delivery hot path, and storing into parallel unboxed
   float/int arrays allocates nothing (a [record] would box [at] and wrap
   in [Some] per event — measurable against the bench's obs-overhead
   gate). Records are materialized only on read.

   The arrays start small and double up to [capacity] as records arrive:
   most traces (a client's, a quiet node's) never fill a full ring. While
   they grow, [next] never exceeds their length, so nothing has wrapped
   and record [k] sits at index [k]; once they reach [capacity] they stop
   growing and [emit] allocates nothing again. *)
type t = {
  capacity : int;
  mutable ats : float array;
  mutable nodes : int array;
  mutable tids : int array;
  mutable evs : Event.t array;
  mutable next : int; (* total emits, monotonically increasing *)
  mutable hook : (record -> unit) option;
}

let default_capacity = 16_384

let initial_slots = 64

let dummy_ev = Event.Crashed

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let n = min capacity initial_slots in
  {
    capacity;
    ats = Array.make n 0.;
    nodes = Array.make n 0;
    tids = Array.make n 0;
    evs = Array.make n dummy_ev;
    next = 0;
    hook = None;
  }

let grow t =
  let n = Array.length t.evs in
  let n' = min t.capacity (2 * n) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.ats <- extend t.ats 0.;
  t.nodes <- extend t.nodes 0;
  t.tids <- extend t.tids 0;
  t.evs <- extend t.evs dummy_ev

let emit ?(tid = 0) t ~at ~node ev =
  if t.next = Array.length t.evs && t.next < t.capacity then grow t;
  let i = t.next mod Array.length t.evs in
  t.ats.(i) <- at;
  t.nodes.(i) <- node;
  t.tids.(i) <- tid;
  t.evs.(i) <- ev;
  t.next <- t.next + 1;
  match t.hook with Some f -> f { at; node; tid; ev } | None -> ()

let length t = min t.next t.capacity

let records t =
  let cap = Array.length t.evs in
  let n = length t in
  let first = t.next - n in
  List.init n (fun k ->
      let i = (first + k) mod cap in
      { at = t.ats.(i); node = t.nodes.(i); tid = t.tids.(i); ev = t.evs.(i) })

let dropped t = max 0 (t.next - t.capacity)

let clear t =
  (* Drop references to retained events so they can be collected. *)
  Array.fill t.evs 0 (Array.length t.evs) dummy_ev;
  t.next <- 0

let set_hook t f = t.hook <- Some f

let pp_record ppf r =
  if r.tid = 0 then Format.fprintf ppf "%8.4fs  n%d  %a" r.at r.node Event.pp r.ev
  else Format.fprintf ppf "%8.4fs  n%d  [%x]  %a" r.at r.node r.tid Event.pp r.ev

(* ------------------------------------------------------------------ *)
(* JSONL: one flat object per record                                   *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let record_to_json r =
  let b = Buffer.create 96 in
  (* "tid" only when traced, so pre-trace dumps and untraced records keep
     the same shape; the reader below treats a missing "tid" as 0. *)
  if r.tid = 0 then
    Buffer.add_string b (Printf.sprintf "{\"at\":%.6f,\"node\":%d,\"event\":\"%s\"" r.at r.node
                           (escape (Event.kind r.ev)))
  else
    Buffer.add_string b (Printf.sprintf "{\"at\":%.6f,\"node\":%d,\"tid\":%d,\"event\":\"%s\""
                           r.at r.node r.tid (escape (Event.kind r.ev)));
  List.iter
    (fun (name, v) ->
      match v with
      | `I i -> Buffer.add_string b (Printf.sprintf ",\"%s\":%d" (escape name) i)
      | `S s -> Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" (escape name) (escape s)))
    (Event.fields r.ev);
  Buffer.add_char b '}';
  Buffer.contents b

let to_jsonl records =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b (record_to_json r);
      Buffer.add_char b '\n')
    records;
  Buffer.contents b

(* A minimal parser for the flat objects produced above: string and number
   values only, no nesting. Enough for round-tripping our own dumps. *)
let record_of_json line =
  let n = String.length line in
  let pos = ref 0 in
  let error fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then begin incr pos; Ok () end
    else error "expected %C at %d" c !pos
  in
  let parse_string () =
    skip_ws ();
    if peek () <> Some '"' then error "expected string at %d" !pos
    else begin
      incr pos;
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then error "unterminated string"
        else
          match line.[!pos] with
          | '"' -> incr pos; Ok (Buffer.contents b)
          | '\\' when !pos + 1 < n ->
            (match line.[!pos + 1] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
              if !pos + 5 < n then begin
                let code = int_of_string ("0x" ^ String.sub line (!pos + 2) 4) in
                Buffer.add_char b (Char.chr (code land 0xff));
                pos := !pos + 4
              end
            | c -> Buffer.add_char b c);
            pos := !pos + 2;
            go ()
          | c -> Buffer.add_char b c; incr pos; go ()
      in
      go ()
    end
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do incr pos done;
    if !pos = start then error "expected number at %d" start
    else Ok (String.sub line start (!pos - start))
  in
  let ( let* ) = Result.bind in
  let* () = expect '{' in
  let rec members acc =
    skip_ws ();
    match peek () with
    | Some '}' -> incr pos; Ok (List.rev acc)
    | _ ->
      let* key = parse_string () in
      let* () = expect ':' in
      skip_ws ();
      let* value =
        if peek () = Some '"' then
          let* s = parse_string () in
          Ok (`Str s)
        else
          let* num = parse_number () in
          Ok (`Num num)
      in
      skip_ws ();
      (match peek () with
      | Some ',' ->
        incr pos;
        members ((key, value) :: acc)
      | Some '}' -> incr pos; Ok (List.rev ((key, value) :: acc))
      | _ -> error "expected ',' or '}' at %d" !pos)
  in
  let* kvs = members [] in
  let* at =
    match List.assoc_opt "at" kvs with
    | Some (`Num s) ->
      (match float_of_string_opt s with Some f -> Ok f | None -> error "bad at %S" s)
    | _ -> error "missing \"at\""
  in
  let* node =
    match List.assoc_opt "node" kvs with
    | Some (`Num s) ->
      (match int_of_string_opt s with Some i -> Ok i | None -> error "bad node %S" s)
    | _ -> error "missing \"node\""
  in
  let* kind =
    match List.assoc_opt "event" kvs with
    | Some (`Str s) -> Ok s
    | _ -> error "missing \"event\""
  in
  let* tid =
    match List.assoc_opt "tid" kvs with
    | None -> Ok 0
    | Some (`Num s) ->
      (match int_of_string_opt s with Some i -> Ok i | None -> error "bad tid %S" s)
    | Some (`Str _) -> error "bad tid"
  in
  let* fields =
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        if k = "at" || k = "node" || k = "event" || k = "tid" then Ok acc
        else
          match v with
          | `Str s -> Ok ((k, `S s) :: acc)
          | `Num s ->
            (match int_of_string_opt s with
            | Some i -> Ok ((k, `I i) :: acc)
            | None -> error "non-integer field %S=%S" k s))
      (Ok []) kvs
  in
  let* ev = Event.of_fields ~kind (List.rev fields) in
  Ok { at; node; tid; ev }

let of_jsonl text =
  let lines = String.split_on_char '\n' text in
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ as e -> e
      | Ok rs ->
        if String.trim line = "" then Ok rs
        else
          match record_of_json line with
          | Ok r -> Ok (r :: rs)
          | Error e -> Error (Printf.sprintf "%s in %S" e line))
    (Ok []) lines
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Merging per-node traces                                             *)
(* ------------------------------------------------------------------ *)

let merge traces =
  List.concat_map records traces
  |> List.stable_sort (fun a b -> Float.compare a.at b.at)
