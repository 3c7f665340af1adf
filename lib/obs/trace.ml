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

(* ------------------------------------------------------------------ *)
(* Merging per-node traces                                             *)
(* ------------------------------------------------------------------ *)

let merge traces =
  List.concat_map records traces
  |> List.stable_sort (fun a b -> Float.compare a.at b.at)
