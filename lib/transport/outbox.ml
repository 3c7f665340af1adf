module Codec = Cp_proto.Codec

(* Per-destination buffer holding a datagram under construction: frames
   written back to back by [Codec.encode_into]; [b_len] is the fill point,
   so [b_len > 0] means frames are pending. *)
type dstbuf = { b_buf : Bytes.t; mutable b_len : int }

type t = {
  send : dst:int -> Bytes.t -> off:int -> len:int -> unit;
  cap : int;
  bufs : (int, dstbuf) Hashtbl.t;
  mutable dirty : int list; (* dsts with b_len > 0, unordered *)
}

let create ?(capacity = 61440) ~send () =
  { send; cap = min 65507 (max 512 capacity); bufs = Hashtbl.create 8; dirty = [] }

(* [Hashtbl.find] rather than [find_opt]: the steady-state hit allocates
   nothing (no [Some] box) — this is once per frame on the wire path. *)
let buf_for t dst =
  match Hashtbl.find t.bufs dst with
  | b -> b
  | exception Not_found ->
    let b = { b_buf = Bytes.create t.cap; b_len = 0 } in
    Hashtbl.replace t.bufs dst b;
    b

let flush_buf t dst b =
  if b.b_len > 0 then t.send ~dst b.b_buf ~off:0 ~len:b.b_len;
  b.b_len <- 0

let flush t =
  match t.dirty with
  | [] -> ()
  | dirty ->
    t.dirty <- [];
    List.iter
      (fun dst -> flush_buf t dst (Hashtbl.find t.bufs dst))
      (List.sort_uniq compare dirty)

(* The fast path allocates only the (amortized) dirty-list cons: the retry
   is a tail call rather than a [try]-wrapped closure. After [flush_buf]
   the buffer is empty, so a frame that still does not fit fails the
   [when] guard and Overflow propagates to the caller; the dirty entry for
   [dst] may linger across the flush — harmless, [flush] of an empty buffer
   sends nothing. *)
let rec append t ~dst ~gid ~tid msg =
  let b = buf_for t dst in
  match Codec.encode_into b.b_buf ~pos:b.b_len ~gid ~tid msg with
  | stop ->
    if b.b_len = 0 then t.dirty <- dst :: t.dirty;
    let n = stop - b.b_len in
    b.b_len <- stop;
    n
  | exception Codec.Overflow when b.b_len > 0 ->
    flush_buf t dst b;
    append t ~dst ~gid ~tid msg

let pending t =
  List.length
    (List.filter (fun dst -> (Hashtbl.find t.bufs dst).b_len > 0) (List.sort_uniq compare t.dirty))
