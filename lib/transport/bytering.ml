(* Record layout: 2-byte little-endian payload length, then the payload,
   always contiguous. When the gap before the end of the buffer is too
   small for the next record, the producer parks a skip marker (length
   0xffff) — or, if not even the 2 marker bytes fit, leaves the tail bytes
   as implicit padding — and continues at offset 0; the consumer applies
   the same two rules. 0xffff can never be a real length because payloads
   are capped at 65534.

   Growth: a ring below its capacity doubles its buffer when a write does
   not fit, copying the unread records, in order and
   without skips, to the start of the new buffer. Byte offsets therefore
   move; record counts do not, which is why a read [limit] counts records. *)

type t = {
  mutable buf : Bytes.t;
  mutable mask : int;
  cap_max : int; (* the buffer never grows past this *)
  head : int Atomic.t; (* consumer: offset of the next record to read *)
  tail : int Atomic.t; (* producer: offset of the next record to write *)
  written : int Atomic.t; (* producer: records committed *)
  mutable consumed : int; (* consumer: records read *)
}

let skip_marker = 0xffff

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* Where every ring starts: a link carrying a few small frames per pass
   never needs more, and a busy one doubles its way up to its capacity. *)
let initial_bytes = 1024

let create ?(capacity = 65536) () =
  let cap_max = pow2 (max 256 capacity) 256 in
  let cap = min cap_max initial_bytes in
  {
    buf = Bytes.create cap;
    mask = cap - 1;
    cap_max;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    written = Atomic.make 0;
    consumed = 0;
  }

let capacity t = t.cap_max

let allocated t = Bytes.length t.buf

(* Half the buffer, so a maximal record plus a skip never exceeds the free
   space computable from one head reading; and 65534 so the length always
   fits the 16-bit header with 0xffff left over for the marker. *)
let max_record t = min ((t.cap_max / 2) - 2) 0xfffe

let is_empty t = Atomic.get t.head >= Atomic.get t.tail

let written t = Atomic.get t.written

let set16 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

(* Visit the unread records from [head] to [tail] in order, applying the
   consumer's skip rules: [f off len] for a record whose payload is at
   [off + 2]. *)
let iter_unread t ~f =
  let cap = Bytes.length t.buf in
  let tail = Atomic.get t.tail in
  let rec go head =
    if head < tail then begin
      let off = head land t.mask in
      let room_to_end = cap - off in
      if room_to_end < 2 then go (head + room_to_end)
      else
        let len = get16 t.buf off in
        if len = skip_marker then go (head + room_to_end)
        else begin
          f off len;
          go (head + 2 + len)
        end
    end
  in
  go (Atomic.get t.head)

(* Double the buffer until the unread records, packed at its start, leave
   [need] contiguous bytes after them (or the capacity is reached), and
   move them there. *)
let grow t need =
  let live = ref 0 in
  iter_unread t ~f:(fun _ len -> live := !live + 2 + len);
  let rec size c = if c >= t.cap_max || c - !live >= need then min c t.cap_max else size (c * 2) in
  let cap = size (2 * Bytes.length t.buf) in
  let buf = Bytes.create cap in
  let pos = ref 0 in
  iter_unread t ~f:(fun off len ->
      Bytes.blit t.buf off buf !pos (2 + len);
      pos := !pos + 2 + len);
  t.buf <- buf;
  t.mask <- cap - 1;
  Atomic.set t.head 0;
  Atomic.set t.tail !pos

(* Commit a record of at most [need - 2] bytes if it fits now. *)
let try_write t ~need ~f =
  let cap = Bytes.length t.buf in
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  let off = tail land t.mask in
  let room_to_end = cap - off in
  if room_to_end >= need then
    if cap - (tail - head) < need then None
    else begin
      let stop = f t.buf ~pos:(off + 2) in
      let len = stop - (off + 2) in
      set16 t.buf off len;
      Atomic.set t.tail (tail + 2 + len);
      Atomic.incr t.written;
      Some len
    end
  else if cap - (tail - head) < room_to_end + need then None
  else begin
    (* Park a marker (or bare padding when < 2 bytes remain) and wrap. *)
    if room_to_end >= 2 then set16 t.buf off skip_marker;
    let stop = f t.buf ~pos:2 in
    let len = stop - 2 in
    set16 t.buf 0 len;
    Atomic.set t.tail (tail + room_to_end + 2 + len);
    Atomic.incr t.written;
    Some len
  end

let write t ~max ~f =
  if max < 0 || max > max_record t then None
  else
    let need = 2 + max in
    match try_write t ~need ~f with
    | Some _ as r -> r
    | None when Bytes.length t.buf < t.cap_max ->
      grow t need;
      try_write t ~need ~f
    | None -> None

(* The record is consumed only after [f] returns, so the producer cannot
   reuse its bytes meanwhile. If [f] made the ring grow (a handler writing
   to the ring it is being fed from), the record was moved, unread, to the
   start of the new buffer, where [head] now points: advancing from the
   current [head] rather than the one read above covers both cases. *)
let read ?(limit = max_int) t ~f =
  let rec go () =
    let head = Atomic.get t.head in
    let tail = Atomic.get t.tail in
    if head >= tail || t.consumed >= limit then false
    else begin
      let cap = Bytes.length t.buf in
      let off = head land t.mask in
      let room_to_end = cap - off in
      if room_to_end < 2 then begin
        Atomic.set t.head (head + room_to_end);
        go ()
      end
      else begin
        let len = get16 t.buf off in
        if len = skip_marker then begin
          Atomic.set t.head (head + room_to_end);
          go ()
        end
        else begin
          f t.buf ~pos:(off + 2) ~len;
          Atomic.set t.head (Atomic.get t.head + 2 + len);
          t.consumed <- t.consumed + 1;
          true
        end
      end
    end
  in
  go ()
