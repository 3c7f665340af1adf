(* Record layout: 2-byte little-endian payload length, then the payload,
   always contiguous. When the gap before the end of the buffer is too
   small for the next record, the producer parks a skip marker (length
   0xffff) — or, if not even the 2 marker bytes fit, leaves the tail bytes
   as implicit padding — and continues at offset 0; the consumer applies
   the same two rules. 0xffff can never be a real length because payloads
   are capped at 65534. *)

type t = {
  buf : Bytes.t;
  mask : int;
  head : int Atomic.t; (* consumer: offset of the next record to read *)
  tail : int Atomic.t; (* producer: offset of the next record to write *)
}

let skip_marker = 0xffff

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

let create ?(capacity = 65536) () =
  let cap = pow2 (max 256 capacity) 256 in
  {
    buf = Bytes.create cap;
    mask = cap - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let capacity t = Bytes.length t.buf

(* Half the buffer, so a maximal record plus a skip never exceeds the free
   space computable from one head reading; and 65534 so the length always
   fits the 16-bit header with 0xffff left over for the marker. *)
let max_record t = min ((capacity t / 2) - 2) 0xfffe

let is_empty t = Atomic.get t.head >= Atomic.get t.tail

let tail t = Atomic.get t.tail

let set16 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff))

let get16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let write t ~max ~f =
  if max < 0 || max > max_record t then None
  else begin
    let cap = Bytes.length t.buf in
    let head = Atomic.get t.head in
    let tail = Atomic.get t.tail in
    let off = tail land t.mask in
    let room_to_end = cap - off in
    let need = 2 + max in
    if room_to_end >= need then
      if cap - (tail - head) < need then None
      else begin
        let stop = f t.buf ~pos:(off + 2) in
        let len = stop - (off + 2) in
        set16 t.buf off len;
        Atomic.set t.tail (tail + 2 + len);
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
      Some len
    end
  end

(* A [limit] is a tail the producer published earlier, so it always falls
   on a record boundary and the skip rules below never cross it. *)
let read ?(limit = max_int) t ~f =
  let rec go () =
    let head = Atomic.get t.head in
    let tail = min limit (Atomic.get t.tail) in
    if head >= tail then false
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
          Atomic.set t.head (head + 2 + len);
          true
        end
      end
    end
  in
  go ()
