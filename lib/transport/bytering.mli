(** Bounded single-producer single-consumer {e byte} ring.

    The in-process transport's wire: variable-length records written
    zero-copy (the producer's encoder serializes straight into the ring's
    backing bytes) and consumed in place (the reader gets a window into the
    same bytes, no per-record substring). Same ownership discipline as
    {!Cp_exec.Spsc}: indices grow monotonically, producer owns the tail,
    consumer owns the head, each reads the other's index with a
    sequentially-consistent [Atomic.get] — so one producer domain and one
    consumer domain need no lock. Single-threaded use is just the
    degenerate case.

    Records never wrap: a record that does not fit contiguously before the
    end of the buffer is preceded by a skip marker and placed at the start,
    so the consumer always sees each record as one contiguous byte range. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536, rounded up to a power of two, min 256) is
    the buffer size in bytes; usable record payloads are capped at
    [capacity/2 - 2] and 65534, whichever is smaller. *)

val capacity : t -> int

val max_record : t -> int
(** Largest payload [write] can accept. *)

val is_empty : t -> bool

val write : t -> max:int -> f:(Bytes.t -> pos:int -> int) -> int option
(** [write t ~max ~f] reserves [max] contiguous bytes, calls [f buf ~pos]
    to serialize a record of at most [max] bytes at [pos], and commits
    exactly the [f]'s-return-value minus [pos] bytes it wrote, returning
    [Some length]. Returns [None] without calling [f] when [max] exceeds
    {!max_record} or the ring lacks room (the caller counts a drop or backs
    off). If [f] raises, nothing is committed and the exception passes
    through. *)

val tail : t -> int
(** The producer's write position: grows by each committed record (and any
    skip before it), never decreases. Pass it to {!read} as [limit] to
    consume only the records written so far. *)

val read : ?limit:int -> t -> f:(Bytes.t -> pos:int -> len:int -> unit) -> bool
(** Consume one record: calls [f] with a window into the ring's own buffer
    (valid only for the duration of the call — the producer may overwrite
    it after [f] returns) and returns [true]; [false] when empty. With
    [limit] (a value {!tail} returned earlier), records written after that
    point are left unread and [read] returns [false] once it reaches them. *)
