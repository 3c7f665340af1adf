(** Bounded single-producer single-consumer {e byte} ring.

    The in-process transport's wire: variable-length records written
    zero-copy (the producer's encoder serializes straight into the ring's
    backing bytes) and consumed in place (the reader gets a window into the
    same bytes, no per-record substring). Indices grow
    monotonically; the producer owns the tail and the consumer the head.

    Records never wrap: a record that does not fit contiguously before the
    end of the buffer is preceded by a skip marker and placed at the start,
    so the consumer always sees each record as one contiguous byte range.

    Sizing: a ring starts with a 1 KiB buffer (or [capacity], if smaller)
    and doubles it, up to [capacity], when a write does not fit; the unread
    records move, in order, to the new buffer. Growth replaces the buffer
    under the consumer, so producer and consumer must share one domain (as
    in {!Ring}, whose pumper is single-threaded). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 65536, rounded up to a power of two, min 256) is
    the largest the buffer may get, in bytes; usable record payloads are
    capped at [capacity/2 - 2] and 65534, whichever is smaller, whatever
    the current size. *)

val capacity : t -> int
(** The growth bound: the rounded [capacity] given to {!create}. *)

val allocated : t -> int
(** The current buffer size in bytes: the starting size, doubled by each
    growth. *)

val max_record : t -> int
(** Largest payload [write] can accept — from any buffer size, growing as
    needed. *)

val is_empty : t -> bool

val write : t -> max:int -> f:(Bytes.t -> pos:int -> int) -> int option
(** [write t ~max ~f] reserves [max] contiguous bytes (growing the buffer
    if they do not fit and it is below {!capacity}), calls [f buf ~pos] to
    serialize a record of at most [max] bytes at [pos], and commits
    exactly the [f]'s-return-value minus [pos] bytes it wrote, returning
    [Some length]. Returns [None] without calling [f] when [max] exceeds
    {!max_record} or the ring lacks room even at full capacity (the caller
    counts a drop or backs off). If [f] raises, nothing is committed and
    the exception passes through. *)

val written : t -> int
(** Records committed so far: grows by one per successful {!write}, never
    decreases, and is unaffected by growth. Pass it to {!read} as [limit]
    to consume only the records written so far. *)

val read : ?limit:int -> t -> f:(Bytes.t -> pos:int -> len:int -> unit) -> bool
(** Consume one record: calls [f] with a window into the ring's own buffer
    (valid only for the duration of the call — the producer may overwrite
    it after [f] returns) and returns [true]; [false] when empty. With
    [limit] (a value {!written} returned earlier), [read] returns [false]
    once that many records have been consumed in all, leaving later ones
    unread. [f] may write to the same ring, even if that grows it. *)
