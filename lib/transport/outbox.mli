(** Flush-coalescing per-destination send buffers.

    One [Core.step] typically emits a burst of messages — phase-2 rounds
    fan a [P2a] to every acceptor, commits chase them — and sending each as
    its own datagram costs one syscall per message. An outbox accumulates
    the burst instead: {!append} serializes each frame {e zero-copy} into a
    preallocated per-destination buffer ({!Cp_proto.Codec.encode_into}, so
    the buffer is always a well-formed datagram), and {!flush} hands each
    dirty buffer to the [send] callback once — one syscall per peer per
    step, iovec-style buffer chaining without the iovec. A lone frame goes
    out in the same layout as a burst.

    Not thread-safe: one outbox per sender, under the sender's lock. *)

type t

val create : ?capacity:int -> send:(dst:int -> Bytes.t -> off:int -> len:int -> unit) -> unit -> t
(** [capacity] (default 61440, clamped to [512, 65507]) bounds one
    datagram; 65507 is the maximum UDP payload. [send] transmits one wire
    datagram; it must not re-enter the outbox for the same destination. *)

val append : t -> dst:int -> gid:int -> tid:int -> Cp_proto.Types.msg -> int
(** Serialize one frame into [dst]'s buffer and return the bytes it took
    (length header included). If the buffer is full, it is flushed first
    and the frame retried into the empty buffer; a frame too large even for
    an empty buffer raises {!Cp_proto.Codec.Overflow} (the caller falls back
    to its own path and accounts the copy). *)

val flush : t -> unit
(** Transmit every destination buffer with pending frames, in ascending
    destination order (deterministic), and reset them. No-op when nothing
    pends — call it unconditionally after every handler invocation. *)

val pending : t -> int
(** Number of destinations with unflushed frames (for tests). *)
