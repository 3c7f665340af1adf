(** Binary wire codec for {!Types.msg}.

    A compact, self-describing binary format: one tag byte per constructor,
    varint-encoded integers, length-prefixed strings. The simulator does not
    need it (messages travel as OCaml values), but the real-socket and ring
    transports do, and it pins down an actual wire format — {!Types.size_of}
    is validated against it in the test suite.

    On the wire there is exactly one format. Every message travels as a
    {e frame} carrying its replica group and causal trace id, and every UDP
    datagram or ring record is a sequence of one or more length-prefixed
    frames:
    {v
      frame    := varint gid | varint tid | msg
      datagram := (u16-le length | frame)+
    v}
    The hot path is {!encode_into} and {!decode_frames}; {!encode} and
    {!decode} give the bare message bytes (what {!Types.size_of} and the
    conformance byte counts measure).

    Decoding is total: any input either decodes or yields [Error _]; decoding
    never raises. *)

val encode : Types.msg -> string
(** The bare message bytes (no frame header). *)

val decode : string -> (Types.msg, string) result
(** Inverse of {!encode}; the message must end exactly at the end of the
    string. *)

exception Overflow

val encode_into : Bytes.t -> pos:int -> gid:int -> tid:int -> Types.msg -> int
(** Write one length-prefixed frame ([u16-le length | varint gid | varint tid
    | msg]) into [buf] at [pos] and return the position one past its last
    byte. Any concatenation of such writes is a valid datagram. Zero-copy:
    the bytes go straight into the caller's buffer. Raises {!Overflow} if the
    frame does not fit before the end of [buf] or exceeds 65535 bytes (the
    caller's cursor must not advance; bytes past [pos] may be clobbered),
    and [Invalid_argument] on a negative [gid]. *)

type framed = {
  f_gid : int;  (** replica group id *)
  f_msg : Types.msg;
  f_tid : int;  (** causal trace id (0 = untraced) *)
  f_bytes : int;  (** bytes the frame occupies on the wire, its 2-byte length included *)
}

val decode_frames : ?pos:int -> ?len:int -> string -> (framed list, string) result
(** Decode the datagram occupying [len] bytes of [s] from [pos] (default: all
    of [s]) into its frames, in wire order. Frames are decoded in place — no
    per-frame substring copy — and the result shares no bytes with [s]. An
    empty datagram, a zero-length or truncated frame, a truncated length, a
    negative group id, or bytes left over inside a frame are all [Error].
    Raises [Invalid_argument] only if the window lies outside [s]. *)

(** {1 Primitives} (exposed for tests and for app snapshot codecs) *)

val write_varint : Buffer.t -> int -> unit
(** Zig-zag varint; handles negative values. *)

val read_varint : string -> pos:int -> (int * int, string) result
(** Returns (value, next position). *)

val write_string : Buffer.t -> string -> unit
(** Varint length prefix, then the raw bytes. *)

val read_string : string -> pos:int -> (string * int, string) result
(** Returns (value, next position). *)

(** {1 Stable records}

    Typed, versioned codecs for what the effect interpreter persists — the
    acceptor image, one chosen log entry, the snapshot. Each record leads
    with a version byte; decoding returns [Result] and requires exact
    landing, so a torn or foreign blob is an [Error], never an exception.
    These replace [Marshal] on the durable path: the byte layout is defined
    by the message grammar, not the OCaml runtime, so a WAL written under
    one compiler version reads back under another. *)

type acceptor_image = Ballot.t * (int * Types.vote) list * int
(** Promised ballot, votes by instance, compaction floor — exactly the
    payload of [Effect.Persist_acceptor]. *)

val stable_version : int

val encode_acceptor_image : acceptor_image -> string

val decode_acceptor_image : string -> (acceptor_image, string) result

val encode_stable_entry : Types.entry -> string

val decode_stable_entry : string -> (Types.entry, string) result

val encode_stable_snapshot : Types.snapshot -> string

val decode_stable_snapshot : string -> (Types.snapshot, string) result
