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

val max_datagram : int
(** 65507, the largest UDP payload over IPv4: the most one datagram of
    frames may carry. A message that must travel whole (a [P1b], a
    [CatchupResp]) has to encode into a buffer this size. *)

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

(** {1 Sized writing}

    For a caller that keeps part of a record already encoded and splices it
    in later (a session's cached replies, see {!encode_stable_snapshot_with}),
    or that sizes a record before writing it once (an app's table snapshot):
    exact sizes, and a cursor that writes into the caller's own bytes. *)

type cursor
(** A write position inside a caller-owned [Bytes.t]. Every [put_*] raises
    {!Overflow} rather than run past the end of the bytes. *)

val cursor : Bytes.t -> pos:int -> cursor

val cursor_pos : cursor -> int
(** One past the last byte written. *)

val put_varint : cursor -> int -> unit

val put_bytes : cursor -> Bytes.t -> pos:int -> len:int -> unit
(** Copy [len] bytes of the source from [pos]. *)

val put_string : cursor -> string -> unit
(** Length-prefixed, as {!write_string}. *)

val put_reply : cursor -> int -> string -> unit
(** One cached reply of a snapshot session, [varint seq | string reply]. *)

val varint_size : int -> int
(** Bytes {!put_varint} writes for this value. *)

val string_size : string -> int
(** Bytes {!put_string} writes for this string. *)

val reply_size : int -> string -> int
(** Bytes {!put_reply} writes for this seq and reply. *)

val reply_end : Bytes.t -> pos:int -> int
(** The position just past the reply that {!put_reply} wrote at [pos].
    Raises [Invalid_argument] if the bytes there are not such a reply. *)

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
    acceptor header, one vote, one chosen log entry, the snapshot. Each
    record leads with a version byte; decoding returns [Result] and requires
    exact landing, so a torn or foreign blob is an [Error], never an
    exception. These replace [Marshal] on the durable path: the byte layout
    is defined by the message grammar, not the OCaml runtime, so a WAL
    written under one compiler version reads back under another. *)

type acceptor_header = Ballot.t * int
(** Promised ballot and compaction floor — exactly the payload of
    [Effect.Persist_header]. The votes are separate records (one
    {!encode_stable_vote} per instance), so the header stays a few bytes
    however many votes the acceptor holds. *)

val stable_version : int

val encode_acceptor_header : acceptor_header -> string

val decode_acceptor_header : string -> (acceptor_header, string) result

val encode_stable_vote : Types.vote -> string
(** One accepted vote (ballot, entry); the instance is its storage key. *)

val decode_stable_vote : string -> (Types.vote, string) result

val encode_stable_entry : Types.entry -> string

val decode_stable_entry : string -> (Types.entry, string) result

val encode_stable_snapshot : Types.snapshot -> string

val decode_stable_snapshot : string -> (Types.snapshot, string) result

val encode_stable_snapshot_with :
  next_instance:int ->
  app_state:string ->
  sessions:(int * 's) list ->
  session_size:('s -> int) ->
  write_session:(cursor -> 's -> unit) ->
  base_config:Config.t ->
  pending_configs:(int * Config.t) list ->
  string
(** {!encode_stable_snapshot} of the snapshot with these fields, written in
    one pass into a buffer sized up front. Each session is a client id and
    a value that [write_session] writes as the rest of the session record:
    [varint floor | varint count | reply*], replies as {!put_reply} writes
    them in ascending seq order, in exactly [session_size] bytes. The
    sessions are written in list order. Raises [Invalid_argument] if the
    bytes written do not match the sizes announced. *)
