(** Per-client at-most-once state: a windowed dedup cache.

    A client may pipeline many operations (see {!Cp_smr.Open_client}), so
    commands can execute out of order relative to their sequence numbers. A
    single "last seq" cell would silently swallow an out-of-order command;
    instead each session keeps the cached replies of the last [window]
    executed sequence numbers plus a floor below which everything is known
    executed (but evicted). Replays above the floor get their cached reply;
    replays below it are acknowledged as ancient duplicates.

    Beside the lookup map, a session keeps its cached replies encoded the
    way a snapshot stores them ({!Cp_proto.Codec.put_reply}, ascending
    seq), so a snapshot copies those bytes ({!write_image}) instead of
    encoding every reply again. A record above the highest seq so far
    appends to them and an eviction skips their first entry, both O(1)
    amortized; a record out of seq order, {!import} and {!copy} leave them
    stale, and the next {!image_size} or {!write_image} rebuilds them once
    from the map. *)

type t

(** Serializable image for snapshots / state transfer. *)
type image = {
  floor : int;  (** every seq ≤ floor has been executed (replies evicted) *)
  replies : (int * string) list;  (** executed seqs > floor, with replies *)
}

val create : unit -> t

val status : t -> int -> [ `New | `Cached of string | `Evicted ]
(** Classify a sequence number: not yet executed, executed with the reply
    still cached, or executed so long ago the reply was evicted. *)

val record : t -> window:int -> int -> string -> unit
(** Record an executed operation. Evicts cached replies to keep at most
    [window] of them, advancing the floor. The floor only advances along
    fully-executed prefixes, so [`New] is never misreported. O(log n) in
    the cached replies plus O(log n) per evicted one: the window test reads
    a kept count, never the cache's size. *)

val max_seq : t -> int
(** Highest executed sequence number (0 if none). *)

val export : t -> image

val import : image -> t

val cached_count : t -> int
(** Number of cached replies, in O(1): [List.length (export t).replies]. *)

val copy : t -> t
(** Independent snapshot of the session, in O(1): it shares the immutable
    map and starts with stale bytes, so cloning a state with many sessions
    (the deep model checker's branching) costs no byte copy. *)

val image_size : t -> int
(** Bytes {!write_image} writes. Rebuilds stale bytes first. *)

val write_image : Cp_proto.Codec.cursor -> t -> unit
(** Write [varint floor | varint count | reply*]: exactly what a snapshot's
    session record holds after the client id for [export t] (see
    {!Cp_proto.Codec.encode_stable_snapshot_with}). A copy of the kept
    bytes; stale bytes are rebuilt first. *)
