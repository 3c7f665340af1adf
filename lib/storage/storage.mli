(** The storage signature: pluggable durable key-value stores for replicas.

    The engine's effect interpreter persists the acceptor header, one record
    per vote, chosen log entries, and snapshots through the packed value
    {!t}; backends ({!Mem}, {!Wal}, {!Faulty}) are interchangeable instances
    of {!S}. Values are bytes — typed encoding
    happens above this layer (see the stable-record codecs in
    {!Cp_proto.Codec}).

    Durability contract: [put]/[remove] order records; [flush] makes them
    durable. The runtime hosting a replica flushes once per delivery burst
    (everything the node handled before it yields), before any send from
    that burst can be observed — the group-commit rule — so a WAL backend
    pays one fsync per burst, not one per protocol step or record. A flush
    with nothing new to sync costs nothing. *)

type stats = {
  writes : int;  (** [put] calls through this view *)
  bytes_written : int;  (** value bytes across those puts *)
  bytes_used : int;  (** live footprint of this view (value bytes) *)
  fsyncs : int;  (** durable syncs of the underlying device (root-wide) *)
  bytes_appended : int;  (** physical log bytes incl. framing (root-wide) *)
  segments : int;  (** live segment files (0 for memory backends) *)
  recovery_ms : float;  (** time spent rebuilding the index on open *)
}

type view_counters = { mutable vc_writes : int; mutable vc_bytes : int }
(** Per-view write counters, registered by backends under the view's
    resolved prefix so that re-deriving a view with the same name returns
    the same cell (counters survive re-derivation). *)

val register_view : (string, view_counters) Hashtbl.t -> prefix:string -> view_counters

val check_view_name : string -> unit
(** Raises [Invalid_argument] if the name contains a NUL byte (the
    namespace separator). *)

module type S = sig
  type t

  val backend : t -> string

  val put : t -> string -> string -> unit

  val get : t -> string -> string option

  val remove : t -> string -> unit

  val mem : t -> string -> bool

  val keys : t -> string list

  val sub : t -> name:string -> t

  val flush : t -> unit

  val wipe : t -> unit

  val stats : t -> stats

  val close : t -> unit
end

type t = Packed : (module S with type t = 'a) * 'a -> t

(** {1 Forwarders} — call sites read like a plain module. *)

val backend : t -> string

val put : t -> string -> string -> unit

val get : t -> string -> string option

val remove : t -> string -> unit

val mem : t -> string -> bool

val keys : t -> string list

val sub : t -> name:string -> t

val flush : t -> unit

val wipe : t -> unit

val stats : t -> stats

val close : t -> unit

val bytes_used : t -> int

val write_count : t -> int

val bytes_written : t -> int

val counter_list : t -> (string * int) list
(** Stats as metric counters ([storage_writes], [storage_fsyncs],
    [storage_bytes_appended], [storage_segments], [storage_recovery_ms],
    ...) for Prometheus rendering. *)
