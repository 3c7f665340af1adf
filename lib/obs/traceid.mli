(** Trace identifiers and the per-node ambient trace context.

    A trace id is a plain [int] correlating every event one protocol
    instance / client command causes across the cluster. The runtimes own
    propagation: they stamp the node's {e current} id on emitted records,
    copy it onto outgoing messages, and {!adopt} the id carried by an
    incoming message before invoking the handler. [0] means "no trace". *)

val none : int
(** The null trace id (untraced record / old-format frame). *)

val origin_of : int -> int
(** The node that minted an id. Ids never collide across origins (for
    fewer than 2{^24} mints per origin) and are never 0. *)

val group_stride : int
(** 4096: plain origins below it and namespaced origins at or above it are
    disjoint ranges. *)

val namespace : node:int -> group:int -> int
(** A synthetic origin for replica group [group] hosted on machine [node],
    disjoint from every plain node origin and every other (node, group)
    pair — the fleet mints each group's timer-driven chains from this, so
    {!Obs.Timeline} joins stay unambiguous with many groups per process.
    [group] must be in [0, 4094]. *)

val split_origin : int -> int * int option
(** Invert {!namespace}: [(node, Some group)] for namespaced origins,
    [(origin, None)] for plain ones. *)

type t
(** Mutable per-node context: the current id plus a mint counter. Owned by
    the runtime; survives crash/restart of the node's protocol state. *)

val create : origin:int -> t

val current : t -> int
(** The id to stamp on emissions and sends right now; {!none} if the node
    is outside any traced causal chain. *)

val mint : t -> int
(** Start a fresh trace: bump the counter, set it current, return it. *)

val adopt : t -> int -> unit
(** Enter the causal chain of a delivered message: set its id current, or
    mint a fresh one if the message was untraced ([none]). *)

val set : t -> int -> unit

val clear : t -> unit
(** Back to {!none} — used on crash/restart so stale ids don't leak into
    the next incarnation's records. *)
