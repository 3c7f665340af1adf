(** Log entries, reconfiguration commands, and wire messages. *)

(** A command submitted by a client. [op] is the application-specific
    operation, already serialized; [(client, seq)] identifies it for
    at-most-once execution. *)
type command = { client : int; seq : int; op : string }

(** A reconfiguration command, executed through the replicated log itself.
    It takes effect α instances after the instance at which it is chosen. *)
type reconfig =
  | Remove_main of int
  | Add_main of int

(** What a log instance can decide. [Noop] is used by a new leader to fill
    gaps left by its predecessor; [Batch] packs several client commands into
    one instance (the leader batches when [Params.batch_max_cmds > 1], up to
    [Params.batch_max_bytes] of payload), executed in list order. *)
type entry =
  | Noop
  | App of command
  | Batch of command list
  | Reconfig of reconfig

type vote = { vballot : Ballot.t; ventry : entry }

(** Snapshot shipped during catch-up / state transfer: everything a fresh or
    lagging main needs to resume from [next_instance]. *)
type snapshot = {
  next_instance : int;  (** all instances below are included in the state *)
  app_state : string;
  sessions : (int * (int * (int * string) list)) list;
      (** client -> (floor, cached replies above it); see
          [Cp_engine.Session] — the windowed at-most-once state *)
  base_config : Config.t;  (** config in force at [next_instance] *)
  pending_configs : (int * Config.t) list;  (** (effective_from, cfg) beyond it *)
}

type msg =
  | P1a of { ballot : Ballot.t; low : int }
      (** Leader candidate → acceptors; asks for votes at instances ≥ [low]. *)
  | P1b of {
      ballot : Ballot.t;
      from : int;
      votes : (int * vote) list;  (** accepted votes at instances ≥ requested low *)
      compacted_upto : int;
          (** the acceptor holds no vote data below this instance (auxiliary
              compaction); those instances are already chosen *)
    }
  | P1Nack of { ballot : Ballot.t; promised : Ballot.t }
  | P2a of { ballot : Ballot.t; instance : int; entry : entry }
  | P2b of { ballot : Ballot.t; instance : int; from : int }
  | P2Nack of { ballot : Ballot.t; instance : int; promised : Ballot.t }
  | Commit of { instance : int; entry : entry }
      (** Leader → learners: this instance is chosen. *)
  | CommitFloor of { upto : int }
      (** Leader → acceptors: all instances < [upto] are chosen; auxiliaries
          may compact their vote storage below it. *)
  | Heartbeat of { ballot : Ballot.t; commit_floor : int; sent_at : float }
      (** [sent_at] is echoed back in the ack; the leader computes its read
          lease from echoed send times, never from receipt times (a receipt
          time can postdate the follower's actual leader-contact instant). *)
  | HeartbeatAck of { ballot : Ballot.t; from : int; prefix : int; echo : float }
      (** [prefix] reports the sender's durable chosen prefix; the leader
          takes the minimum over all mains to compute the compaction floor
          it may safely announce to auxiliaries. [echo] returns the
          heartbeat's [sent_at] for lease accounting. *)
  | CatchupReq of { from : int; from_instance : int }
  | CatchupResp of {
      entries : (int * entry) list;
      snapshot : snapshot option;  (** sent when the requester is too far behind *)
    }
  | JoinReq of { from : int }
      (** A repaired machine announcing itself; the leader answers by
          proposing [Add_main] (Cheap policy only). *)
  | ClientReq of command
  | ClientRead of command
      (** A read-only operation. A leader holding a read lease executes it
          locally against its applied state — no log instance, no quorum;
          without a lease it falls back to the ordinary write path. The
          operation must not mutate application state. *)
  | ClientResp of { client : int; seq : int; result : string }
  | Redirect of { leader_hint : int }

val classify : msg -> string
(** Short constructor name, used as the metrics key. *)

val kind_index : msg -> int
(** The constructor's position in declaration order, in [0, Array.length
    kinds): [classify m = kinds.(kind_index m)]. Runtimes index per-kind
    counter arrays with it instead of building ["sent." ^ kind] names. *)

val kinds : string array
(** Every {!classify} name, indexed by {!kind_index}. *)

val size_of : msg -> int
(** Wire-size estimate in bytes (headers + payload), used for byte metrics. *)

val int_field : int
(** Bytes the size model charges per integer field (the codec's varints
    take at most this for any instance, ballot, client id or seq in use). *)

val command_size : command -> int
(** Wire-size estimate of one command's payload; the leader charges this
    against [Params.batch_max_bytes] when filling a batch. *)

val entry_size : entry -> int

val pp_entry : Format.formatter -> entry -> unit

val pp_msg : Format.formatter -> msg -> unit

val entry_equal : entry -> entry -> bool
