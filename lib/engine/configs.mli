(** The configuration timeline: which {!Cp_proto.Config.t} governs which log
    instance.

    Lamport's α-window rule: a reconfiguration command chosen (and hence
    executed, since execution is in instance order) at instance [j] takes
    effect at instance [j + alpha]. Reconfigurations are applied
    sequentially, each to the latest configuration, so overlapping changes
    within the window compose in log order on every replica. *)

type t

val create : alpha:int -> initial:Cp_proto.Config.t -> t

val alpha : t -> int

val config_for : t -> int -> Cp_proto.Config.t
(** Configuration governing instance [i]. *)

val latest : t -> Cp_proto.Config.t

val apply_at : t -> at:int -> Cp_proto.Types.reconfig -> Cp_proto.Config.t option
(** Apply a reconfiguration executed at instance [at]; effective from
    [at + alpha]. [None] if the command is a no-op (removing a non-main or
    the last main, adding an existing main) — every replica rejects it
    identically, so determinism is preserved. *)

val covering : t -> low:int -> Cp_proto.Config.t list
(** All configurations governing any instance ≥ [low] (the ones a leader
    candidate must gather phase-1 quorums from), ascending by epoch. *)

val for_all_covering : t -> low:int -> (Cp_proto.Config.t -> bool) -> bool
(** [for_all_covering t ~low p] is [List.for_all p (covering t ~low)],
    without building the list. *)

val export : t -> next:int -> Cp_proto.Config.t * (int * Cp_proto.Config.t) list
(** For a snapshot at [next]: the config in force at [next] plus later
    scheduled changes as [(effective_from, cfg)]. *)

val import :
  t -> base:Cp_proto.Config.t -> at:int -> pending:(int * Cp_proto.Config.t) list -> unit
(** Install a snapshot's view: [base] governs from [at]. *)

val timeline : t -> (int * Cp_proto.Config.t) list
(** [(effective_from, cfg)] pairs, ascending — for tests and display. *)

val copy : t -> t
(** Independent snapshot of the timeline. *)
