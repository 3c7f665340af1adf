(** Explicit-state checking of the {e reconfiguration} core: two log
    instances with α = 1, where the entry chosen at instance 0 determines
    the configuration (and hence quorum system) of instance 1.

    This is the part of Cheap Paxos beyond ordinary Paxos: removing a main
    shrinks the acceptor set, and a proposer that guesses the configuration
    of instance 1 — instead of deriving it from the {e chosen} entry at
    instance 0 and acquiring phase-1 coverage of it — can choose a second
    value at instance 1 through a quorum that does not intersect the first
    (e.g. the shrunk set [{0}] vs the old majority [{1,2}]).

    [check ~discipline:`Derived_config] explores every interleaving of a
    message-soup semantics and must find no violation;
    [check ~discipline:`Assumed_config] is the mutation that skips the
    wait-for-chosen + coverage rule and must produce the dual-choice
    counterexample. The test suite runs both. *)

(** How a proposer decides it may propose at instance 1. *)
type discipline =
  [ `Derived_config
    (** wait until instance 0 is chosen; derive instance 1's config from
        the chosen entry; require phase-1 promises covering a quorum of
        that config (the implementation's α-window + abdication rule) *)
  | `Assumed_config
    (** propose at instance 1 as soon as phase 1 completes, assuming the
        configuration implied by one's {e own} proposal at instance 0 —
        the broken shortcut *) ]

type spec = {
  (* Proposer p uses ballot p (its index); [v0] is what it wants at
     instance 0 ([`Reconfig] removes main 1), [v1] at instance 1. *)
  proposals : ([ `Reconfig | `Value of int ] * int) list;
  discipline : discipline;
}

type result = {
  states : int;
  violation : string option;
  max_depth : int;
}

val check : ?max_states:int -> spec -> result
(** f = 1 model: mains [{0,1}], auxiliary [{2}]; removing main 1 yields the
    acceptor set [{0}]. Exhaustive BFS (default cap 4M states). *)
