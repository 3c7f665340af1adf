(** Deep checking: explicit-state exploration of the {e real} replica core.

    Where {!Mc} and {!Mc_multi} verify hand-written abstractions of the
    quorum and reconfiguration arguments, this checker drives the
    production transition function itself — {!Cp_engine.Core.step}, the
    code both the simulator and the UDP runtime execute — under a
    message-soup semantics: sent messages accumulate in a monotone set
    (loss = never delivering, reordering and duplication are free), and
    time advances only through bounded explicit tick transitions.

    The model is f = 1 (mains [{0, 1}], auxiliary [{2}]) with a few client
    commands seeded to both mains; election fuzz is zeroed and the
    follower/suspect timeouts pushed out of reach, so the explored
    nondeterminism is exactly message asynchrony while the sub-tick
    heartbeat/retransmit/widen periods let tick transitions exercise the
    auxiliary-widening and retransmission paths.

    The invariant checked in every reachable state: any two mains that both
    consider an instance chosen hold the same entry there, each node's
    acceptor invariant holds, and no step raises [Log.Conflict]. *)

type spec = {
  n_commands : int;  (** client commands seeded into the soup *)
  max_ticks : int;  (** bound on tick transitions along any path *)
}

val default_spec : spec
(** [{ n_commands = 2; max_ticks = 4 }]. *)

type result = {
  states : int;  (** distinct worlds explored *)
  violation : string option;  (** [None] = invariant holds everywhere *)
  max_depth : int;
}

val check : ?max_states:int -> ?spec:spec -> unit -> result
(** Breadth-first exploration. [max_states] (default 50_000) is the search
    budget: hitting it ends the run violation-free but truncated (the state
    space of the real replica is effectively unbounded — this is a bounded
    refutation search, not a proof). *)
