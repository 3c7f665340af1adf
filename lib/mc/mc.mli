(** Explicit-state model checker for the single-decree quorum core.

    Cheap Paxos's safety rests on one fact: the mains-only fast path and the
    widened majority path are both quorums of the same quorum system, so any
    two intersect. This module checks that fact {e exhaustively} on small
    models: it explores every interleaving of a message-soup semantics of
    single-decree Paxos (asynchrony, loss, reordering, and stale deliveries
    are all subsumed by the soup), and verifies the agreement invariant in
    every reachable state.

    The quorum system is a parameter, so the checker doubles as a mutation
    test: feeding it a non-intersecting quorum system (e.g. "any f
    acceptors") must produce a counterexample — demonstrating that the
    checker can actually fail. The test suite does both.

    Vote {e histories} (every (ballot, value) an acceptor ever accepted) are
    tracked instead of current votes, so chosen-ness is stable and the
    per-state invariant catches cross-time disagreement as well. *)

type spec = {
  n_acceptors : int;
  quorums : int list list;  (** acceptor index sets allowed as quorums *)
  proposals : (int * int) list;
      (** one proposer per element: (ballot, value); ballots must be
          distinct. Proposers propose their value at their ballot, after a
          phase-1 exchange. *)
}

val majorities : n:int -> int list list
(** All subsets of [0..n-1] of size [n/2 + 1] — the Cheap Paxos quorum
    system over its [2f+1] acceptors (of which the mains are one member). *)

val cheap_quorums : f:int -> int list list
(** The quorums Cheap Paxos actually uses: the mains-only set
    [{0..f}] plus every majority — semantically equal to {!majorities}
    restricted to the sets the protocol can form. *)

type result = {
  states : int;  (** distinct states explored *)
  violation : string option;  (** None = invariant holds everywhere *)
  max_depth : int;
}

val check : ?max_states:int -> spec -> result
(** Breadth-first exhaustive exploration ([max_states] is a safety valve,
    default 2_000_000; hitting it reports a violation-free but truncated
    search via [states = max_states]). *)
