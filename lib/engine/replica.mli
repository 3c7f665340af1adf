(** The replica: one machine of a Paxos-replicated state machine.

    A {e Main} machine runs proposer, acceptor, learner, and the application;
    an {e Aux} machine runs only the acceptor and is entirely reactive — it
    sets no timers and sends no message except in reply to one it receives.
    Under {!Policy.classic} every machine is a Main and the configuration is
    static; under the Cheap policy ([Cheap_paxos.policy]) phase 2 targets the
    mains only, auxiliaries are engaged when a main stalls, and membership is
    adjusted through the log with [Remove_main]/[Add_main].

    The module is written against {!Cp_sim.Engine.ctx}, so replicas run on
    the simulator; all protocol logic is independent of the engine beyond
    that capability record. *)

open Cp_proto

type role = Main | Aux

type t

val create :
  Types.msg Cp_sim.Engine.ctx ->
  role:role ->
  policy:Policy.t ->
  params:Params.t ->
  initial:Config.t ->
  universe_mains:int list ->
  universe_auxes:int list ->
  app:(module Appi.S) ->
  t
(** Build (or rebuild after a crash — state is recovered from the ctx's
    stable storage) the replica for machine [ctx.self].

    [universe_mains]/[universe_auxes] are the {e machine classes} of every
    id that may ever appear, including spares not in [initial]; the initial
    configuration's mains/auxes must be drawn from them. On first boot the
    smallest main of [initial] immediately starts a round-0 candidacy so
    that experiments begin with a leader. *)

val handlers : t -> Types.msg Cp_sim.Engine.handlers
(** The message/timer handlers to register with the engine. *)

(** {1 Introspection} (tests, checkers, and the harness) *)

val role : t -> role

val is_leader : t -> bool

val current_ballot : t -> Ballot.t option
(** The ballot this replica is leading or campaigning with. *)

val leader_hint : t -> int

val prefix : t -> int
(** Contiguous chosen prefix of the log (Mains; 0 for Aux). *)

val executed : t -> int

val latest_config : t -> Config.t

val config_timeline : t -> (int * Config.t) list

val log_range : t -> lo:int -> hi:int -> (int * Types.entry) list

val log_base : t -> int

val session_of : t -> int -> (int * string) option
(** Last executed (seq, reply) for a client. *)

val sessions : t -> (int * Session.image) list
(** Every client session's {!Session.export}, by client id. *)

val acceptor_vote_count : t -> int

val acceptor_floor : t -> int

val acceptor_promised : t -> Ballot.t

val fingerprint : t -> string
(** Canonical digest of the replica's full protocol state
    ({!State.fingerprint}) — equal iff two replicas are in the same state.
    The storage conformance suite uses it to check that recovery from
    different backends reconstructs identical replicas. *)
