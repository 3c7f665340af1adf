(** N independent Cheap Paxos groups multiplexed behind one engine node.

    Each group is a full {!Cp_engine.Replica} built over a fabricated
    per-group [Engine.ctx]: sends are tagged [(gid, msg)] onto the shared
    transport, timers share one {!Wheel} behind a {e single} engine timer
    (O(1) engine-side timer load however many groups are hosted), stable
    storage is a per-group {!Cp_storage.Storage.sub} view of the machine's disk,
    and timer-driven causal chains mint from the group's
    {!Cp_obs.Traceid.namespace}d origin. Messages for unknown group ids
    are counted ([mux_unknown_group]) and dropped. *)

open Cp_proto

type t

val create :
  (int * Types.msg) Cp_sim.Engine.ctx ->
  groups:int ->
  role:Cp_engine.Replica.role ->
  policy:Cp_engine.Policy.t ->
  params:Cp_engine.Params.t ->
  initial:Config.t ->
  universe_mains:int list ->
  universe_auxes:int list ->
  app:(module Appi.S) ->
  unit ->
  t
(** Build (or rebuild after a crash — each group recovers from its storage
    namespace) the [groups] replicas of machine [ctx.self]. Every group gets
    a fresh instance of [app]. The timer wheel's 0.25 ms tick bounds how
    late a protocol timer can fire. *)

val handlers : t -> (int * Types.msg) Cp_sim.Engine.handlers

val replica : t -> int -> Cp_engine.Replica.t
(** Group [gid]'s replica on this machine. *)

val group_metrics : t -> int -> Cp_sim.Metrics.t
(** Group [gid]'s protocol metrics on this machine, including [mux_recv] /
    [recv.<kind>] delivery counters — the per-group auxiliary-quiescence
    evidence. *)
