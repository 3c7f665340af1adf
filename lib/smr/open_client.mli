(** Open-loop client: operations arrive at Poisson times regardless of
    completions, as real front-end traffic does. Unlike the closed-loop
    {!Client}, offered load is independent of latency, so pushing the rate
    past the cluster's capacity exhibits the classic latency hockey stick
    (experiment E13).

    Each in-flight operation gets its own sequence number and is retried on
    timeout. A retry moves to the next main only when the current contact
    has sent nothing (no reply, no redirect) for a full timeout since it
    became the contact, so a leader named by a redirect keeps the traffic.
    Completions are recorded like {!Client}'s (metrics series
    ["latency"]/["done_at"], counter ["ops_done"]). The number of distinct
    outstanding operations is capped to keep overload runs bounded. *)

open Cp_proto

type t

val create :
  Types.msg Cp_sim.Engine.ctx ->
  mains:int list ->
  timeout:float ->
  rate:float ->
  ?max_outstanding:int ->
  ops:(int -> string option) ->
  unit ->
  t
(** [rate] is the mean arrival rate (ops/second); inter-arrival times are
    exponential, drawn from the node's RNG. [max_outstanding] (default 64)
    drops new arrivals while that many are unacknowledged (counted in the
    ["shed"] metric). [ops seq] as in {!Client}. *)

val handlers : t -> Types.msg Cp_sim.Engine.handlers

val done_count : t -> int

val is_finished : t -> bool
(** All generated operations completed (the generator returned [None] and
    nothing is outstanding). *)
