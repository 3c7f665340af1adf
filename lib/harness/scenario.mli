(** Shared experiment machinery: build a cluster for one of the two systems,
    drive it with clients, apply a fault script, and collect the measurements
    every experiment needs. *)

open Cp_proto

(** Which system to deploy. [Cheap f] tolerates [f] faults with [f+1] mains
    and [f] auxiliaries; [Classic f] is plain Multi-Paxos on [2f+1] full
    replicas — the same hardware, all of it working. *)
type sys = Cheap of int | Classic of int

type spec = {
  sys : sys;
  seed : int;
  net : Cp_sim.Netmodel.t;
  params : Cp_engine.Params.t;
  clients : int;
  ops_per_client : int;
  think : float;
  app : (module Appi.S);
  mk_ops : client_idx:int -> int -> string option;
  is_read : string -> bool;
      (** ops submitted as [ClientRead] (lease fast-path candidates); default
          never — everything takes the ordered path *)
  faults : (float * Cp_runtime.Faults.event) list;
  deadline : float;
  spare_mains : int;
  proc_time : float option;  (** per-message CPU cost; None = infinite capacity *)
  obs : bool;
      (** tracing on (default): event rings + causal trace ids. [false]
          runs the identical simulation without recording — the bench's
          obs-overhead baseline. *)
}

val per_command_params : Cp_engine.Params.t
(** {!Cp_engine.Params.default} with batching off: one command per instance
    ([batch_max_cmds = 1], [batch_max_bytes = 65536]) and a pipeline of 32.
    The simulator's claims count messages, instances and throughput per
    command, so every experiment and golden runs on these unless it sets
    its own batching. *)

val default_spec : sys:sys -> spec
(** Counter app, 1 client, 200 ops, LAN, no faults, 10 s deadline, and
    {!per_command_params}. *)

type result = {
  cluster : Cp_runtime.Cluster.t;
  client_handles : (int * Cp_smr.Client.t) list;
  completed : int;  (** operations completed across clients *)
  finished : bool;  (** all clients finished before the deadline *)
  wall : float;  (** simulated time when the run stopped *)
}

val run : spec -> result

(** {1 Measurement helpers} *)

val machine_ids : result -> int list

val main_ids : result -> int list

val aux_ids : result -> int list

val aux_msgs_received : result -> int

val protocol_msgs_per_commit : result -> float
(** (p2a + p2b + commit) sent across machines, per completed client op. *)

val client_latencies : result -> float list

val throughput : result -> float
(** completed ops / simulated duration. *)

val safety : result -> (unit, string) Stdlib.result

val trace : result -> Cp_obs.Trace.record list
(** Merged cluster-wide event trace (see {!Cp_runtime.Inspect.trace_dump}). *)

val aux_quiescent :
  ?after:float -> ?before:float -> result -> (unit, string) Stdlib.result
(** Trace-checked auxiliary quiescence over the window (default: whole run). *)

val span_summaries : result -> (string * Cp_util.Stats.summary) list
(** Command-latency span percentiles — one summary per
    {!Cp_obs.Span.phases} name that collected samples, across mains. *)
