(** The simulated fleet: N key-sharded Cheap Paxos groups on one machine
    set, with routed clients.

    Mirrors {!Cp_runtime.Cluster} — same machine universe, deterministic
    engine, faults, metrics — but every machine hosts a {!Group_mux} of
    [groups] independent replicas, and each client command is tagged with
    its key's group id by the {!Router} before it leaves the client. *)

open Cp_proto

type t

val create :
  ?seed:int ->
  ?net:Cp_sim.Netmodel.t ->
  ?params:Cp_engine.Params.t ->
  ?proc_time:float ->
  ?spare_mains:int ->
  ?obs:bool ->
  ?router:Router.t ->
  ?storage:(int -> Cp_storage.Storage.t) ->
  groups:int ->
  policy:Cp_engine.Policy.t ->
  initial:Config.t ->
  app:(module Appi.S) ->
  unit ->
  t
(** [router] defaults to the striped {!Router.create}[ ~groups ()]; a
    supplied router must not map any slot to a group id [>= groups]. Other
    parameters as in {!Cp_runtime.Cluster.create}. Each machine's
    {!Group_mux} quantizes timers to a 0.25 ms wheel tick. *)

val engine : t -> (int * Types.msg) Cp_sim.Engine.t

val router : t -> Router.t

val groups : t -> int

val mux : t -> int -> Group_mux.t

val replica : t -> int -> gid:int -> Cp_engine.Replica.t

val mains : t -> int list

val auxes : t -> int list

val add_client :
  t ->
  ?timeout:float ->
  ?think:float ->
  ?contacts:int list ->
  ?is_read:(string -> bool) ->
  ops:(int -> string option) ->
  unit ->
  int * Cp_smr.Client.t
(** A closed-loop {!Cp_smr.Client} whose sends are routed per-command: the
    op's key picks the group. Reads ([is_read]) use the per-group lease
    fast path exactly as in a single-group cluster. *)

val crash : t -> int -> unit

val restart : t -> ?wipe:bool -> int -> unit

val run : ?until:float -> t -> unit

val now : t -> float

val run_until : t -> ?step:float -> deadline:float -> (unit -> bool) -> bool

val leader : t -> gid:int -> int option
(** The machine currently leading group [gid], if any. *)

val metric : t -> int -> string -> int
(** Machine-level engine metric (all groups pooled). *)

val group_metric : t -> int -> gid:int -> string -> int
(** One group's metric on one machine (0 for unknown machines). *)

val sum_group_metric : t -> ids:int list -> gid:int -> string -> int

val aux_group_recv : t -> (int * int * int) list
(** [(aux machine, gid, messages received by that group on that aux)] for
    every auxiliary × group — each count stays at the few frames of the
    group's initial election in a steady failure-free run. *)
