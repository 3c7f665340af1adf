(** Assemble a replicated cluster on the simulator.

    A cluster is an engine plus one replica per machine and any number of
    clients. Machine ids follow the {!Cp_proto.Config} convention (mains,
    then auxiliaries, then spare mains); client ids start at 1000. *)

open Cp_proto

type t

val create :
  ?seed:int ->
  ?net:Cp_sim.Netmodel.t ->
  ?params:Cp_engine.Params.t ->
  ?proc_time:float ->
  ?spare_mains:int ->
  ?obs:bool ->
  ?storage:(int -> Cp_storage.Storage.t) ->
  policy:Cp_engine.Policy.t ->
  initial:Config.t ->
  app:(module Appi.S) ->
  unit ->
  t
(** [spare_mains] adds that many main-class machines beyond the initial
    configuration (ids continue after the aux pool); they boot as standby
    followers outside the configuration and join via [Add_main] when a
    failure degrades the config — the paper's replacement machines.
    [proc_time] gives every machine a single CPU costing that many seconds
    per message sent or received (see {!Cp_sim.Engine.create}); omit it for
    infinite capacity.

    [obs] (default true) is passed to {!Cp_sim.Engine.create}: [false]
    disables event rings and causal trace ids without perturbing the
    simulation schedule. Client submissions are registered as fresh-trace
    messages, so every command gets its own cross-node trace id. *)

val engine : t -> Types.msg Cp_sim.Engine.t

val replica : t -> int -> Cp_engine.Replica.t
(** Current incarnation of the machine's replica (changes across restarts). *)

val mains : t -> int list
(** All main-class machine ids, including spares. *)

val config_mains : t -> int list
(** Mains of the initial configuration (the usual client contact list). *)

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
(** Returns the client's node id and handle. [contacts] overrides the
    replica contact list (defaults to the initial configuration's mains). *)

val add_open_client :
  t ->
  ?timeout:float ->
  rate:float ->
  ?max_outstanding:int ->
  ops:(int -> string option) ->
  unit ->
  int * Cp_smr.Open_client.t
(** Open-loop (Poisson-arrival) client; see {!Cp_smr.Open_client}. *)

val crash : t -> int -> unit

val restart : t -> ?wipe:bool -> int -> unit

val run : ?until:float -> t -> unit

val run_until : t -> ?step:float -> deadline:float -> (unit -> bool) -> bool
(** Advance simulated time in [step] increments (default 10 ms) until the
    condition holds or [deadline] passes; returns whether it held. *)

val now : t -> float

val leader : t -> int option
(** The currently-up main that believes it is leader, if any. *)

val metric : t -> int -> string -> int

val sum_metric : t -> ids:int list -> string -> int

val series : t -> int -> string -> float list
