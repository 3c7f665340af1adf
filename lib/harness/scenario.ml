open Cp_proto
module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Inspect = Cp_runtime.Inspect
module Client = Cp_smr.Client

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
  faults : (float * Faults.event) list;
  deadline : float;
  spare_mains : int;
  proc_time : float option;
  obs : bool;
}

let per_command_params =
  {
    Cp_engine.Params.default with
    Cp_engine.Params.batch_max_cmds = 1;
    batch_max_bytes = 65536;
    pipeline_window = 32;
  }

let default_spec ~sys =
  {
    sys;
    seed = 1;
    net = Cp_sim.Netmodel.lan;
    params = per_command_params;
    clients = 1;
    ops_per_client = 200;
    think = 0.;
    app = (module Cp_smr.Counter);
    mk_ops = (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:200 seq);
    is_read = (fun _ -> false);
    faults = [];
    deadline = 10.;
    spare_mains = 0;
    proc_time = None;
    obs = true;
  }

type result = {
  cluster : Cluster.t;
  client_handles : (int * Client.t) list;
  completed : int;
  finished : bool;
  wall : float;
}

let policy_and_config = function
  | Cheap f -> (Cheap_paxos.Cheap.policy, Cheap_paxos.Cheap.initial_config ~f)
  | Classic f -> (Cp_engine.Policy.classic, Config.classic ~n:((2 * f) + 1))

let run spec =
  let policy, initial = policy_and_config spec.sys in
  let cluster =
    Cluster.create ~seed:spec.seed ~net:spec.net ~params:spec.params
      ?proc_time:spec.proc_time ~spare_mains:spec.spare_mains ~obs:spec.obs ~policy ~initial
      ~app:spec.app ()
  in
  Faults.schedule cluster spec.faults;
  let client_handles =
    List.init spec.clients (fun i ->
        Cluster.add_client cluster ~think:spec.think ~is_read:spec.is_read
          ~ops:(spec.mk_ops ~client_idx:i) ())
  in
  let all_done () = List.for_all (fun (_, c) -> Client.is_finished c) client_handles in
  let finished = Cluster.run_until cluster ~deadline:spec.deadline all_done in
  let completed =
    List.fold_left (fun acc (_, c) -> acc + Client.done_count c) 0 client_handles
  in
  { cluster; client_handles; completed; finished; wall = Cluster.now cluster }

let machine_ids r = Cluster.mains r.cluster @ Cluster.auxes r.cluster

let main_ids r = Cluster.mains r.cluster

let aux_ids r = Cluster.auxes r.cluster

let replica_msgs r ~kinds =
  List.fold_left
    (fun acc kind -> acc + Cluster.sum_metric r.cluster ~ids:(machine_ids r) ("sent." ^ kind))
    0 kinds

let aux_msgs_received r = Cluster.sum_metric r.cluster ~ids:(aux_ids r) "msgs_recv"

let protocol_msgs_per_commit r =
  if r.completed = 0 then nan
  else
    float_of_int (replica_msgs r ~kinds:[ "p2a"; "p2b"; "commit" ])
    /. float_of_int r.completed

let client_latencies r =
  List.concat_map (fun (id, _) -> Cluster.series r.cluster id "latency") r.client_handles

let throughput r = if r.wall > 0. then float_of_int r.completed /. r.wall else 0.

let safety r = Inspect.check_safety r.cluster

let trace r = Inspect.trace_dump r.cluster

let aux_quiescent ?after ?before r = Inspect.aux_quiescent ?after ?before r.cluster

let span_summaries r =
  List.filter_map
    (fun name ->
      let samples =
        List.concat_map (fun id -> Cluster.series r.cluster id name) (main_ids r)
      in
      if samples = [] then None else Some (name, Cp_util.Stats.summarize samples))
    Cp_obs.Span.phases
