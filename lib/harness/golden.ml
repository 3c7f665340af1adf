(* Golden-trace scenarios: fixed seeded fault schedules whose complete typed
   event stream (every node's obs ring, merged canonically) is committed
   under test/golden/. They pin the replica's observable behaviour across
   refactors: the sans-IO split of the replica core must reproduce these
   streams byte for byte. Regenerate with `dune exec test/golden_gen.exe`
   only when a deliberate behaviour change is introduced, and say why in the
   commit. *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Workload = Cp_workload.Workload
module Rng = Cp_util.Rng

(* Merge every node's ring into one deterministic stream. [Obs.Trace.merge]
   is stable over the (hash-ordered) node list, so instead sort explicitly
   by (time, node, per-node emission index) — total and version-independent. *)
let canonical_records cluster =
  let eng = Cluster.engine cluster in
  let tagged =
    List.concat_map
      (fun id ->
        List.mapi
          (fun i r -> (r.Cp_obs.Trace.at, id, i, r))
          (Cp_obs.Trace.records (Cp_sim.Engine.trace eng id)))
      (Cp_sim.Engine.node_ids eng)
  in
  let sorted =
    List.sort
      (fun (a1, n1, i1, _) (a2, n2, i2, _) -> compare (a1, n1, i1) (a2, n2, i2))
      tagged
  in
  List.map (fun (_, _, _, r) -> r) sorted

let canonical_dump cluster = Cp_obs.Trace.to_jsonl (canonical_records cluster)

type case = { name : string; spec : Scenario.spec }

let base = Scenario.default_spec ~sys:(Scenario.Cheap 1)

(* Crash of a non-leader main under a lossy net, with batching on: covers
   widening, aux engagement, Remove_main/Add_main reconfig, batched pumping. *)
let failover_batch =
  {
    name = "failover_batch";
    spec =
      {
        base with
        seed = 11;
        net = { Cp_sim.Netmodel.lan with drop_prob = 0.02; dup_prob = 0.01 };
        params =
          {
            Scenario.per_command_params with
            batch_max_cmds = 4;
            batch_linger = 1e-3;
            pipeline_window = 8;
          };
        clients = 2;
        ops_per_client = 40;
        think = 1e-3;
        mk_ops = (fun ~client_idx:_ -> Workload.counter_ops ~count:40);
        faults = [ (0.02, Faults.Crash 1); (0.25, Faults.Restart 1) ];
        deadline = 1.5;
      };
  }

(* Leader crash with leases enabled and a read-heavy KV workload: covers
   lease acquisition/loss, local read serving, deferral fences, failover. *)
let lease_reads =
  {
    name = "lease_reads";
    spec =
      {
        base with
        seed = 22;
        params = { Scenario.per_command_params with enable_leases = true };
        clients = 2;
        ops_per_client = 30;
        think = 5e-4;
        app = (module Cp_smr.Kv);
        is_read = Cp_smr.Kv.read_only;
        mk_ops =
          (fun ~client_idx ->
            Workload.kv_ops
              ~rng:(Rng.create ((22 * 131) + client_idx))
              ~keys:8 ~read_ratio:0.7 ~count:30 ());
        faults = [ (0.05, Faults.Crash 0); (0.3, Faults.Restart 0) ];
        deadline = 1.5;
      };
  }

(* Leader partitioned away, healed, then the auxiliary crashes: covers
   step-down, re-election through the auxiliaries, catchup, compaction. *)
let partition_heal =
  {
    name = "partition_heal";
    spec =
      {
        base with
        seed = 33;
        params =
          { Scenario.per_command_params with pipeline_window = 8; snapshot_every = 32 };
        clients = 2;
        ops_per_client = 40;
        think = 1e-3;
        mk_ops = (fun ~client_idx:_ -> Workload.counter_ops ~count:40);
        faults =
          [
            (0.04, Faults.Partition [ [ 0 ] ]);
            (0.12, Faults.Heal);
            (0.2, Faults.Crash 2);
            (0.35, Faults.Restart 2);
          ];
        deadline = 1.5;
      };
  }

let cases = [ failover_batch; lease_reads; partition_heal ]

let dump_case case = canonical_dump (Scenario.run case.spec).Scenario.cluster

(* The same canonical record stream as Chrome trace-event JSON — the
   Perfetto-loadable artifact. Committed for [failover_batch] only (one
   snapshot pins the exporter's format; three would pin the same code
   thrice). *)
let dump_chrome case =
  Cp_obs.Timeline.to_chrome (canonical_records (Scenario.run case.spec).Scenario.cluster)

let file_of case = "golden/" ^ case.name ^ ".trace"

let chrome_file_of case = "golden/" ^ case.name ^ ".chrome"

(* Every endpoint's counters after a seeded replica cluster (two mains, an
   auxiliary, a 40-op client) commits over the ring fabric: one
   "<node> <counter> <value>" line each. Pins the counter names and values
   the transports, the replica and its profiler produce — under virtual
   time the profiler's durations are 0, so the dump is deterministic. *)
let ring_counters () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let mains = [ 0; 1 ] and auxes = [ 2 ] in
  let fab = Cp_transport.Ring.create ~seed:7 () in
  let replica id role =
    Cp_transport.Ring.add_node fab ~id ~build:(fun ctx ->
        Cp_engine.Replica.handlers
          (Cp_engine.Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
             ~params:Scenario.per_command_params ~initial ~universe_mains:mains
             ~universe_auxes:auxes ~app:(module Cp_smr.Counter)))
  in
  List.iter (fun id -> replica id Cp_engine.Replica.Main) mains;
  List.iter (fun id -> replica id Cp_engine.Replica.Aux) auxes;
  Cp_transport.Ring.add_node fab ~id:1000 ~build:(fun ctx ->
      Cp_smr.Client.handlers
        (Cp_smr.Client.create ctx ~mains ~timeout:0.2
           ~ops:(fun seq -> if seq <= 40 then Some (Cp_smr.Counter.inc 1) else None)
           ()));
  Cp_transport.Ring.run ~until:5. fab;
  let b = Buffer.create 4096 in
  List.iter
    (fun id ->
      List.iter
        (fun (name, v) -> Printf.bprintf b "%d %s %d\n" id name v)
        (Cp_sim.Metrics.counters (Cp_transport.Ring.metrics fab id)))
    (mains @ auxes @ [ 1000 ]);
  Buffer.contents b

let ring_counters_file = "golden/ring_counters.trace"
