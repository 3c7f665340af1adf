(* Benchmark entry point.

   Two parts:
   1. The evaluation tables (E1-E8): the paper has no measured tables or
      figures, so these regenerate the experiment suite that quantifies its
      analytical claims (DESIGN.md section 7), each printed with
      claim-vs-measured verdicts.
   2. Bechamel microbenchmarks of the core data structures and of an
      end-to-end simulated commit, so regressions in the hot paths are
      visible independently of the protocol-level numbers.

   `dune exec bench/main.exe` runs everything; pass `--quick` to shrink the
   sweeps (used in CI-style runs). *)

open Bechamel
open Toolkit

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let bench_rng =
  let rng = Cp_util.Rng.create 1 in
  Test.make ~name:"rng/int" (Staged.stage (fun () -> Cp_util.Rng.int rng 1000))

let bench_heap =
  Test.make ~name:"heap/push-pop-256"
    (Staged.stage (fun () ->
         let h = Cp_util.Heap.create ~cmp:compare in
         for i = 0 to 255 do
           Cp_util.Heap.push h ((i * 7919) mod 1024)
         done;
         let rec drain () = match Cp_util.Heap.pop h with Some _ -> drain () | None -> () in
         drain ()))

let bench_ballot =
  let a = Cp_proto.Ballot.make ~round:12 ~leader:3 in
  let b = Cp_proto.Ballot.make ~round:12 ~leader:4 in
  Test.make ~name:"ballot/compare" (Staged.stage (fun () -> Cp_proto.Ballot.compare a b))

let bench_acceptor =
  Test.make ~name:"acceptor/p2a-window"
    (Staged.stage (fun () ->
         let b = Cp_proto.Ballot.make ~round:0 ~leader:0 in
         let acc = ref (Cp_engine.Acceptor.create ()) in
         for i = 0 to 63 do
           let a, _ =
             Cp_engine.Acceptor.handle_p2a !acc ~ballot:b ~instance:i
               ~entry:Cp_proto.Types.Noop
           in
           acc := a
         done;
         acc := Cp_engine.Acceptor.compact !acc ~upto:64))

let bench_log =
  Test.make ~name:"log/add-chosen-256"
    (Staged.stage (fun () ->
         let log = Cp_engine.Log.create () in
         for i = 0 to 255 do
           ignore (Cp_engine.Log.add_chosen log i Cp_proto.Types.Noop)
         done))

let bench_quorum =
  let cfg = Cheap_paxos.Cheap.initial_config ~f:3 in
  let nodes = [ 0; 1; 2; 3 ] in
  Test.make ~name:"config/is-quorum"
    (Staged.stage (fun () -> Cp_proto.Config.is_quorum cfg nodes))

let bench_linearizability =
  (* A fixed 24-op, 2-client concurrent history. *)
  let history =
    List.concat
      (List.init 12 (fun i ->
           let t = float_of_int i in
           [
             (t, t +. 0.6, Printf.sprintf "PUT k %d" i, "OK");
             (t +. 0.3, t +. 0.9, "GET k", string_of_int i);
           ]))
  in
  Test.make ~name:"checker/linearizability-24ops"
    (Staged.stage (fun () ->
         match Cp_checker.Linearizability.check_kv history with
         | Ok b -> ignore b
         | Error e -> failwith e))

let bench_codec =
  (* Zero-copy frame encode of a typical phase-2 message into a reused
     buffer: the per-message cost of the wire codec on the UDP send path. *)
  let buf = Bytes.create 512 in
  let msg =
    Cp_proto.Types.P2a
      {
        ballot = Cp_proto.Ballot.make ~round:12 ~leader:3;
        instance = 4242;
        entry = Cp_proto.Types.App { client = 1007; seq = 93; op = "PUT k17 v_payload" };
      }
  in
  Test.make ~name:"codec/encode-p2a-into"
    (Staged.stage (fun () -> ignore (Cp_proto.Codec.encode_into buf ~pos:0 ~gid:0 ~tid:1 msg)))

let bench_commit =
  (* End-to-end: a fresh f=1 Cheap Paxos cluster commits 20 commands. *)
  Test.make ~name:"sim/20-commits-f1"
    (Staged.stage (fun () ->
         let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
         let cluster =
           Cp_runtime.Cluster.create ~seed:3 ~policy:Cheap_paxos.Cheap.policy ~initial
             ~app:(module Cp_smr.Counter) ()
         in
         let ops = Cp_workload.Workload.counter_ops ~count:20 in
         let _, client = Cp_runtime.Cluster.add_client cluster ~ops () in
         let ok =
           Cp_runtime.Cluster.run_until cluster ~deadline:5. (fun () ->
               Cp_smr.Client.is_finished client)
         in
         assert ok))

let microbenches =
  [
    bench_rng; bench_heap; bench_ballot; bench_acceptor; bench_log; bench_quorum;
    bench_linearizability; bench_codec; bench_commit;
  ]

let run_microbenches () =
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~kde:None ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table = Cp_util.Table.create ~header:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square est with Some r -> Printf.sprintf "%.4f" r | None -> "-"
          in
          let time =
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.1f ns" ns
          in
          Cp_util.Table.add_row table [ Test.Elt.name elt; time; r2 ])
        (Test.elements test))
    microbenches;
  Cp_util.Table.print ~title:"Microbenchmarks (bechamel, monotonic clock)" table

(* ------------------------------------------------------------------ *)
(* Observability snapshot: one fixed failure-free scenario's command-   *)
(* latency span percentiles and auxiliary traffic, written as JSON so   *)
(* successive bench runs can be diffed mechanically.                    *)
(* ------------------------------------------------------------------ *)

let write_obs_snapshot () =
  let module Scenario = Cp_harness.Scenario in
  let count = if quick then 100 else 400 in
  let spec =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      Scenario.seed = 42;
      ops_per_client = count;
      mk_ops = (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count seq);
    }
  in
  let r = Scenario.run spec in
  let spans = Scenario.span_summaries r in
  let summary_json (name, (s : Cp_util.Stats.summary)) =
    Printf.sprintf
      "    {\"phase\":%S,\"count\":%d,\"mean\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f}"
      name s.Cp_util.Stats.count s.Cp_util.Stats.mean s.Cp_util.Stats.p50
      s.Cp_util.Stats.p90 s.Cp_util.Stats.p99
  in
  let aux_recv_events =
    List.length
      (List.filter
         (fun (rc : Cp_obs.Trace.record) ->
           List.mem rc.Cp_obs.Trace.node (Scenario.aux_ids r)
           && match rc.Cp_obs.Trace.ev with Cp_obs.Event.Msg_recv _ -> true | _ -> false)
         (Scenario.trace r))
  in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"completed\": %d,\n" r.Scenario.completed;
  Printf.fprintf oc "  \"wall\": %.6f,\n" r.Scenario.wall;
  Printf.fprintf oc "  \"aux_msgs_received\": %d,\n" (Scenario.aux_msgs_received r);
  Printf.fprintf oc "  \"aux_recv_events\": %d,\n" aux_recv_events;
  Printf.fprintf oc "  \"protocol_msgs_per_commit\": %.3f,\n"
    (Scenario.protocol_msgs_per_commit r);
  Printf.fprintf oc "  \"spans\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map summary_json spans));
  close_out oc;
  Printf.printf "wrote BENCH_obs.json (%d ops, %d span phases, %d aux recv events)\n"
    r.Scenario.completed (List.length spans) aux_recv_events

(* ------------------------------------------------------------------ *)
(* Batching snapshot: the same offered load pushed through the leader   *)
(* with batching off and on, under the per-message CPU model (the       *)
(* regime batching exists for). Written as JSON so successive runs can  *)
(* be diffed; the >= 2x speedup is part of the bench verdict.           *)
(* ------------------------------------------------------------------ *)

let write_batch_snapshot () =
  let module Scenario = Cp_harness.Scenario in
  let clients = 48 in
  let per_client = if quick then 40 else 150 in
  let run ~batch =
    let params =
      if batch then
        {
          Cp_engine.Params.default with
          Cp_engine.Params.batch_max_cmds = 32;
          (* A shallow pipeline is what lets batches accumulate. *)
          pipeline_window = 2;
        }
      else
        { Cp_engine.Params.default with Cp_engine.Params.batch_max_cmds = 1 }
    in
    let spec =
      {
        (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
        Scenario.seed = 43;
        params;
        clients;
        ops_per_client = per_client;
        think = 0.;
        mk_ops =
          (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:per_client seq);
        proc_time = Some 10e-6;
        deadline = 60.;
      }
    in
    Scenario.run spec
  in
  let unbatched = run ~batch:false in
  let batched = run ~batch:true in
  let module S = Scenario in
  (* [r.wall] is quantized to the run_until step; the moment the last response
     arrived (the clients' "done_at" series) measures the run precisely. *)
  let duration r =
    List.fold_left
      (fun acc (id, _) ->
        List.fold_left max acc (Cp_runtime.Cluster.series r.S.cluster id "done_at"))
      0. r.S.client_handles
  in
  let tput r = float_of_int r.S.completed /. duration r in
  let speedup = tput batched /. tput unbatched in
  let safety_ok r = match S.safety r with Ok () -> true | Error _ -> false in
  let quiescent = match S.aux_quiescent batched with Ok () -> true | Error _ -> false in
  let side name r =
    Printf.sprintf
      "  %S: {\"completed\": %d, \"finished\": %b, \"wall\": %.6f, \"throughput\": %.1f, \
       \"safety_ok\": %b}"
      name r.S.completed r.S.finished r.S.wall (tput r) (safety_ok r)
  in
  let oc = open_out "BENCH_batch.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"clients\": %d,\n  \"ops_per_client\": %d,\n" clients per_client;
  Printf.fprintf oc "  \"proc_time\": 10e-6,\n";
  Printf.fprintf oc "%s,\n" (side "unbatched" unbatched);
  Printf.fprintf oc "%s,\n" (side "batched" batched);
  Printf.fprintf oc "  \"speedup\": %.3f,\n" speedup;
  Printf.fprintf oc "  \"aux_quiescent_batched\": %b\n" quiescent;
  Printf.fprintf oc "}\n";
  close_out oc;
  let ok =
    unbatched.S.finished && batched.S.finished && safety_ok unbatched
    && safety_ok batched && quiescent && speedup >= 2.0
  in
  Printf.printf
    "wrote BENCH_batch.json (unbatched %.0f ops/s, batched %.0f ops/s, speedup %.2fx, \
     aux quiescent: %b) -- %s\n"
    (tput unbatched) (tput batched) speedup quiescent
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Read fast-path snapshot: a 90/10 read/write kv mix with leases off   *)
(* (every read ordered through a log instance, so throughput is capped  *)
(* by the proposal pipeline) and on (reads answered from the leader's   *)
(* executed state, scaling with client count). The >= 5x read-workload  *)
(* speedup is part of the bench verdict, as is linearizability under    *)
(* randomized fault schedules that partition the leaseholder mid-lease. *)
(* ------------------------------------------------------------------ *)

let write_reads_snapshot () =
  let module S = Cp_harness.Scenario in
  let module Faults = Cp_runtime.Faults in
  (* Enough closed-loop clients to saturate the ordered path: log-ordered
     reads cap out at pipeline_window / commit-latency regardless of offered
     load, while lease reads keep scaling with client count (one client RTT
     each, no consensus instance). *)
  let clients = 384 in
  let per_client = if quick then 25 else 60 in
  let read_ratio = 0.9 in
  let duration (r : S.result) =
    List.fold_left
      (fun acc (id, _) ->
        List.fold_left max acc (Cp_runtime.Cluster.series r.S.cluster id "done_at"))
      0. r.S.client_handles
  in
  let tput r = float_of_int r.S.completed /. duration r in
  let safety_ok r = match S.safety r with Ok () -> true | Error _ -> false in
  let mains_metric (r : S.result) name =
    Cp_runtime.Cluster.sum_metric r.S.cluster ~ids:(S.main_ids r) name
  in
  let run ~leases =
    (* Batching off in both runs: the comparison isolates per-read ordering
       cost (one consensus instance per read) against the lease fast path;
       batch amortization is measured separately in BENCH_batch.json. *)
    let params =
      {
        Cp_engine.Params.default with
        Cp_engine.Params.enable_leases = leases;
        batch_max_cmds = 1;
      }
    in
    let spec =
      {
        (S.default_spec ~sys:(S.Cheap 1)) with
        S.seed = 44;
        params;
        clients;
        ops_per_client = per_client;
        app = (module Cp_smr.Kv);
        mk_ops =
          (fun ~client_idx ->
            (* Per-client RNG keyed only by the index, so both runs offer an
               identical workload. *)
            Cp_workload.Workload.kv_ops
              ~rng:(Cp_util.Rng.create (7000 + client_idx))
              ~keys:64 ~read_ratio ~count:per_client ());
        is_read = Cp_smr.Kv.read_only;
        deadline = 60.;
      }
    in
    S.run spec
  in
  let ordered = run ~leases:false in
  let leased = run ~leases:true in
  let speedup = tput leased /. tput ordered in
  let quiescent = match S.aux_quiescent leased with Ok () -> true | Error _ -> false in
  (* Wire cost per operation on each path, measured with the real codec. *)
  let wire msgs =
    List.fold_left (fun acc m -> acc + String.length (Cp_proto.Codec.encode m)) 0 msgs
  in
  let cmd = { Cp_proto.Types.client = 1007; seq = 93; op = "GET k17" } in
  let ballot = Cp_proto.Ballot.make ~round:1 ~leader:0 in
  let resp = Cp_proto.Types.ClientResp { client = 1007; seq = 93; result = "v_payload" } in
  let leased_read_bytes = wire [ Cp_proto.Types.ClientRead cmd; resp ] in
  let ordered_read_bytes =
    wire
      [
        Cp_proto.Types.ClientRead cmd;
        Cp_proto.Types.P2a { ballot; instance = 4242; entry = Cp_proto.Types.App cmd };
        Cp_proto.Types.P2b { ballot; instance = 4242; from = 1 };
        Cp_proto.Types.Commit { instance = 4242; entry = Cp_proto.Types.App cmd };
        resp;
      ]
  in
  (* Randomized fault schedules: partition the leaseholder (with some of its
     clients) away from the other main + auxiliary mid-lease; the cut-off
     side must stop serving reads once its lease can have expired, while the
     majority side elects through the auxiliary and commits writes. Verified
     by the linearizability checker over the merged client histories plus
     the trace-level no-stale-read checker (inside S.safety). *)
  let fault_run seed =
    let rng = Cp_util.Rng.create (900 + seed) in
    let t_part = 0.03 +. Cp_util.Rng.float rng 0.05 in
    let t_heal = t_part +. 0.05 +. Cp_util.Rng.float rng 0.05 in
    let params = { Cp_engine.Params.default with Cp_engine.Params.enable_leases = true } in
    let spec =
      {
        (S.default_spec ~sys:(S.Cheap 1)) with
        S.seed = seed;
        params;
        clients = 4;
        ops_per_client = 120;
        app = (module Cp_smr.Kv);
        mk_ops =
          (fun ~client_idx ->
            Cp_workload.Workload.kv_ops
              ~rng:(Cp_util.Rng.create (8000 + (100 * seed) + client_idx))
              ~keys:4 ~read_ratio ~count:120 ());
        is_read = Cp_smr.Kv.read_only;
        faults =
          [
            (* Clients 1000-1001 stay with the old leaseholder (node 0) and
               keep offering it reads; 1002-1003 follow the majority. *)
            (t_part, Faults.Partition [ [ 0; 1000; 1001 ]; [ 1; 2; 1002; 1003 ] ]);
            (t_heal, Faults.Heal);
          ];
        deadline = 30.;
      }
    in
    let r = S.run spec in
    let hist = List.concat_map (fun (_, c) -> Cp_smr.Client.history c) r.S.client_handles in
    let lin =
      match Cp_checker.Linearizability.check_kv hist with Ok b -> b | Error _ -> false
    in
    (seed, t_part, t_heal, r, lin)
  in
  let fault_seeds = if quick then [ 61; 62 ] else [ 61; 62; 63; 64 ] in
  let fault_runs = List.map fault_run fault_seeds in
  let fault_ok =
    List.for_all (fun (_, _, _, r, lin) -> r.S.finished && lin && safety_ok r) fault_runs
  in
  let side name r extra =
    Printf.sprintf
      "  %S: {\"completed\": %d, \"finished\": %b, \"throughput\": %.1f, \
       \"log_instances\": %d, \"safety_ok\": %b%s}"
      name r.S.completed r.S.finished (tput r) (mains_metric r "chosen") (safety_ok r)
      extra
  in
  let oc = open_out "BENCH_reads.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"clients\": %d,\n  \"ops_per_client\": %d,\n" clients per_client;
  Printf.fprintf oc "  \"read_ratio\": %.2f,\n  \"batch_max_cmds\": 1,\n" read_ratio;
  Printf.fprintf oc "%s,\n" (side "ordered" ordered "");
  Printf.fprintf oc "%s,\n"
    (side "leased" leased
       (Printf.sprintf ", \"lease_reads\": %d, \"lease_read_fallbacks\": %d"
          (mains_metric leased "lease_reads")
          (mains_metric leased "lease_read_fallbacks")));
  Printf.fprintf oc "  \"read_speedup\": %.3f,\n" speedup;
  Printf.fprintf oc "  \"aux_quiescent_leased\": %b,\n" quiescent;
  Printf.fprintf oc "  \"leased_read_wire_bytes\": %d,\n" leased_read_bytes;
  Printf.fprintf oc "  \"ordered_read_wire_bytes\": %d,\n" ordered_read_bytes;
  Printf.fprintf oc "  \"fault_runs\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun (seed, t_part, t_heal, r, lin) ->
            Printf.sprintf
              "    {\"seed\": %d, \"partition_at\": %.4f, \"heal_at\": %.4f, \
               \"finished\": %b, \"linearizable\": %b, \"safety_ok\": %b, \
               \"lease_reads\": %d}"
              seed t_part t_heal r.S.finished lin (safety_ok r)
              (mains_metric r "lease_reads"))
          fault_runs));
  Printf.fprintf oc "}\n";
  close_out oc;
  let ok =
    ordered.S.finished && leased.S.finished && safety_ok ordered && safety_ok leased
    && quiescent && speedup >= 5.0 && fault_ok
  in
  Printf.printf
    "wrote BENCH_reads.json (ordered %.0f ops/s, leased %.0f ops/s, speedup %.2fx, \
     aux quiescent: %b, fault schedules linearizable: %b) -- %s\n"
    (tput ordered) (tput leased) speedup quiescent fault_ok
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Tracing snapshot: three gates on the observability layer itself.    *)
(* (1) Overhead: the identical simulation timed wall-clock with        *)
(*     tracing on and off — rings + trace ids must cost <= 3 us/op.    *)
(* (2) Steady-state duty cycle: with no faults the auxiliary's trace   *)
(*     lane must be ~empty (the paper's claim, as a number).           *)
(* (3) Determinism: two same-seed failover runs must render byte-      *)
(*     identical Chrome traces (what the golden test pins, re-checked  *)
(*     at bench scale). A sample trace is written alongside so CI      *)
(*     uploads something loadable in Perfetto.                         *)
(* ------------------------------------------------------------------ *)

let write_trace_snapshot () =
  let module S = Cp_harness.Scenario in
  let module Faults = Cp_runtime.Faults in
  let module Timeline = Cp_obs.Timeline in
  let clients = 8 in
  let per_client = if quick then 80 else 250 in
  let steady_spec ~obs =
    {
      (S.default_spec ~sys:(S.Cheap 1)) with
      S.seed = 45;
      obs;
      clients;
      ops_per_client = per_client;
      think = 0.;
      mk_ops =
        (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:per_client seq);
      deadline = 60.;
    }
  in
  (* Gate 1: wall-clock cost of tracing per committed op. Each round runs
     off, on, on, off, so neither side always runs second (back to back,
     the second run of a pair read up to 9% faster); min-of-N per side is
     the least-noisy estimator for a deterministic workload. The GC flush
     keeps one run's garbage from being collected on the next run's clock
     (each timed run still pays for its own allocation).
     The gate bounds tracing's absolute cost per op, not the on/off
     throughput ratio: the ratio's denominator is the whole protocol path,
     so it tightens whenever another layer gets faster. Persisting one vote
     per accept made this run ~3x shorter and moved the ratio from ~0.97
     to 0.91-0.94 with the tracing code unchanged. The 3 us budget is the old
     5% gate at the ~62 us per op this scenario cost before that change
     (2-vCPU Xeon VM); the ratio is still reported. *)
  let rounds = if quick then 5 else 8 in
  let time spec =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = S.run spec in
    (Unix.gettimeofday () -. t0, r)
  in
  let best_on = ref infinity and best_off = ref infinity in
  let last_on = ref None in
  let timed obs =
    let dt, r = time (steady_spec ~obs) in
    if obs then begin
      best_on := Float.min !best_on dt;
      last_on := Some r
    end
    else best_off := Float.min !best_off dt
  in
  for _ = 1 to rounds do
    List.iter timed [ false; true; true; false ]
  done;
  let steady = Option.get !last_on in
  let total_ops = steady.S.completed in
  let tput_on = float_of_int total_ops /. !best_on in
  let tput_off = float_of_int total_ops /. !best_off in
  let overhead_ratio = tput_on /. tput_off in
  let overhead_us_per_op = (!best_on -. !best_off) *. 1e6 /. float_of_int total_ops in
  let overhead_ok = steady.S.finished && overhead_us_per_op <= 3.0 in
  (* Gate 2: steady-state auxiliary duty cycle over the back half of the
     run (skips the initial election), against the leader's for contrast. *)
  let records = S.trace steady in
  let t0 = steady.S.wall /. 2. and t1 = steady.S.wall in
  let duty node = Timeline.duty_cycle ~node ~t0 ~t1 records in
  let aux_duties = List.map (fun id -> (id, duty id)) (S.aux_ids steady) in
  let max_aux_duty = List.fold_left (fun acc (_, d) -> Float.max acc d) 0. aux_duties in
  let main_duties = List.map (fun id -> (id, duty id)) (S.main_ids steady) in
  let max_main_duty = List.fold_left (fun acc (_, d) -> Float.max acc d) 0. main_duties in
  let duty_ok = max_aux_duty < 0.01 in
  (* Gate 3: failover run — engagement window present and closed, and the
     Chrome export is a deterministic function of (spec, seed). *)
  let failover_spec =
    {
      (S.default_spec ~sys:(S.Cheap 1)) with
      S.seed = 46;
      clients = 2;
      ops_per_client = 40;
      think = 2e-3;
      mk_ops = (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:40 seq);
      faults = [ (0.02, Faults.Crash 1); (0.25, Faults.Restart 1) ];
      deadline = 10.;
    }
  in
  let f1 = S.run failover_spec in
  let f2 = S.run failover_spec in
  let chrome1 = Timeline.to_chrome (S.trace f1) in
  let chrome2 = Timeline.to_chrome (S.trace f2) in
  let deterministic = String.equal chrome1 chrome2 in
  let windows = Timeline.engagement_windows ~auxes:(S.aux_ids f1) (S.trace f1) in
  let engaged_ok =
    f1.S.finished
    && List.exists
         (fun (w : Timeline.engagement) -> w.Timeline.quiesced_at <> None && w.Timeline.aux_msgs > 0)
         windows
  in
  let ring_dropped = Cp_runtime.Inspect.ring_drops steady.S.cluster in
  let span_dropped =
    Cp_runtime.Cluster.sum_metric steady.S.cluster ~ids:(S.main_ids steady) "span_dropped"
  in
  let opt_f = function Some t -> Printf.sprintf "%.6f" t | None -> "null" in
  let engagement_json (w : Timeline.engagement) =
    Printf.sprintf
      "    {\"started_at\":%.6f,\"engaged_at\":%.6f,\"engaged_instance\":%d,\
       \"elected_at\":%s,\"quiesced_at\":%s,\"msgs_engage\":%d,\"bytes_engage\":%d,\
       \"msgs_settle\":%d,\"bytes_settle\":%d,\"aux_msgs\":%d,\"aux_bytes\":%d}"
      w.Timeline.started_at w.Timeline.engaged_at w.Timeline.engaged_instance
      (opt_f w.Timeline.elected_at) (opt_f w.Timeline.quiesced_at) w.Timeline.msgs_engage
      w.Timeline.bytes_engage w.Timeline.msgs_settle w.Timeline.bytes_settle
      w.Timeline.aux_msgs w.Timeline.aux_bytes
  in
  let duty_json (id, d) = Printf.sprintf "{\"node\":%d,\"duty\":%.6f}" id d in
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"overhead\": {\"rounds\": %d, \"ops\": %d, \"obs_off_s\": %.6f, \"obs_on_s\": \
     %.6f, \"obs_off_tput\": %.1f, \"obs_on_tput\": %.1f, \"ratio\": %.4f, \
     \"us_per_op\": %.3f, \"pass\": %b},\n"
    rounds total_ops !best_off !best_on tput_off tput_on overhead_ratio overhead_us_per_op
    overhead_ok;
  Printf.fprintf oc
    "  \"duty_cycle\": {\"window\": [%.6f, %.6f], \"aux\": [%s], \"mains\": [%s], \
     \"max_aux_duty\": %.6f, \"max_main_duty\": %.6f, \"pass\": %b},\n"
    t0 t1
    (String.concat ", " (List.map duty_json aux_duties))
    (String.concat ", " (List.map duty_json main_duties))
    max_aux_duty max_main_duty duty_ok;
  Printf.fprintf oc "  \"engagement_windows\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map engagement_json windows));
  Printf.fprintf oc "  \"engagement_ok\": %b,\n" engaged_ok;
  Printf.fprintf oc "  \"chrome_deterministic\": %b,\n" deterministic;
  Printf.fprintf oc "  \"chrome_bytes\": %d,\n" (String.length chrome1);
  Printf.fprintf oc "  \"ring_dropped\": [%s],\n"
    (String.concat ", "
       (List.map (fun (id, n) -> Printf.sprintf "{\"node\":%d,\"dropped\":%d}" id n)
          ring_dropped));
  Printf.fprintf oc "  \"span_dropped\": %d\n" span_dropped;
  Printf.fprintf oc "}\n";
  close_out oc;
  let oc = open_out "BENCH_trace_chrome.json" in
  output_string oc chrome1;
  close_out oc;
  let ok = overhead_ok && duty_ok && deterministic && engaged_ok in
  Printf.printf
    "wrote BENCH_trace.json (tracing %.2f us/op, obs on/off tput ratio %.3f, max aux \
     duty %.4f vs main %.4f, %d engagement window(s), chrome deterministic: %b) and \
     BENCH_trace_chrome.json (%d bytes) -- %s\n"
    overhead_us_per_op overhead_ratio max_aux_duty max_main_duty (List.length windows)
    deterministic
    (String.length chrome1)
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Fleet snapshot: the same machine budget (f=1: two mains, one        *)
(* auxiliary) hosting one Cheap Paxos group versus eight key-sharded   *)
(* groups, driven by the same closed-loop client population. A single  *)
(* group is pipeline-window limited no matter how many clients offer   *)
(* load; eight groups multiply the usable window, so aggregate op/s    *)
(* must scale >= 4x. The auxiliary — shared by all groups — must stay  *)
(* quiescent in EVERY group, which is the fleet's economy argument:    *)
(* one idle spare underwrites N groups.                                *)
(* ------------------------------------------------------------------ *)

let write_fleet_snapshot () =
  let module Fleet = Cp_fleet.Fleet in
  let module Engine = Cp_sim.Engine in
  let module Metrics = Cp_sim.Metrics in
  let clients = 192 in
  let per_client = if quick then 15 else 40 in
  let run ~groups =
    (* Batching off: the comparison isolates pipeline parallelism across
       groups; batch amortization is measured in BENCH_batch.json. The
       pipeline window is pinned low enough that one group's leader is the
       bottleneck under this client population — the per-group resource the
       fleet multiplies. *)
    let params =
      {
        Cp_engine.Params.default with
        Cp_engine.Params.batch_max_cmds = 1;
        pipeline_window = 8;
      }
    in
    let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
    let f =
      Fleet.create ~seed:47 ~params ~groups ~policy:Cheap_paxos.Cheap.policy ~initial
        ~app:(module Cp_smr.Kv) ()
    in
    let handles =
      List.init clients (fun i ->
          (* Workload keyed only by the client index, so both runs offer an
             identical write-only stream over 256 keys (the router spreads
             them across however many groups exist). *)
          let ops =
            Cp_workload.Workload.kv_ops
              ~rng:(Cp_util.Rng.create (9000 + i))
              ~keys:256 ~read_ratio:0. ~count:per_client ()
          in
          Fleet.add_client f ~think:0. ~ops ())
    in
    let finished () = List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles in
    let done_ = Fleet.run_until f ~deadline:120. finished in
    (f, handles, done_)
  in
  let eng_metrics f id = Engine.metrics (Fleet.engine f) id in
  let completed f handles =
    List.fold_left (fun acc (id, _) -> acc + Metrics.get (eng_metrics f id) "ops_done") 0 handles
  in
  let duration f handles =
    List.fold_left
      (fun acc (id, _) ->
        List.fold_left max acc (Metrics.series (eng_metrics f id) "done_at"))
      0. handles
  in
  let tput (f, handles, _) = float_of_int (completed f handles) /. duration f handles in
  let single = run ~groups:1 in
  let eight = run ~groups:8 in
  let speedup = tput eight /. tput single in
  let f8, _, _ = eight in
  (* Every group elected a leader, and every group actually received work
     (the router's stripes cover 256 keys comfortably). *)
  let leaders_ok =
    List.for_all (fun gid -> Fleet.leader f8 ~gid <> None) (List.init 8 Fun.id)
  in
  let group_chosen gid = Fleet.sum_group_metric f8 ~ids:(Fleet.mains f8) ~gid "chosen" in
  let spread = List.init 8 group_chosen in
  let spread_ok = List.for_all (fun n -> n > 0) spread in
  (* Per-group auxiliary quiescence: each (aux, group) frame count stays at
     the handful the group's initial election cost. *)
  let aux_recv = Fleet.aux_group_recv f8 in
  let max_aux_recv = List.fold_left (fun acc (_, _, n) -> max acc n) 0 aux_recv in
  let quiescent = List.for_all (fun (_, _, n) -> n <= 24) aux_recv in
  let side name ((f, handles, done_) as r) =
    Printf.sprintf
      "  %S: {\"completed\": %d, \"finished\": %b, \"duration\": %.6f, \"throughput\": %.1f}"
      name (completed f handles) done_ (duration f handles) (tput r)
  in
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"clients\": %d,\n  \"ops_per_client\": %d,\n" clients per_client;
  Printf.fprintf oc "  \"batch_max_cmds\": 1,\n";
  Printf.fprintf oc "%s,\n" (side "single_group" single);
  Printf.fprintf oc "%s,\n" (side "eight_groups" eight);
  Printf.fprintf oc "  \"speedup\": %.3f,\n" speedup;
  Printf.fprintf oc "  \"group_chosen\": [%s],\n"
    (String.concat ", " (List.map string_of_int spread));
  Printf.fprintf oc "  \"leaders_ok\": %b,\n" leaders_ok;
  Printf.fprintf oc "  \"aux_group_recv\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun (aux, gid, n) ->
            Printf.sprintf "    {\"aux\": %d, \"group\": %d, \"recv\": %d}" aux gid n)
          aux_recv));
  Printf.fprintf oc "  \"max_aux_group_recv\": %d,\n" max_aux_recv;
  Printf.fprintf oc "  \"aux_quiescent_all_groups\": %b\n" quiescent;
  Printf.fprintf oc "}\n";
  close_out oc;
  let _, _, done1 = single and _, _, done8 = eight in
  let ok = done1 && done8 && leaders_ok && spread_ok && quiescent && speedup >= 4.0 in
  Printf.printf
    "wrote BENCH_fleet.json (1 group %.0f ops/s, 8 groups %.0f ops/s, speedup %.2fx, \
     max aux recv per group %d, aux quiescent in all groups: %b) -- %s\n"
    (tput single) (tput eight) speedup max_aux_recv quiescent
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Executor snapshot: the conflict-aware parallel applier's scaling    *)
(* curve (1/2/4/8 worker domains over a commuting-heavy, CPU-weighted  *)
(* workload), with serial equivalence verified in the same run, plus a *)
(* full simulated cluster executing with exec_domains = 4 to show the  *)
(* protocol path uses it and the shared auxiliary stays quiescent.     *)
(* The >= 2x @ 4 domains gate only binds where it can physically hold: *)
(* a parallel backend on >= 4 cores (the CI 5.x runners); elsewhere it *)
(* is recorded as skipped and the equivalence checks still gate.       *)
(* ------------------------------------------------------------------ *)

let write_exec_snapshot () =
  let module Applier = Cp_exec.Applier in
  let module Backend = Cp_exec.Backend in
  let module Stripes = Cp_exec.Stripes in
  let cores = Backend.cpu_count () in
  let n_ops = if quick then 1024 else 4096 in
  let n_keys = 256 in
  let iters = 4000 in
  (* The op mix: per-key accumulate after a CPU-weighted hash spin, so the
     apply path dominates and disjoint keys genuinely commute. A 2% slice
     of wildcard ops keeps the conflict-serialization path exercised. *)
  let rng = Cp_util.Rng.create 4242 in
  let ops =
    Array.init n_ops (fun i ->
        if i mod 50 = 49 then "SCAN"
        else Printf.sprintf "WORK k%d %d" (Cp_util.Rng.int rng n_keys) (i land 7))
  in
  let spin key salt =
    let h = ref 0x811c9dc5 in
    for i = 0 to iters - 1 do
      h :=
        (!h lxor (Char.code key.[i mod String.length key] + i + salt)) * 0x01000193
        land 0x3fffffff
    done;
    !h
  in
  let conflict_keys op =
    match String.split_on_char ' ' op with
    | [ "WORK"; k; _ ] -> [ k ]
    | _ -> [ Cp_proto.Appi.wildcard ]
  in
  let fresh_state () = Stripes.create () in
  let apply_on state op =
    match String.split_on_char ' ' op with
    | [ "WORK"; k; salt ] ->
      let v = spin k (int_of_string salt) in
      Stripes.with_key state k (fun tbl ->
          let acc =
            (Option.value (Hashtbl.find_opt tbl k) ~default:0 + v) land 0x3fffffff
          in
          Hashtbl.replace tbl k acc;
          string_of_int acc)
    | _ ->
      (* wildcard: fold the whole state, like a consistent scan would *)
      string_of_int (Stripes.fold state (fun _ v acc -> (acc + v) land 0x3fffffff) 0)
  in
  let dump state =
    Stripes.fold state (fun k v acc -> (k, v) :: acc) []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat ","
  in
  (* Serial reference: results in log order and the final state. *)
  let ref_state = fresh_state () in
  let ref_results = Array.map (apply_on ref_state) ops in
  let ref_dump = dump ref_state in
  let time_at ~workers =
    let serialized = ref 0 in
    let parallel_batches = ref 0 in
    let count name by =
      if name = "exec_conflict_serialized" then serialized := !serialized + by
      else if name = "exec_parallel_batches" then
        parallel_batches := !parallel_batches + by
    in
    let run () =
      let state = fresh_state () in
      let a = Applier.create ~workers ~count ~conflict_keys () in
      let t0 = Unix.gettimeofday () in
      let results = Applier.batch_apply a ~apply:(apply_on state) ops in
      (Unix.gettimeofday () -. t0, results, dump state)
    in
    (* best-of-3 wall time; equivalence must hold on every repetition *)
    let reps = List.init 3 (fun _ -> run ()) in
    let secs = List.fold_left (fun acc (s, _, _) -> Float.min acc s) infinity reps in
    let equiv =
      List.for_all (fun (_, results, d) -> results = ref_results && d = ref_dump) reps
    in
    (secs, equiv, !serialized > 0, !parallel_batches > 0)
  in
  let widths = [ 1; 2; 4; 8 ] in
  let curve = List.map (fun w -> (w, time_at ~workers:w)) widths in
  let secs_at w = match List.assoc w curve with s, _, _, _ -> s in
  let equiv_ok = List.for_all (fun (_, (_, e, _, _)) -> e) curve in
  let speedup4 = secs_at 1 /. secs_at 4 in
  let gate_applicable = Backend.parallel && cores >= 4 in
  let scaling_ok = (not gate_applicable) || speedup4 >= 2.0 in
  (* Conflict bookkeeping: wildcard SCANs must force serializations, and a
     parallel backend must actually take the parallel path at width 4. *)
  let _, _, ser4, par4 = List.assoc 4 curve in
  let counters_ok = ser4 && (par4 || not Backend.parallel) in
  (* Full protocol path: an f=1 cluster executing through a 4-wide applier
     (commands spread over 64 keys), auxiliary quiescent throughout. *)
  let module Cluster = Cp_runtime.Cluster in
  let params =
    { Cp_engine.Params.default with Cp_engine.Params.exec_domains = 4 }
  in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:91 ~params ~conflict_keys:Cp_smr.Kv.conflict_keys
      ~policy:Cheap_paxos.Cheap.policy ~initial ~app:(module Cp_smr.Kv) ()
  in
  let per_client = if quick then 20 else 60 in
  let handles =
    List.init 24 (fun i ->
        let ops =
          Cp_workload.Workload.kv_ops
            ~rng:(Cp_util.Rng.create (7100 + i))
            ~keys:64 ~read_ratio:0. ~count:per_client ()
        in
        Cluster.add_client cluster ~think:0. ~ops ())
  in
  let finished () =
    List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles
  in
  let done_ = Cluster.run_until cluster ~deadline:60. finished in
  let exec_parallel =
    Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_parallel_batches"
  in
  let exec_serialized =
    Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_conflict_serialized"
  in
  let aux_recv =
    List.map (fun aux -> (aux, Cluster.metric cluster aux "msgs_recv"))
      (Cluster.auxes cluster)
  in
  let aux_quiescent = List.for_all (fun (_, n) -> n <= 50) aux_recv in
  let cluster_parallel_ok = exec_parallel > 0 || not Backend.parallel in
  let oc = open_out "BENCH_exec.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"backend_parallel\": %b,\n  \"cpu_cores\": %d,\n"
    Backend.parallel cores;
  Printf.fprintf oc "  \"ops\": %d,\n  \"distinct_keys\": %d,\n  \"spin_iters\": %d,\n"
    n_ops n_keys iters;
  Printf.fprintf oc "  \"scaling\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun (w, (s, _, _, _)) ->
            Printf.sprintf
              "    {\"workers\": %d, \"seconds\": %.6f, \"ops_per_s\": %.1f}" w s
              (float_of_int n_ops /. s))
          curve));
  Printf.fprintf oc "  \"speedup_4\": %.3f,\n" speedup4;
  Printf.fprintf oc "  \"scaling_gate_applicable\": %b,\n" gate_applicable;
  Printf.fprintf oc "  \"scaling_gate_pass\": %b,\n" scaling_ok;
  Printf.fprintf oc "  \"serial_equivalence_pass\": %b,\n" equiv_ok;
  Printf.fprintf oc "  \"conflict_counters_pass\": %b,\n" counters_ok;
  Printf.fprintf oc
    "  \"cluster\": {\"finished\": %b, \"exec_parallel_batches\": %d, \
     \"exec_conflict_serialized\": %d, \"aux_recv\": [%s], \"aux_quiescent\": %b},\n"
    done_ exec_parallel exec_serialized
    (String.concat ", "
       (List.map (fun (a, n) -> Printf.sprintf "{\"aux\": %d, \"recv\": %d}" a n) aux_recv))
    aux_quiescent;
  let ok =
    equiv_ok && scaling_ok && counters_ok && done_ && aux_quiescent
    && cluster_parallel_ok
  in
  Printf.fprintf oc "  \"pass\": %b\n}\n" ok;
  close_out oc;
  Printf.printf
    "wrote BENCH_exec.json (1w %.0f ops/s, 4w %.0f ops/s, speedup %.2fx%s, \
     equivalence %b, cluster exec_parallel_batches %d, aux quiescent %b) -- %s\n"
    (float_of_int n_ops /. secs_at 1)
    (float_of_int n_ops /. secs_at 4)
    speedup4
    (if gate_applicable then "" else " [scaling gate skipped: insufficient cores]")
    equiv_ok exec_parallel aux_quiescent
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Wire-path snapshot (E17): syscall batching and zero-copy encoding. *)
(* One protocol step fans a burst of P2as to each peer. The unbatched  *)
(* leg is the pre-outbox wire path (encode to a string, copy it into a *)
(* Bytes, one sendto per frame); the batched leg is the real           *)
(* Cp_transport.Outbox (encode_into straight into the per-peer buffer, *)
(* one sendto per peer per step). Gates: >= 30% fewer syscalls/op, no  *)
(* per-send copies, fewer minor words/op.                              *)
(* ------------------------------------------------------------------ *)

let write_wire_snapshot () =
  let steps = if quick then 20_000 else 100_000 in
  let peers = [ 1; 2 ] in
  let frames_per_peer = 4 in
  let frames_per_step = frames_per_peer * List.length peers in
  let b = Cp_proto.Ballot.make ~round:3 ~leader:0 in
  (* A modest KV write: 64-byte op, the shape the batching experiments use. *)
  let op = "PUT k00000001 " ^ String.make 50 'v' in
  let msg i =
    Cp_proto.Types.P2a
      {
        ballot = b;
        instance = i;
        entry = Cp_proto.Types.App { client = 1001; seq = i; op };
      }
  in
  (* An unconnected UDP socket sending to closed loopback ports: the
     datagrams are discarded by the local stack, so the syscall and copy
     costs are real but no listener is needed. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let addr_of dst = Unix.ADDR_INET (Unix.inet_addr_loopback, 47970 + dst) in
  let syscalls = ref 0 and bytes = ref 0 and copies = ref 0 in
  let sendto buf ~off ~len dst =
    incr syscalls;
    let n = try Unix.sendto sock buf off len [] (addr_of dst) with Unix.Unix_error _ -> len in
    bytes := !bytes + n
  in
  let run_leg step =
    syscalls := 0;
    bytes := 0;
    copies := 0;
    Gc.full_major ();
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for s = 0 to steps - 1 do
      step s
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, !syscalls, !bytes, !copies, Gc.minor_words () -. minor0)
  in
  let unbatched =
    run_leg (fun s ->
        List.iter
          (fun dst ->
            for j = 0 to frames_per_peer - 1 do
              let payload = Cp_proto.Codec.encode (msg ((s * frames_per_peer) + j)) in
              let buf = Bytes.of_string payload in
              incr copies;
              sendto buf ~off:0 ~len:(Bytes.length buf) dst
            done)
          peers)
  in
  let outbox =
    Cp_transport.Outbox.create ~send:(fun ~dst buf ~off ~len -> sendto buf ~off ~len dst) ()
  in
  let batched =
    run_leg (fun s ->
        List.iter
          (fun dst ->
            for j = 0 to frames_per_peer - 1 do
              match
                Cp_transport.Outbox.append outbox ~dst ~gid:0 ~tid:(s land 0xffff)
                  (msg ((s * frames_per_peer) + j))
              with
              | (_ : int) -> ()
              | exception Cp_proto.Codec.Overflow -> incr copies
            done)
          peers;
        Cp_transport.Outbox.flush outbox)
  in
  Unix.close sock;
  let per (dt, sys, byt, cop, minor) =
    let n = float_of_int steps in
    ( dt /. n *. 1e9,
      float_of_int sys /. n,
      float_of_int byt /. n,
      float_of_int cop /. n,
      minor /. n )
  in
  let u_ns, u_sys, u_bytes, u_cop, u_minor = per unbatched in
  let b_ns, b_sys, b_bytes, b_cop, b_minor = per batched in
  let reduction = 1. -. (b_sys /. u_sys) in
  let syscalls_ok = b_sys <= 0.7 *. u_sys in
  let zero_copy_ok = b_cop = 0. in
  let alloc_ok = b_minor < u_minor in
  let ok = syscalls_ok && zero_copy_ok && alloc_ok in
  let oc = open_out "BENCH_wire.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"steps\": %d, \"frames_per_step\": %d, \"peers\": %d,\n" steps
    frames_per_step (List.length peers);
  Printf.fprintf oc
    "  \"unbatched\": {\"ns_per_op\": %.1f, \"syscalls_per_op\": %.3f, \"bytes_per_op\": %.1f, \
     \"copies_per_op\": %.3f, \"minor_words_per_op\": %.1f},\n"
    u_ns u_sys u_bytes u_cop u_minor;
  Printf.fprintf oc
    "  \"batched\": {\"ns_per_op\": %.1f, \"syscalls_per_op\": %.3f, \"bytes_per_op\": %.1f, \
     \"copies_per_op\": %.3f, \"minor_words_per_op\": %.1f},\n"
    b_ns b_sys b_bytes b_cop b_minor;
  Printf.fprintf oc "  \"syscall_reduction\": %.4f,\n" reduction;
  Printf.fprintf oc "  \"syscalls_gate_pass\": %b,\n" syscalls_ok;
  Printf.fprintf oc "  \"zero_copy_gate_pass\": %b,\n" zero_copy_ok;
  Printf.fprintf oc "  \"alloc_gate_pass\": %b,\n" alloc_ok;
  Printf.fprintf oc "  \"pass\": %b\n}\n" ok;
  close_out oc;
  Printf.printf
    "wrote BENCH_wire.json (syscalls/op %.2f -> %.2f, -%.0f%%; minor words/op %.0f -> %.0f; \
     batched copies %.0f) -- %s\n"
    u_sys b_sys (100. *. reduction) u_minor b_minor (b_cop *. float_of_int steps)
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* E18: durable storage — group commit, recovery, amplification        *)
(* ------------------------------------------------------------------ *)

(* The WAL's cost model (DESIGN.md section 9): fsync is the unit of cost on
   the persistence path, and the group-commit rule (one flush per delivery
   burst) must amortize it by the pipeline depth. Measured directly against
   the same record stream flushed sync-per-record. Also measured: cold
   recovery time for the segment replay, bytes amplification of the
   append-only format (lifetime appends vs live bytes, with compaction on),
   and a torn-tail crash (byte-granular, via the Faulty io) recovering to a
   clean prefix without an exception. Last, a full cluster: fsyncs per
   committed op on a WAL-backed ring fabric under 32 clients, gated <= 1. *)
let write_storage_snapshot () =
  let module Storage = Cp_storage.Storage in
  let module Wal = Cp_storage.Wal in
  let base =
    let p = Filename.temp_file "cp_bench_storage" "" in
    Unix.unlink p;
    Unix.mkdir p 0o755;
    p
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Unix.unlink p
  in
  Fun.protect ~finally:(fun () -> try rm base with _ -> ()) @@ fun () ->
  let depth = 8 in
  let batches = if quick then 200 else 1000 in
  let ops = depth * batches in
  let payload i = Printf.sprintf "%08d:%s" i (String.make 48 'v') in
  (* Mode A: sync-per-record — what a WAL without group commit would do. *)
  let per_record_dir = Filename.concat base "per_record" in
  let s = Wal.store per_record_dir in
  let t0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    Storage.put s (Printf.sprintf "log.%d" (i mod 256)) (payload i);
    Storage.flush s
  done;
  let per_record_s = Unix.gettimeofday () -. t0 in
  let a = Storage.stats s in
  Storage.close s;
  (* Mode B: group commit — one flush per batch of records. *)
  let group_dir = Filename.concat base "group" in
  let s = Wal.store group_dir in
  let t0 = Unix.gettimeofday () in
  for b = 0 to batches - 1 do
    for j = 0 to depth - 1 do
      let i = (b * depth) + j in
      Storage.put s (Printf.sprintf "log.%d" (i mod 256)) (payload i)
    done;
    Storage.flush s
  done;
  let group_s = Unix.gettimeofday () -. t0 in
  let g = Storage.stats s in
  let live_bytes = g.Storage.bytes_used in
  Storage.close s;
  let a_per_op = float_of_int a.Storage.fsyncs /. float_of_int ops in
  let g_per_op = float_of_int g.Storage.fsyncs /. float_of_int ops in
  let fsync_ratio = a_per_op /. Float.max g_per_op 1e-9 in
  let group_commit_ok = fsync_ratio >= 4. in
  (* Bytes amplification: lifetime appended bytes over live bytes. The 256
     hot keys are overwritten ~ops/256 times each, so without compaction
     this would be ~ops/256; the checkpoint bound keeps it small. *)
  let disk_bytes dir =
    Sys.readdir dir |> Array.to_list
    |> List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_size)
    |> List.fold_left ( + ) 0
  in
  let amplification = float_of_int g.Storage.bytes_appended /. float_of_int live_bytes in
  let disk_amplification = float_of_int (disk_bytes group_dir) /. float_of_int live_bytes in
  (* Cold recovery: reopen the group-commit directory, real segment replay. *)
  let s = Wal.store group_dir in
  let r = Storage.stats s in
  let recovered = List.length (Storage.keys s) in
  let recovery_ms = r.Storage.recovery_ms in
  Storage.close s;
  let recovery_ok = recovered = 256 in
  (* Torn tail: cut the power mid-stream at a byte offset (not a record
     boundary) and require recovery to a clean prefix, no exception. *)
  let torn_dir = Filename.concat base "torn" in
  let cut = (g.Storage.bytes_appended * 3 / 5) + 7 in
  let plan = Cp_storage.Faulty.plan ~crash_after_bytes:cut () in
  let s =
    Storage.Packed ((module Wal.View), Wal.open_dir ~io:(Cp_storage.Faulty.io plan) torn_dir)
  in
  (try
     for i = 0 to ops - 1 do
       Storage.put s (Printf.sprintf "log.%d" (i mod 256)) (payload i);
       if i mod depth = depth - 1 then Storage.flush s
     done
   with Cp_storage.Faulty.Crash -> ());
  let torn_ok =
    match Wal.store torn_dir with
    | s ->
      let n = List.length (Storage.keys s) in
      Storage.close s;
      n > 0 && n <= 256
    | exception _ -> false
  in
  (* The runtime's group commit end to end: 32 closed-loop clients on a
     ring fabric whose replicas write WALs. The ring flushes each store once
     per pump pass, so every op a pass carries shares its fsync; a flush per
     handler would cost ~4 per op (each main persists the vote, then the
     chosen entry). *)
  let module Sc = Cp_harness.Storage_conformance in
  let ring_factory, ring_close = Sc.wal_factory ~dir:(Filename.concat base "ring") () in
  let ring = Sc.ring_load ~ops:(if quick then 10 else 30) ~storage:ring_factory in
  ring_close ();
  let ring_per_op = float_of_int ring.Sc.fsyncs /. float_of_int (max 1 ring.Sc.committed) in
  let ring_ok = ring.Sc.finished && ring_per_op <= 1. in
  let ok = group_commit_ok && recovery_ok && torn_ok && ring_ok in
  let oc = open_out "BENCH_storage.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"ops\": %d, \"pipeline_depth\": %d, \"payload_bytes\": %d,\n" ops
    depth (String.length (payload 0));
  Printf.fprintf oc
    "  \"sync_per_record\": {\"fsyncs\": %d, \"fsyncs_per_op\": %.4f, \"elapsed_s\": %.3f},\n"
    a.Storage.fsyncs a_per_op per_record_s;
  Printf.fprintf oc
    "  \"group_commit\": {\"fsyncs\": %d, \"fsyncs_per_op\": %.4f, \"elapsed_s\": %.3f},\n"
    g.Storage.fsyncs g_per_op group_s;
  Printf.fprintf oc "  \"fsync_ratio\": %.2f,\n" fsync_ratio;
  Printf.fprintf oc "  \"group_commit_gate_pass\": %b,\n" group_commit_ok;
  Printf.fprintf oc
    "  \"recovery\": {\"ms\": %.3f, \"records\": %d, \"segments\": %d, \"pass\": %b},\n"
    recovery_ms recovered r.Storage.segments recovery_ok;
  Printf.fprintf oc
    "  \"amplification\": {\"appended_over_live\": %.2f, \"disk_over_live\": %.2f},\n"
    amplification disk_amplification;
  Printf.fprintf oc "  \"torn_tail_clean\": %b,\n" torn_ok;
  Printf.fprintf oc
    "  \"ring_wal\": {\"clients\": 32, \"committed\": %d, \"fsyncs\": %d, \"fsyncs_per_op\": \
     %.4f, \"elapsed_s\": %.3f, \"gate_pass\": %b},\n"
    ring.Sc.committed ring.Sc.fsyncs ring_per_op ring.Sc.elapsed_s ring_ok;
  Printf.fprintf oc "  \"pass\": %b\n}\n" ok;
  close_out oc;
  Printf.printf
    "wrote BENCH_storage.json (fsyncs/op %.3f -> %.3f, %.1fx fewer; recovery %.1f ms for \
     %d records; disk amplification %.2fx; ring over wal, 32 clients: %.3f fsyncs/op, gate <= \
     1) -- %s\n"
    a_per_op g_per_op fsync_ratio recovery_ms recovered disk_amplification ring_per_op
    (if ok then "PASS" else "FAIL");
  ok

let () =
  Printf.printf "Cheap Paxos evaluation%s\n" (if quick then " (quick mode)" else "");
  let outcomes = Cp_harness.Experiments.run_all ~quick () in
  Cp_util.Table.print ~title:"Claim-by-claim verdicts"
    (Cp_harness.Outcome.to_table outcomes);
  write_obs_snapshot ();
  let batch_ok = write_batch_snapshot () in
  let reads_ok = write_reads_snapshot () in
  let trace_ok = write_trace_snapshot () in
  let fleet_ok = write_fleet_snapshot () in
  let exec_ok = write_exec_snapshot () in
  let wire_ok = write_wire_snapshot () in
  let storage_ok = write_storage_snapshot () in
  run_microbenches ();
  if
    Cp_harness.Outcome.all_pass outcomes && batch_ok && reads_ok && trace_ok
    && fleet_ok && exec_ok && wire_ok && storage_ok
  then
    print_endline "\nALL CLAIMS REPRODUCED"
  else begin
    print_endline "\nSOME CLAIMS FAILED";
    exit 1
  end
