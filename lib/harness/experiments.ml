module Table = Cp_util.Table
module Stats = Cp_util.Stats
module Rng = Cp_util.Rng
module Analysis = Cheap_paxos.Analysis
module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Inspect = Cp_runtime.Inspect
module Replica = Cp_engine.Replica
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage
module Workload = Cp_workload.Workload

type exp = {
  eid : string;
  title : string;
  run : quick:bool -> Table.t * Outcome.t list;
}

let f2 = Table.fmt_float ~decimals:2

let f1 = Table.fmt_float ~decimals:1

let us x = Table.fmt_float ~decimals:0 (x *. 1e6) ^ "us"

let ms x = Table.fmt_float ~decimals:1 (x *. 1e3) ^ "ms"

let sys_name = function Scenario.Cheap _ -> "cheap" | Scenario.Classic _ -> "classic"

let counter_spec ~sys ~seed ~ops =
  {
    (Scenario.default_spec ~sys) with
    seed;
    ops_per_client = ops;
    mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:ops seq);
  }

(* ------------------------------------------------------------------ *)
(* E1: normal-case message cost                                        *)
(* ------------------------------------------------------------------ *)

let e1_run ~quick =
  let fs = if quick then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
  let ops = if quick then 150 else 500 in
  let table =
    Table.create
      ~header:
        [ "f"; "system"; "machines"; "msgs/commit"; "analytic"; "aux msgs rx"; "aux/commit" ]
  in
  let outcomes = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun (sys, ana) ->
          let r = Scenario.run (counter_spec ~sys ~seed:(100 + f) ~ops) in
          let mpc = Scenario.protocol_msgs_per_commit r in
          let analytic = float_of_int (Analysis.messages_per_commit ana ~f) in
          let aux_rx = Scenario.aux_msgs_received r in
          let aux_pc = float_of_int aux_rx /. float_of_int (max 1 r.completed) in
          Table.add_row table
            [
              string_of_int f;
              sys_name sys;
              string_of_int (Analysis.machines ana ~f);
              f2 mpc;
              f2 analytic;
              string_of_int aux_rx;
              f2 aux_pc;
            ];
          let ok_count =
            r.finished && Float.abs (mpc -. analytic) <= Float.max 1.0 (0.25 *. analytic)
          in
          outcomes :=
            Outcome.make
              ~id:(Printf.sprintf "E1/f=%d/%s" f (sys_name sys))
              ~claim:"normal-case messages per commit match the analytic count"
              ~expected:(f2 analytic) ~measured:(f2 mpc) ~pass:ok_count
            :: !outcomes;
          if sys_name sys = "cheap" then
            outcomes :=
              Outcome.make
                ~id:(Printf.sprintf "E1/f=%d/aux-idle" f)
                ~claim:"auxiliaries receive no messages in the failure-free case"
                ~expected:"0" ~measured:(string_of_int aux_rx) ~pass:(aux_rx = 0)
              :: !outcomes)
        [ (Scenario.Cheap f, Analysis.Cheap); (Scenario.Classic f, Analysis.Classic) ])
    fs;
  (table, List.rev !outcomes)

let e1_message_cost =
  { eid = "E1"; title = "Normal-case message cost per committed command"; run = e1_run }

(* ------------------------------------------------------------------ *)
(* E2: work per machine class                                          *)
(* ------------------------------------------------------------------ *)

let e2_run ~quick =
  let fs = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let ops = if quick then 150 else 500 in
  let table =
    Table.create
      ~header:[ "f"; "system"; "class"; "machines"; "applied/node"; "kB moved/node" ]
  in
  let outcomes = ref [] in
  let add_rows f sys r =
    let per_class name ids =
      if ids = [] then ()
      else begin
        let n = List.length ids in
        let applied = Cluster.sum_metric r.Scenario.cluster ~ids "applied" in
        let bytes =
          Cluster.sum_metric r.Scenario.cluster ~ids "bytes_sent"
          + Cluster.sum_metric r.Scenario.cluster ~ids "bytes_recv"
        in
        Table.add_row table
          [
            string_of_int f;
            sys_name sys;
            name;
            string_of_int n;
            f1 (float_of_int applied /. float_of_int n);
            f1 (float_of_int bytes /. float_of_int n /. 1024.);
          ]
      end
    in
    per_class "main" (Scenario.main_ids r);
    per_class "aux" (Scenario.aux_ids r)
  in
  List.iter
    (fun f ->
      let cheap = Scenario.run (counter_spec ~sys:(Scenario.Cheap f) ~seed:(200 + f) ~ops) in
      let classic =
        Scenario.run (counter_spec ~sys:(Scenario.Classic f) ~seed:(200 + f) ~ops)
      in
      add_rows f (Scenario.Cheap f) cheap;
      add_rows f (Scenario.Classic f) classic;
      let aux_bytes =
        Cluster.sum_metric cheap.Scenario.cluster ~ids:(Scenario.aux_ids cheap) "bytes_recv"
      in
      let aux_applied =
        Cluster.sum_metric cheap.Scenario.cluster ~ids:(Scenario.aux_ids cheap) "applied"
      in
      outcomes :=
        Outcome.make
          ~id:(Printf.sprintf "E2/f=%d" f)
          ~claim:"only the f+1 mains do per-command work; auxiliaries do none"
          ~expected:"aux applied=0, aux bytes=0"
          ~measured:(Printf.sprintf "aux applied=%d, aux bytes=%d" aux_applied aux_bytes)
          ~pass:(aux_applied = 0 && aux_bytes = 0)
        :: !outcomes)
    fs;
  (table, List.rev !outcomes)

let e2_work_per_class =
  { eid = "E2"; title = "Per-command work by machine class"; run = e2_run }

(* ------------------------------------------------------------------ *)
(* E3: failover timeline                                               *)
(* ------------------------------------------------------------------ *)

let completion_gap_after r ~from =
  let times =
    List.concat_map
      (fun (id, _) -> Cluster.series r.Scenario.cluster id "done_at")
      r.Scenario.client_handles
    |> List.filter (fun t -> t >= from)
    |> List.sort compare
  in
  let rec max_gap acc = function
    | a :: (b :: _ as rest) -> max_gap (Float.max acc (b -. a)) rest
    | [ _ ] | [] -> acc
  in
  max_gap 0. times

let e3_one ~seed ~crash_target ~label =
  let crash_at = 0.5 in
  let total = 3000 in
  let spec =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      seed;
      clients = 4;
      ops_per_client = total / 4;
      think = 1e-3;
      mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:(total / 4) seq);
      faults = [ (crash_at, Faults.Crash crash_target) ];
      deadline = 8.;
    }
  in
  let r = Scenario.run spec in
  let aux_times =
    List.concat_map (fun id -> Cluster.series r.cluster id "aux_msg_at") (Scenario.aux_ids r)
    |> List.sort compare
  in
  let reconfig_at =
    List.filter_map
      (fun id ->
        match Cluster.series r.cluster id "reconfig_at" with
        | [] -> None
        | ts -> Some (List.fold_left Float.min infinity ts))
      (List.filter (Engine.is_up (Cluster.engine r.cluster)) (Scenario.main_ids r))
    |> function
    | [] -> infinity
    | xs -> List.fold_left Float.min infinity xs
  in
  let gap = completion_gap_after r ~from:(crash_at -. 0.05) in
  let aux_window =
    match aux_times with
    | [] -> (infinity, neg_infinity)
    | ts -> (List.hd ts, List.fold_left Float.max neg_infinity ts)
  in
  let quiet_after = reconfig_at +. 0.1 in
  let aux_after = List.length (List.filter (fun t -> t > quiet_after) aux_times) in
  (label, r, gap, aux_window, reconfig_at -. crash_at, aux_after, crash_at)

let e3_run ~quick:_ =
  let table =
    Table.create
      ~header:
        [
          "crashed";
          "service gap";
          "reconfig after";
          "aux window";
          "aux msgs post-reconfig";
          "completed";
        ]
  in
  let outcomes = ref [] in
  List.iter
    (fun (label, target, seed) ->
      let label, r, gap, (aux_lo, aux_hi), reconfig_delay, aux_after, crash_at =
        e3_one ~seed ~crash_target:target ~label
      in
      let window =
        if aux_hi < aux_lo then "none"
        else Printf.sprintf "%s..%s" (ms (aux_lo -. crash_at)) (ms (aux_hi -. crash_at))
      in
      Table.add_row table
        [
          label;
          ms gap;
          ms reconfig_delay;
          window;
          string_of_int aux_after;
          string_of_int r.Scenario.completed;
        ];
      outcomes :=
        Outcome.make
          ~id:("E3/" ^ label)
          ~claim:"auxiliary engagement is transient: silent again after reconfiguration"
          ~expected:"0 aux msgs post-reconfig; service resumes"
          ~measured:
            (Printf.sprintf "%d aux msgs post-reconfig; finished=%b" aux_after
               r.Scenario.finished)
          ~pass:(aux_after = 0 && r.Scenario.finished)
        :: !outcomes)
    [ ("follower-main", 1, 301); ("leader-main", 0, 302) ];
  (table, List.rev !outcomes)

let e3_failover =
  { eid = "E3"; title = "Failover: crash of a main processor"; run = e3_run }

(* ------------------------------------------------------------------ *)
(* E4: fault-tolerance boundary                                        *)
(* ------------------------------------------------------------------ *)

let e4_scenarios =
  [
    ( "f=2: two mains crash sequentially",
      Scenario.Cheap 2,
      [ (0.3, Faults.Crash 1); (1.2, Faults.Crash 2) ],
      true );
    ( "f=1: main+aux crash together (2 faults > f)",
      Scenario.Cheap 1,
      [ (0.3, Faults.Crash 1); (0.3, Faults.Crash 2) ],
      false );
    ( "f=1: main crashes; aux crashes after reconfig",
      Scenario.Cheap 1,
      [ (0.3, Faults.Crash 1); (1.5, Faults.Crash 2) ],
      true );
    ( "f=1: main crashes, restarts, rejoins; other main crashes",
      Scenario.Cheap 1,
      [ (0.3, Faults.Crash 1); (0.9, Faults.Restart 1); (2.0, Faults.Crash 0) ],
      true );
    ( "f=1 classic: one replica crashes",
      Scenario.Classic 1,
      [ (0.3, Faults.Crash 1) ],
      true );
  ]

let e4_run ~quick =
  let total = if quick then 600 else 1500 in
  let table =
    Table.create ~header:[ "scenario"; "expected"; "progressed"; "safe"; "completed" ]
  in
  let outcomes = ref [] in
  List.iteri
    (fun i (label, sys, faults, expect_progress) ->
      let spec =
        {
          (Scenario.default_spec ~sys) with
          seed = 400 + i;
          clients = 2;
          ops_per_client = total / 2;
          think = 2e-3;
          mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:(total / 2) seq);
          faults;
          deadline = 6.;
        }
      in
      let r = Scenario.run spec in
      let safe = match Scenario.safety r with Ok () -> true | Error _ -> false in
      let progressed = r.Scenario.finished in
      Table.add_row table
        [
          label;
          (if expect_progress then "progress" else "stall");
          string_of_bool progressed;
          string_of_bool safe;
          string_of_int r.Scenario.completed;
        ];
      outcomes :=
        Outcome.make ~id:(Printf.sprintf "E4/%d" (i + 1))
          ~claim:("tolerance boundary: " ^ label)
          ~expected:
            (Printf.sprintf "%s, safe" (if expect_progress then "progress" else "stall"))
          ~measured:(Printf.sprintf "progressed=%b, safe=%b" progressed safe)
          ~pass:(progressed = expect_progress && safe)
        :: !outcomes)
    e4_scenarios;
  (table, List.rev !outcomes)

let e4_fault_boundary =
  { eid = "E4"; title = "Fault-tolerance boundary (progress and safety)"; run = e4_run }

(* ------------------------------------------------------------------ *)
(* E5: auxiliary storage is bounded                                    *)
(* ------------------------------------------------------------------ *)

let e5_run ~quick =
  let total = if quick then 1500 else 4000 in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:501 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Kv) ()
  in
  let rng = Rng.create 77 in
  let ops = Workload.kv_ops ~rng ~keys:64 ~read_ratio:0.3 ~value_size:64 ~count:total () in
  let _, client = Cluster.add_client cluster ~think:1e-3 ~ops () in
  (* Engage the auxiliaries twice: crash main 1, let it rejoin, crash it again. *)
  Faults.schedule cluster
    [ (0.25, Faults.Crash 1); (0.6, Faults.Restart 1); (1.2, Faults.Crash 1); (1.6, Faults.Restart 1) ];
  (* Periodic probes of stable-storage footprints. *)
  let eng = Cluster.engine cluster in
  let samples = ref [] in
  let rec probe at =
    if at < 8. then
      Engine.at eng at (fun () ->
          let aux_bytes =
            List.fold_left
              (fun acc id -> max acc (Storage.bytes_used (Engine.stable eng id)))
              0 (Cluster.auxes cluster)
          in
          let aux_votes =
            List.fold_left
              (fun acc id ->
                if Engine.is_up eng id then
                  max acc (Replica.acceptor_vote_count (Cluster.replica cluster id))
                else acc)
              0 (Cluster.auxes cluster)
          in
          let main_bytes =
            List.fold_left
              (fun acc id -> max acc (Storage.bytes_used (Engine.stable eng id)))
              0 (Cluster.mains cluster)
          in
          samples := (at, aux_bytes, aux_votes, main_bytes) :: !samples;
          probe (at +. 0.05))
  in
  probe 0.05;
  let finished =
    Cluster.run_until cluster ~deadline:8. (fun () -> Cp_smr.Client.is_finished client)
  in
  let samples = List.rev !samples in
  let max3 f = List.fold_left (fun acc s -> max acc (f s)) 0 samples in
  let max_aux_bytes = max3 (fun (_, b, _, _) -> b) in
  let max_aux_votes = max3 (fun (_, _, v, _) -> v) in
  let max_main_bytes = max3 (fun (_, _, _, m) -> m) in
  let final_aux_bytes =
    match List.rev samples with (_, b, _, _) :: _ -> b | [] -> 0
  in
  let table =
    Table.create ~header:[ "quantity"; "value" ]
  in
  Table.add_row table [ "commands committed"; string_of_int (Cp_smr.Client.done_count client) ];
  Table.add_row table [ "max aux stable bytes"; string_of_int max_aux_bytes ];
  Table.add_row table [ "final aux stable bytes"; string_of_int final_aux_bytes ];
  Table.add_row table [ "max aux stored votes"; string_of_int max_aux_votes ];
  Table.add_row table [ "max main stable bytes"; string_of_int max_main_bytes ];
  Table.add_row table [ "aux/main storage ratio";
                        f2 (float_of_int max_aux_bytes /. float_of_int (max 1 max_main_bytes)) ];
  (* The structural bound: an auxiliary's votes peak at O(commands chosen
     during one failover window) — they cannot be compacted before the
     reconfiguration makes the degraded durability official — and drain back
     to (almost) nothing afterwards. In particular the peak is independent
     of log length, and always far below a main's log+snapshot footprint. *)
  let pass =
    finished && final_aux_bytes < 1024 && max_aux_bytes * 2 < max_main_bytes
  in
  let outcome =
    Outcome.make ~id:"E5" ~claim:"auxiliary storage is bounded (votes compacted to a floor)"
      ~expected:"peak O(failover-window commits) << main bytes; ~empty after"
      ~measured:
        (Printf.sprintf "aux votes peak=%d, final aux bytes=%d, main bytes=%d"
           max_aux_votes final_aux_bytes max_main_bytes)
      ~pass
  in
  (table, [ outcome ])

let e5_aux_storage = { eid = "E5"; title = "Auxiliary storage bound"; run = e5_run }

(* ------------------------------------------------------------------ *)
(* E6: ablation                                                        *)
(* ------------------------------------------------------------------ *)

let e6_policies =
  [
    ("classic", Cp_engine.Policy.classic, Scenario.Classic 1);
    ("cheap (full)", Cheap_paxos.Cheap.policy, Scenario.Cheap 1);
    ( "cheap, no reconfig",
      { Cheap_paxos.Cheap.policy with Cp_engine.Policy.name = "cheap-noreconf"; reconfigure = false },
      Scenario.Cheap 1 );
    ( "cheap, no narrow ph2",
      { Cheap_paxos.Cheap.policy with Cp_engine.Policy.name = "cheap-wide"; narrow_phase2 = false },
      Scenario.Cheap 1 );
  ]

let e6_run ~quick =
  let total = if quick then 800 else 2000 in
  let table =
    Table.create
      ~header:
        [ "policy"; "msgs/commit"; "aux rx (no fault)"; "aux rx after crash"; "completed" ]
  in
  let outcomes = ref [] in
  List.iteri
    (fun i (label, policy, sys) ->
      let _, initial = (policy, sys) in
      ignore initial;
      let initial_cfg =
        match sys with
        | Scenario.Cheap f -> Cheap_paxos.Cheap.initial_config ~f
        | Scenario.Classic f -> Cp_proto.Config.classic ~n:((2 * f) + 1)
      in
      (* Failure-free run. *)
      let run_one ~faults ~seed =
        let cluster =
          Cluster.create ~seed ~policy ~initial:initial_cfg ~app:(module Cp_smr.Counter) ()
        in
        Faults.schedule cluster faults;
        let ops = Workload.counter_ops ~count:total in
        let _, client = Cluster.add_client cluster ~think:1e-3 ~ops () in
        let _ =
          Cluster.run_until cluster ~deadline:8. (fun () -> Cp_smr.Client.is_finished client)
        in
        (cluster, client)
      in
      let c0, cl0 = run_one ~faults:[] ~seed:(600 + i) in
      let aux_ids = Cluster.auxes c0 in
      let aux_rx0 = Cluster.sum_metric c0 ~ids:aux_ids "msgs_recv" in
      let machines = Cluster.mains c0 @ Cluster.auxes c0 in
      let proto_msgs =
        List.fold_left
          (fun acc k -> acc + Cluster.sum_metric c0 ~ids:machines ("sent." ^ k))
          0 [ "p2a"; "p2b"; "commit" ]
      in
      let mpc =
        float_of_int proto_msgs /. float_of_int (max 1 (Cp_smr.Client.done_count cl0))
      in
      let c1, cl1 = run_one ~faults:[ (0.4, Faults.Crash 1) ] ~seed:(650 + i) in
      (* Auxiliary traffic in the tail of the faulted run (steady state after
         the failure was handled). *)
      let tail_from = Cluster.now c1 -. 0.5 in
      let aux_tail =
        List.fold_left
          (fun acc id ->
            acc
            + List.length
                (List.filter (fun t -> t > tail_from) (Cluster.series c1 id "aux_msg_at")))
          0 (Cluster.auxes c1)
      in
      Table.add_row table
        [
          label;
          f2 mpc;
          string_of_int aux_rx0;
          string_of_int aux_tail;
          Printf.sprintf "%d/%d" (Cp_smr.Client.done_count cl1) total;
        ];
      let expect_tail_quiet =
        policy.Cp_engine.Policy.reconfigure || not policy.Cp_engine.Policy.narrow_phase2
        (* classic & wide have no aux machines at all; no-reconfig keeps auxes busy *)
      in
      ignore expect_tail_quiet;
      outcomes :=
        Outcome.make
          ~id:(Printf.sprintf "E6/%s" policy.Cp_engine.Policy.name)
          ~claim:"ablation: narrow phase2 yields the saving; reconfig restores idleness"
          ~expected:"see table" ~measured:(Printf.sprintf "mpc=%s aux_tail=%d" (f2 mpc) aux_tail)
          ~pass:(Cp_smr.Client.done_count cl1 = total)
        :: !outcomes)
    e6_policies;
  (table, List.rev !outcomes)

let e6_ablation = { eid = "E6"; title = "Ablation of the design choices"; run = e6_run }

(* ------------------------------------------------------------------ *)
(* E7: latency                                                         *)
(* ------------------------------------------------------------------ *)

let e7_run ~quick =
  let fs = if quick then [ 1 ] else [ 1; 2 ] in
  let ops = if quick then 300 else 1000 in
  let nets =
    [ ("lan", Cp_sim.Netmodel.lan, 1.) ]
    @ if quick then [] else [ ("wan", Cp_sim.Netmodel.wan, 100.) ]
  in
  let table =
    Table.create ~header:[ "net"; "f"; "system"; "p50"; "p90"; "p99"; "mean" ]
  in
  let fmt_lat net x = if net = "wan" then ms x else us x in
  let outcomes = ref [] in
  List.iter
    (fun (net_name, net, scale) ->
      List.iter
        (fun f ->
          let run sys =
            let spec =
              {
                (counter_spec ~sys ~seed:(700 + f) ~ops) with
                net;
                (* Timeouts must track the network's RTT. *)
                params = Cp_engine.Params.scale scale Cp_engine.Params.default;
                deadline = 10. *. scale;
              }
            in
            let r = Scenario.run spec in
            let s = Stats.summarize (Scenario.client_latencies r) in
            Table.add_row table
              [ net_name; string_of_int f; sys_name sys; fmt_lat net_name s.Stats.p50;
                fmt_lat net_name s.Stats.p90; fmt_lat net_name s.Stats.p99;
                fmt_lat net_name s.Stats.mean ];
            s
          in
          let cheap = run (Scenario.Cheap f) in
          let classic = run (Scenario.Classic f) in
          outcomes :=
            Outcome.make
              ~id:(Printf.sprintf "E7/%s/f=%d" net_name f)
              ~claim:"normal-case latency comparable to classic (same round count)"
              ~expected:"cheap p50 within 1.5x of classic"
              ~measured:
                (Printf.sprintf "cheap p50=%s classic p50=%s" (fmt_lat net_name cheap.Stats.p50)
                   (fmt_lat net_name classic.Stats.p50))
              ~pass:(cheap.Stats.p50 <= 1.5 *. classic.Stats.p50)
            :: !outcomes)
        fs)
    nets;
  (table, List.rev !outcomes)

let e7_latency = { eid = "E7"; title = "Commit latency distribution"; run = e7_run }

(* ------------------------------------------------------------------ *)
(* E8: throughput                                                      *)
(* ------------------------------------------------------------------ *)

(* Every machine gets a single CPU costing [proc_cost] per message sent or
   received; the leader is the bottleneck, and it handles fewer messages per
   commit under Cheap Paxos, so Cheap saturates strictly higher on identical
   hardware. *)
let e8_proc_cost = 10e-6

let e8_run ~quick =
  let fs = if quick then [ 1 ] else [ 1; 2 ] in
  let client_counts = if quick then [ 1; 8; 32 ] else [ 1; 4; 16; 32; 64 ] in
  let per_client = if quick then 150 else 300 in
  let table =
    Table.create
      ~header:[ "f"; "clients"; "system"; "throughput (op/s)"; "mean latency" ]
  in
  let outcomes = ref [] in
  let results = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun clients ->
          List.iter
            (fun sys ->
              let spec =
                {
                  (Scenario.default_spec ~sys) with
                  seed = 800 + clients + (100 * f);
                  clients;
                  ops_per_client = per_client;
                  mk_ops =
                    (fun ~client_idx:_ seq -> Workload.counter_ops ~count:per_client seq);
                  deadline = 60.;
                  proc_time = Some e8_proc_cost;
                }
              in
              let r = Scenario.run spec in
              let tput = Scenario.throughput r in
              let s = Stats.summarize (Scenario.client_latencies r) in
              Hashtbl.replace results (f, clients, sys_name sys) tput;
              Table.add_row table
                [
                  string_of_int f; string_of_int clients; sys_name sys; f1 tput;
                  us s.Stats.mean;
                ])
            [ Scenario.Cheap f; Scenario.Classic f ])
        client_counts)
    fs;
  let top = List.fold_left max 1 client_counts in
  let get k = Option.value ~default:0. (Hashtbl.find_opt results k) in
  List.iter
    (fun f ->
      let cheap_top = get (f, top, "cheap") and classic_top = get (f, top, "classic") in
      (* The leader handles 3f+2 messages per commit under Cheap and 6f+2
         under Classic, so the saturation ratio should approach
         (6f+2)/(3f+2). *)
      let predicted = float_of_int ((6 * f) + 2) /. float_of_int ((3 * f) + 2) in
      outcomes :=
        Outcome.make
          ~id:(Printf.sprintf "E8/f=%d" f)
          ~claim:"under a per-node CPU budget, cheap saturates above classic"
          ~expected:(Printf.sprintf "ratio near %.2fx (>= 1.15x)" predicted)
          ~measured:
            (Printf.sprintf "cheap=%s classic=%s ratio=%.2fx" (f1 cheap_top)
               (f1 classic_top)
               (cheap_top /. Float.max 1. classic_top))
          ~pass:(cheap_top >= 1.15 *. classic_top)
        :: !outcomes)
    fs;
  (table, List.rev !outcomes)

let e8_throughput =
  { eid = "E8"; title = "Saturation throughput under a per-node CPU budget"; run = e8_run }

(* ------------------------------------------------------------------ *)
(* E9: long-run availability under repeated failure/repair cycles      *)
(* ------------------------------------------------------------------ *)

(* Machines crash and are repaired repeatedly over a long run; we measure
   the fraction of time the service answers (windows with at least one
   completion) and how busy the auxiliaries were overall. The paper's
   operational story: the system rides through an unbounded number of main
   failures as long as repairs come between them, with auxiliaries active
   only a small fraction of the time. *)
let e9_run ~quick =
  let horizon = if quick then 6. else 15. in
  let window = 0.05 in
  let table =
    Table.create
      ~header:
        [ "system"; "crash cycles"; "availability"; "aux busy fraction"; "reconfigs" ]
  in
  let outcomes = ref [] in
  let run_sys sys =
    let policy, initial =
      match sys with
      | `Cheap -> (Cheap_paxos.Cheap.policy, Cheap_paxos.Cheap.initial_config ~f:1)
      | `Classic -> (Cp_engine.Policy.classic, Cp_proto.Config.classic ~n:3)
    in
    let cluster =
      Cluster.create ~seed:901 ~policy ~initial ~app:(module Cp_smr.Counter) ()
    in
    (* Alternate crashing machines 1 and 0 with repair in between: an
       unbounded failure sequence, one at a time. *)
    let cycles = int_of_float (horizon /. 1.5) in
    let faults =
      List.concat
        (List.init cycles (fun i ->
             let base = 0.5 +. (1.5 *. float_of_int i) in
             let victim = if i mod 2 = 0 then 1 else 0 in
             [ (base, Cp_runtime.Faults.Crash victim);
               (base +. 0.6, Cp_runtime.Faults.Restart victim) ]))
    in
    Faults.schedule cluster faults;
    let total = 100000 in
    let _, client =
      Cluster.add_client cluster ~think:2e-3
        ~ops:(fun s -> if s <= total then Some (Cp_smr.Counter.inc 1) else None)
        ()
    in
    Cluster.run ~until:horizon cluster;
    let done_at = Cluster.series cluster 1000 "done_at" in
    let windows = int_of_float (horizon /. window) in
    let hit = Array.make windows false in
    List.iter
      (fun t ->
        let w = int_of_float (t /. window) in
        if w >= 0 && w < windows then hit.(w) <- true)
      done_at;
    let live = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 hit in
    let availability = float_of_int live /. float_of_int windows in
    let aux_busy =
      match Cluster.auxes cluster with
      | [] -> 0.
      | auxes ->
        let ts = List.concat_map (fun a -> Cluster.series cluster a "aux_msg_at") auxes in
        let busy = Array.make windows false in
        List.iter
          (fun t ->
            let w = int_of_float (t /. window) in
            if w >= 0 && w < windows then busy.(w) <- true)
          ts;
        float_of_int (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 busy)
        /. float_of_int windows
    in
    let reconfigs =
      Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "reconfig_remove"
      + Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "reconfig_add"
    in
    let name = match sys with `Cheap -> "cheap" | `Classic -> "classic" in
    Table.add_row table
      [
        name; string_of_int cycles; Table.fmt_pct availability; Table.fmt_pct aux_busy;
        string_of_int reconfigs;
      ];
    (availability, aux_busy, ignore (Inspect.check_safety cluster), client)
  in
  let cheap_avail, cheap_aux_busy, _, _ = run_sys `Cheap in
  let classic_avail, _, _, _ = run_sys `Classic in
  outcomes :=
    [
      Outcome.make ~id:"E9/availability"
        ~claim:"rides through an unbounded failure sequence with repair between"
        ~expected:"availability > 90%, within 5pp of classic"
        ~measured:
          (Printf.sprintf "cheap=%s classic=%s" (Table.fmt_pct cheap_avail)
             (Table.fmt_pct classic_avail))
        ~pass:(cheap_avail > 0.90 && cheap_avail >= classic_avail -. 0.05);
      Outcome.make ~id:"E9/aux-duty"
        ~claim:"auxiliaries are active only transiently, per failure"
          (* One crash per 1.5 s simulated is an extreme failure rate
             (~60k crashes/day); even so the auxiliaries' duty cycle stays
             bounded by (engagement length x failure rate), well below
             always-on. *)
        ~expected:"aux busy < 35% of windows at 0.7 crashes/s"
        ~measured:(Table.fmt_pct cheap_aux_busy)
        ~pass:(cheap_aux_busy < 0.35);
    ];
  (table, !outcomes)

let e9_availability =
  {
    eid = "E9";
    title = "Long-run availability under repeated failure/repair";
    run = e9_run;
  }

(* ------------------------------------------------------------------ *)
(* E10: leader read leases (extension beyond the paper)                *)
(* ------------------------------------------------------------------ *)

(* Not a DSN 2004 claim: leases are the standard SMR read optimization, and
   the interesting interaction is that the Cheap Paxos lease must span every
   configuration still governing the log tail (see Replica.lease_valid). We
   measure what a downstream user cares about: consensus instances and
   messages consumed by a read-heavy workload, with and without leases. *)
let e10_run ~quick =
  let total = if quick then 600 else 2000 in
  let read_ratio = 0.9 in
  let table =
    Table.create
      ~header:[ "leases"; "ops"; "lease reads"; "log instances"; "msgs/op"; "mean latency" ]
  in
  let run_one ~leases ~seed =
    let params = { Cp_engine.Params.default with Cp_engine.Params.enable_leases = leases } in
    let cluster =
      Cluster.create ~seed ~params ~policy:Cheap_paxos.Cheap.policy
        ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
        ~app:(module Cp_smr.Kv) ()
    in
    let rng = Rng.create (seed + 1) in
    let ops = Workload.kv_ops ~rng ~keys:32 ~read_ratio ~count:total () in
    let _, client = Cluster.add_client cluster ~is_read:Cp_smr.Kv.read_only ~ops () in
    let finished =
      Cluster.run_until cluster ~deadline:30. (fun () -> Cp_smr.Client.is_finished client)
    in
    let machines = Cluster.mains cluster @ Cluster.auxes cluster in
    let msgs =
      List.fold_left
        (fun acc k -> acc + Cluster.sum_metric cluster ~ids:machines ("sent." ^ k))
        0 [ "p2a"; "p2b"; "commit"; "client_resp" ]
    in
    let lease_reads = Cluster.sum_metric cluster ~ids:machines "lease_reads" in
    let chosen =
      List.fold_left
        (fun acc id ->
          max acc (Cp_engine.Replica.prefix (Cluster.replica cluster id)))
        0 (Cluster.mains cluster)
    in
    let lat = Stats.summarize (Cluster.series cluster 1000 "latency") in
    Table.add_row table
      [
        (if leases then "on" else "off");
        string_of_int total;
        string_of_int lease_reads;
        string_of_int chosen;
        f2 (float_of_int msgs /. float_of_int total);
        us lat.Stats.mean;
      ];
    (finished, lease_reads, chosen)
  in
  let on_finished, on_reads, on_chosen = run_one ~leases:true ~seed:1001 in
  let off_finished, _, off_chosen = run_one ~leases:false ~seed:1001 in
  let outcome =
    Outcome.make ~id:"E10 (ext)"
      ~claim:"leader leases serve reads without consensus instances"
      ~expected:"lease run uses ~write-count instances; baseline uses ~op-count"
      ~measured:
        (Printf.sprintf "lease: %d reads local, %d instances; baseline: %d instances"
           on_reads on_chosen off_chosen)
      ~pass:
        (on_finished && off_finished
        && on_reads > total / 2
        && on_chosen * 2 < off_chosen)
  in
  (table, [ outcome ])

let e10_lease_reads =
  { eid = "E10"; title = "Leader read leases (extension)"; run = e10_run }

(* ------------------------------------------------------------------ *)
(* E11: batching (extension beyond the paper)                          *)
(* ------------------------------------------------------------------ *)

(* Classic SMR optimization: the leader packs queued commands into one log
   instance, dividing the per-command consensus cost by the achieved batch
   size. Measured under the per-node CPU budget so the saving shows up as
   saturation throughput, on both systems. *)
let e11_run ~quick =
  let batches = if quick then [ 1; 16 ] else [ 1; 8; 32 ] in
  let clients = 64 in
  let per_client = if quick then 80 else 200 in
  let table =
    Table.create
      ~header:[ "batch_max"; "system"; "throughput (op/s)"; "msgs/cmd"; "instances/cmd" ]
  in
  let outcomes = ref [] in
  let results = Hashtbl.create 8 in
  List.iter
    (fun batch ->
      List.iter
        (fun sys ->
          let params =
            {
              Cp_engine.Params.default with
              Cp_engine.Params.batch_max_cmds = batch;
              (* A shallow pipeline is what lets batches accumulate. *)
              pipeline_window =
                (if batch > 1 then 2
                 else Cp_engine.Params.default.Cp_engine.Params.pipeline_window);
            }
          in
          let spec =
            {
              (Scenario.default_spec ~sys) with
              seed = 1100 + batch;
              params;
              clients;
              ops_per_client = per_client;
              mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:per_client seq);
              deadline = 60.;
              proc_time = Some 10e-6;
            }
          in
          let r = Scenario.run spec in
          let total = clients * per_client in
          let instances =
            List.fold_left
              (fun acc id -> max acc (Replica.prefix (Cluster.replica r.Scenario.cluster id)))
              0 (Scenario.main_ids r)
          in
          Hashtbl.replace results (batch, sys_name sys) (Scenario.throughput r);
          Table.add_row table
            [
              string_of_int batch;
              sys_name sys;
              f1 (Scenario.throughput r);
              f2 (Scenario.protocol_msgs_per_commit r);
              f2 (float_of_int instances /. float_of_int total);
            ])
        [ Scenario.Cheap 1; Scenario.Classic 1 ])
    batches;
  let lo = List.hd batches and hi = List.nth batches (List.length batches - 1) in
  let get k = Option.value ~default:0. (Hashtbl.find_opt results k) in
  outcomes :=
    [
      Outcome.make ~id:"E11 (ext)"
        ~claim:"batching multiplies saturation throughput on both systems"
        ~expected:"throughput(batch=hi) >= 1.5x throughput(batch=1)"
        ~measured:
          (Printf.sprintf "cheap: %s -> %s op/s; classic: %s -> %s op/s"
             (f1 (get (lo, "cheap"))) (f1 (get (hi, "cheap")))
             (f1 (get (lo, "classic"))) (f1 (get (hi, "classic"))))
        ~pass:
          (get (hi, "cheap") >= 1.5 *. get (lo, "cheap")
          && get (hi, "classic") >= 1.5 *. get (lo, "classic"));
    ];
  (table, !outcomes)

let e11_batching = { eid = "E11"; title = "Command batching (extension)"; run = e11_run }

(* ------------------------------------------------------------------ *)
(* E12: the paper's economics - hardware cost vs availability          *)
(* ------------------------------------------------------------------ *)

(* Analytic table quantifying the paper's motivation: pricing a main at 1.0
   and an auxiliary at 0.1, how much of the hardware bill does Cheap Paxos
   remove, and what does the static-quorum availability bound say? (The
   static bound is pessimistic for Cheap Paxos: with repair via
   reconfiguration it rides failure sequences, measured in E9.) We validate
   one availability cell by Monte-Carlo over the simulator's RNG. *)
let e12_run ~quick =
  let fs = [ 1; 2; 3 ] in
  let p = 0.99 in
  let table =
    Table.create
      ~header:
        [ "f"; "system"; "machines"; "hw cost"; "saving"; "static avail (p=0.99)" ]
  in
  List.iter
    (fun f ->
      List.iter
        (fun sys ->
          Table.add_row table
            [
              string_of_int f;
              Format.asprintf "%a" Analysis.pp_system sys;
              string_of_int (Analysis.machines sys ~f);
              Table.fmt_float (Analysis.hardware_cost sys ~f);
              (match sys with
              | Analysis.Cheap -> Table.fmt_pct (Analysis.cost_saving ~f ())
              | Analysis.Classic -> "-");
              Printf.sprintf "%.6f" (Analysis.static_availability sys ~f ~p);
            ])
        [ Analysis.Cheap; Analysis.Classic ])
    fs;
  (* Monte-Carlo check of the f=1 Cheap cell: draw machine up/down states
     and test commit-feasibility directly against the quorum definition. *)
  let trials = if quick then 20_000 else 200_000 in
  let rng = Rng.create 4242 in
  let hits = ref 0 in
  for _ = 1 to trials do
    let up () = Rng.bool rng p in
    let m0 = up () and m1 = up () and a0 = up () in
    let ups = List.length (List.filter Fun.id [ m0; m1; a0 ]) in
    if (m0 || m1) && ups >= 2 then incr hits
  done;
  let mc = float_of_int !hits /. float_of_int trials in
  let analytic = Analysis.static_availability Analysis.Cheap ~f:1 ~p in
  let outcome =
    Outcome.make ~id:"E12"
      ~claim:"hardware saving with quantified availability trade-off"
      ~expected:(Printf.sprintf "analytic avail %.4f (Monte-Carlo agrees)" analytic)
      ~measured:(Printf.sprintf "Monte-Carlo %.4f; saving at f=2: %s" mc
                   (Table.fmt_pct (Analysis.cost_saving ~f:2 ())))
      ~pass:(Float.abs (mc -. analytic) < 0.005 && Analysis.cost_saving ~f:2 () > 0.3)
  in
  (table, [ outcome ])

let e12_cost =
  { eid = "E12"; title = "Hardware cost vs availability (analytic + Monte-Carlo)";
    run = e12_run }

(* ------------------------------------------------------------------ *)
(* E13: open-loop latency vs offered load (the hockey stick)           *)
(* ------------------------------------------------------------------ *)

let e13_run ~quick =
  let rates =
    if quick then [ 2_000.; 10_000.; 18_000. ]
    else [ 2_000.; 6_000.; 10_000.; 14_000.; 18_000.; 22_000. ]
  in
  let horizon = if quick then 1.5 else 3.0 in
  let table =
    Table.create
      ~header:[ "offered (op/s)"; "system"; "achieved (op/s)"; "p50"; "p99"; "shed" ]
  in
  let results = Hashtbl.create 16 in
  List.iter
    (fun rate ->
      List.iter
        (fun (sys_label, policy, initial) ->
          let cluster =
            Cluster.create ~seed:(1300 + int_of_float rate) ~proc_time:10e-6 ~policy
              ~initial ~app:(module Cp_smr.Counter) ()
          in
          let id, client =
            Cluster.add_open_client cluster ~rate ~max_outstanding:256
              ~ops:(fun _ -> Some (Cp_smr.Counter.inc 1))
              ()
          in
          ignore client;
          Cluster.run ~until:horizon cluster;
          let lats = Cluster.series cluster id "latency" in
          let s = Stats.summarize lats in
          let achieved = float_of_int (List.length lats) /. horizon in
          Hashtbl.replace results (rate, sys_label) (achieved, s.Stats.p99);
          Table.add_row table
            [
              f1 rate; sys_label; f1 achieved; us s.Stats.p50; us s.Stats.p99;
              string_of_int (Cluster.metric cluster id "shed");
            ])
        [
          ("cheap", Cheap_paxos.Cheap.policy, Cheap_paxos.Cheap.initial_config ~f:1);
          ("classic", Cp_engine.Policy.classic, Cp_proto.Config.classic ~n:3);
        ])
    rates;
  let lo = List.hd rates and hi = List.nth rates (List.length rates - 1) in
  let get k = Option.value ~default:(0., 0.) (Hashtbl.find_opt results k) in
  let cheap_hi, _ = get (hi, "cheap") in
  let classic_hi, _ = get (hi, "classic") in
  let _, cheap_p99_lo = get (lo, "cheap") in
  let _, cheap_p99_hi = get (hi, "cheap") in
  let outcome =
    Outcome.make ~id:"E13"
      ~claim:"open-loop overload: latency explodes past saturation; cheap saturates higher"
      ~expected:"p99 grows >=3x from low to overload; cheap achieved > classic at peak"
      ~measured:
        (Printf.sprintf "cheap p99 %s -> %s; achieved at peak: cheap=%s classic=%s"
           (us cheap_p99_lo) (us cheap_p99_hi) (f1 cheap_hi) (f1 classic_hi))
      ~pass:(cheap_p99_hi >= 3. *. cheap_p99_lo && cheap_hi > classic_hi)
  in
  (table, [ outcome ])

let e13_open_loop =
  { eid = "E13"; title = "Open-loop latency vs offered load"; run = e13_run }

(* ------------------------------------------------------------------ *)

let all =
  [
    e1_message_cost;
    e2_work_per_class;
    e3_failover;
    e4_fault_boundary;
    e5_aux_storage;
    e6_ablation;
    e7_latency;
    e8_throughput;
    e9_availability;
    e10_lease_reads;
    e11_batching;
    e12_cost;
    e13_open_loop;
  ]

let run_all ?(quick = false) () =
  List.concat_map
    (fun e ->
      let table, outcomes = e.run ~quick in
      Table.print ~title:(Printf.sprintf "%s: %s" e.eid e.title) table;
      outcomes)
    all
