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

type clock = Sim | Wall

type exp = {
  eid : string;
  title : string;
  clock : clock;
  run : quick:bool -> (string * Table.t) list * Outcome.t list;
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
  ([ ("", table) ], List.rev !outcomes)

let e1_message_cost =
  { eid = "E1"; title = "Normal-case message cost per committed command"; clock = Sim;
    run = e1_run }

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
  ([ ("", table) ], List.rev !outcomes)

let e2_work_per_class =
  { eid = "E2"; title = "Per-command work by machine class"; clock = Sim; run = e2_run }

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
  ([ ("", table) ], List.rev !outcomes)

let e3_failover =
  { eid = "E3"; title = "Failover: crash of a main processor"; clock = Sim; run = e3_run }

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
  ([ ("", table) ], List.rev !outcomes)

let e4_fault_boundary =
  { eid = "E4"; title = "Fault-tolerance boundary (progress and safety)"; clock = Sim;
    run = e4_run }

(* ------------------------------------------------------------------ *)
(* E5: auxiliary storage is bounded                                    *)
(* ------------------------------------------------------------------ *)

let e5_run ~quick =
  let total = if quick then 1500 else 4000 in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:501 ~params:Scenario.per_command_params
      ~policy:Cheap_paxos.Cheap.policy ~initial ~app:(module Cp_smr.Kv) ()
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
  ([ ("", table) ], [ outcome ])

let e5_aux_storage =
  { eid = "E5"; title = "Auxiliary storage bound"; clock = Sim; run = e5_run }

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
      let initial_cfg =
        match sys with
        | Scenario.Cheap f -> Cheap_paxos.Cheap.initial_config ~f
        | Scenario.Classic f -> Cp_proto.Config.classic ~n:((2 * f) + 1)
      in
      (* Failure-free run. *)
      let run_one ~faults ~seed =
        let cluster =
          Cluster.create ~seed ~params:Scenario.per_command_params ~policy
            ~initial:initial_cfg ~app:(module Cp_smr.Counter) ()
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
      outcomes :=
        Outcome.make
          ~id:(Printf.sprintf "E6/%s" policy.Cp_engine.Policy.name)
          ~claim:"ablation: narrow phase2 yields the saving; reconfig restores idleness"
          ~expected:"see table" ~measured:(Printf.sprintf "mpc=%s aux_tail=%d" (f2 mpc) aux_tail)
          ~pass:(Cp_smr.Client.done_count cl1 = total)
        :: !outcomes)
    e6_policies;
  ([ ("", table) ], List.rev !outcomes)

let e6_ablation =
  { eid = "E6"; title = "Ablation of the design choices"; clock = Sim; run = e6_run }

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
                params = Cp_engine.Params.scale scale Scenario.per_command_params;
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
  ([ ("", table) ], List.rev !outcomes)

let e7_latency =
  { eid = "E7"; title = "Commit latency distribution"; clock = Sim; run = e7_run }

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
  ([ ("", table) ], List.rev !outcomes)

let e8_throughput =
  { eid = "E8"; title = "Saturation throughput under a per-node CPU budget"; clock = Sim;
    run = e8_run }

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
      Cluster.create ~seed:901 ~params:Scenario.per_command_params ~policy ~initial
        ~app:(module Cp_smr.Counter) ()
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
  ([ ("", table) ], !outcomes)

let e9_availability =
  { eid = "E9"; title = "Long-run availability under repeated failure/repair"; clock = Sim;
    run = e9_run }

(* ------------------------------------------------------------------ *)
(* E10: leader read leases (extension beyond the paper)                *)
(* ------------------------------------------------------------------ *)

(* Not a DSN 2004 claim: leases are the standard SMR read optimization, and
   the interesting interaction is that the Cheap Paxos lease must span every
   configuration still governing the log tail (see Replica.lease_valid). We
   measure what a downstream user cares about: consensus instances and
   messages consumed by a read-heavy workload, with and without leases.

   Three legs share the table. One client shows the instance saving. 384
   closed-loop clients saturate the ordered path: log-ordered reads cap out
   at pipeline_window / commit latency however many clients offer load,
   while lease reads keep scaling (one client RTT each, no instance).
   Randomized fault schedules partition the leaseholder (with two of its
   clients) away from the other main and the auxiliary mid-lease: the
   cut-off side must stop serving reads once its lease can have expired,
   while the majority elects through the auxiliary and commits writes. *)

(* When the last response arrived: [wall] is quantized to the run_until
   step, the clients' "done_at" series is exact. *)
let last_done cluster handles =
  List.fold_left
    (fun acc (id, _) -> List.fold_left Float.max acc (Cluster.series cluster id "done_at"))
    0. handles

let e10_run ~quick =
  let total = if quick then 600 else 2000 in
  let read_ratio = 0.9 in
  let table =
    Table.create
      ~header:
        [
          "run"; "leases"; "clients"; "ops"; "lease reads"; "fallbacks"; "log instances";
          "msgs/op"; "mean latency"; "op/s"; "wire B/read";
        ]
  in
  (* Wire cost of one read on each path, measured with the real codec. *)
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
  let add_row ~run ~leases cluster handles =
    let machines = Cluster.mains cluster @ Cluster.auxes cluster in
    let sum name = Cluster.sum_metric cluster ~ids:machines name in
    let completed =
      List.fold_left (fun acc (_, c) -> acc + Cp_smr.Client.done_count c) 0 handles
    in
    let msgs =
      List.fold_left (fun acc k -> acc + sum ("sent." ^ k)) 0
        [ "p2a"; "p2b"; "commit"; "client_resp" ]
    in
    let chosen =
      List.fold_left
        (fun acc id -> max acc (Replica.prefix (Cluster.replica cluster id)))
        0 (Cluster.mains cluster)
    in
    let lat =
      Stats.summarize (List.concat_map (fun (id, _) -> Cluster.series cluster id "latency") handles)
    in
    let tput = float_of_int completed /. last_done cluster handles in
    Table.add_row table
      [
        run;
        (if leases then "on" else "off");
        string_of_int (List.length handles);
        string_of_int completed;
        string_of_int (sum "lease_reads");
        string_of_int (sum "lease_read_fallbacks");
        string_of_int chosen;
        f2 (float_of_int msgs /. float_of_int (max 1 completed));
        us lat.Stats.mean;
        f1 tput;
        string_of_int (if leases then leased_read_bytes else ordered_read_bytes);
      ];
    (sum "lease_reads", chosen, tput)
  in
  let one_client ~leases =
    let seed = 1001 in
    let params =
      { Scenario.per_command_params with Cp_engine.Params.enable_leases = leases }
    in
    let cluster =
      Cluster.create ~seed ~params ~policy:Cheap_paxos.Cheap.policy
        ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
        ~app:(module Cp_smr.Kv) ()
    in
    let rng = Rng.create (seed + 1) in
    let ops = Workload.kv_ops ~rng ~keys:32 ~read_ratio ~count:total () in
    let ((_, client) as handle) =
      Cluster.add_client cluster ~is_read:Cp_smr.Kv.read_only ~ops ()
    in
    let finished =
      Cluster.run_until cluster ~deadline:30. (fun () -> Cp_smr.Client.is_finished client)
    in
    let reads, chosen, _ = add_row ~run:"1 client" ~leases cluster [ handle ] in
    (finished, reads, chosen)
  in
  let on_finished, on_reads, on_chosen = one_client ~leases:true in
  let off_finished, _, off_chosen = one_client ~leases:false in
  let safe r = Scenario.safety r = Ok () in
  let kv_spec ~seed ~leases ~clients ~per_client ~keys ~rng_base =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      seed;
      params =
        (* Batching off: the comparison isolates per-read ordering cost
           (one consensus instance per read) against the lease fast path. *)
        { Scenario.per_command_params with Cp_engine.Params.enable_leases = leases };
      clients;
      ops_per_client = per_client;
      app = (module Cp_smr.Kv);
      mk_ops =
        (fun ~client_idx ->
          (* Per-client RNG keyed only by the index, so both lease settings
             offer an identical workload. *)
          Workload.kv_ops ~rng:(Rng.create (rng_base + client_idx)) ~keys ~read_ratio
            ~count:per_client ());
      is_read = Cp_smr.Kv.read_only;
      deadline = 60.;
    }
  in
  let saturate ~leases =
    let per_client = if quick then 25 else 60 in
    let r =
      Scenario.run (kv_spec ~seed:44 ~leases ~clients:384 ~per_client ~keys:64 ~rng_base:7000)
    in
    let _, _, tput = add_row ~run:"384 clients" ~leases r.cluster r.client_handles in
    (r, tput)
  in
  let ordered, ordered_tput = saturate ~leases:false in
  let leased, leased_tput = saturate ~leases:true in
  let speedup = leased_tput /. ordered_tput in
  let fault_run seed =
    let rng = Rng.create (900 + seed) in
    let t_part = 0.03 +. Rng.float rng 0.05 in
    let t_heal = t_part +. 0.05 +. Rng.float rng 0.05 in
    let spec =
      {
        (kv_spec ~seed ~leases:true ~clients:4 ~per_client:120 ~keys:4
           ~rng_base:(8000 + (100 * seed)))
        with
        params =
          { Scenario.per_command_params with Cp_engine.Params.enable_leases = true };
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
    let r = Scenario.run spec in
    ignore
      (add_row
         ~run:(Printf.sprintf "partition %.4f-%.4fs (seed %d)" t_part t_heal seed)
         ~leases:true r.cluster r.client_handles);
    let hist = List.concat_map (fun (_, c) -> Cp_smr.Client.history c) r.client_handles in
    let lin =
      match Cp_checker.Linearizability.check_kv hist with Ok b -> b | Error _ -> false
    in
    (* Linearizability over the merged client histories, plus the
       trace-level no-stale-read checker inside [Scenario.safety]. *)
    r.finished && lin && safe r
  in
  let fault_seeds = if quick then [ 61; 62 ] else [ 61; 62; 63; 64 ] in
  let fault_ok = List.map fault_run fault_seeds in
  let outcomes =
    [
      Outcome.make ~id:"E10 (ext)"
        ~claim:"leader leases serve reads without consensus instances"
        ~expected:"lease run uses ~write-count instances; baseline uses ~op-count"
        ~measured:
          (Printf.sprintf "lease: %d reads local, %d instances; baseline: %d instances"
             on_reads on_chosen off_chosen)
        ~pass:(on_finished && off_finished && on_reads > total / 2 && on_chosen * 2 < off_chosen);
      Outcome.make ~id:"E10/384-safe"
        ~claim:"both 384-client read runs finish and pass the safety battery"
        ~expected:"finished, safe"
        ~measured:
          (Printf.sprintf "ordered: finished=%b safe=%b; leased: finished=%b safe=%b"
             ordered.finished (safe ordered) leased.finished (safe leased))
        ~pass:(ordered.finished && leased.finished && safe ordered && safe leased);
      Outcome.make ~id:"E10/384-aux-idle"
        ~claim:"lease reads leave the auxiliaries quiescent"
        ~expected:"no aux deliveries"
        ~measured:(match Scenario.aux_quiescent leased with Ok () -> "none" | Error e -> e)
        ~pass:(Scenario.aux_quiescent leased = Ok ());
      Outcome.make ~id:"E10/384-speedup"
        ~claim:"lease reads multiply read-heavy throughput at saturation"
        ~expected:">= 5x"
        ~measured:
          (Printf.sprintf "%s -> %s op/s (%.2fx)" (f1 ordered_tput) (f1 leased_tput) speedup)
        ~pass:(speedup >= 5.0);
      Outcome.make ~id:"E10/lease-faults"
        ~claim:"partitioning the leaseholder mid-lease never serves a stale read"
        ~expected:"every schedule finishes, linearizable, safe"
        ~measured:
          (Printf.sprintf "%d/%d schedules ok"
             (List.length (List.filter Fun.id fault_ok))
             (List.length fault_ok))
        ~pass:(List.for_all Fun.id fault_ok);
    ]
  in
  ([ ("", table) ], outcomes)

let e10_lease_reads =
  { eid = "E10"; title = "Leader read leases (extension)"; clock = Sim; run = e10_run }

(* ------------------------------------------------------------------ *)
(* E11: batching (extension beyond the paper)                          *)
(* ------------------------------------------------------------------ *)

(* Classic SMR optimization: the leader packs queued commands into one log
   instance, dividing the per-command consensus cost by the achieved batch
   size. Measured under the per-node CPU budget so the saving shows up as
   saturation throughput, on both systems. Cheap's two ends also carry the
   batching gate: both runs safe, the auxiliaries quiescent while batching,
   and at least 2x. *)
let e11_run ~quick =
  let batches = if quick then [ 1; 16 ] else [ 1; 8; 32 ] in
  let clients = 64 in
  let per_client = if quick then 80 else 200 in
  let table =
    Table.create
      ~header:[ "batch_max"; "system"; "throughput (op/s)"; "msgs/cmd"; "instances/cmd" ]
  in
  let results = Hashtbl.create 8 in
  List.iter
    (fun batch ->
      List.iter
        (fun sys ->
          let params =
            {
              Scenario.per_command_params with
              Cp_engine.Params.batch_max_cmds = batch;
              (* A partial batch waits while any instance is in flight; a
                 shallow pipeline holds full ones back too. *)
              pipeline_window =
                (if batch > 1 then 2
                 else Scenario.per_command_params.Cp_engine.Params.pipeline_window);
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
          Hashtbl.replace results (batch, sys_name sys) r;
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
  let tput k = Scenario.throughput (Hashtbl.find results k) in
  let cheap_lo = Hashtbl.find results (lo, "cheap") in
  let cheap_hi = Hashtbl.find results (hi, "cheap") in
  let safe r = r.Scenario.finished && Scenario.safety r = Ok () in
  let cheap_speedup = tput (hi, "cheap") /. tput (lo, "cheap") in
  let outcomes =
    [
      Outcome.make ~id:"E11 (ext)"
        ~claim:"batching multiplies saturation throughput on both systems"
        ~expected:"throughput(batch=hi) >= 1.5x throughput(batch=1)"
        ~measured:
          (Printf.sprintf "cheap: %s -> %s op/s; classic: %s -> %s op/s"
             (f1 (tput (lo, "cheap"))) (f1 (tput (hi, "cheap")))
             (f1 (tput (lo, "classic"))) (f1 (tput (hi, "classic"))))
        ~pass:
          (tput (hi, "cheap") >= 1.5 *. tput (lo, "cheap")
          && tput (hi, "classic") >= 1.5 *. tput (lo, "classic"));
      Outcome.make ~id:"E11/cheap-safe"
        ~claim:"cheap runs at batch=1 and batch=hi finish and pass the safety battery"
        ~expected:"finished, safe"
        ~measured:(Printf.sprintf "batch=1: %b; batch=%d: %b" (safe cheap_lo) hi (safe cheap_hi))
        ~pass:(safe cheap_lo && safe cheap_hi);
      Outcome.make ~id:"E11/cheap-aux-idle"
        ~claim:"batching leaves the auxiliaries quiescent"
        ~expected:"no aux deliveries"
        ~measured:(match Scenario.aux_quiescent cheap_hi with Ok () -> "none" | Error e -> e)
        ~pass:(Scenario.aux_quiescent cheap_hi = Ok ());
      Outcome.make ~id:"E11/cheap-2x"
        ~claim:"batching at least doubles cheap's saturation throughput"
        ~expected:">= 2x"
        ~measured:(Printf.sprintf "%.2fx" cheap_speedup)
        ~pass:(cheap_speedup >= 2.0);
    ]
  in
  ([ ("", table) ], outcomes)

let e11_batching =
  { eid = "E11"; title = "Command batching (extension)"; clock = Sim; run = e11_run }

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
  ([ ("", table) ], [ outcome ])

let e12_cost =
  { eid = "E12"; title = "Hardware cost vs availability (analytic + Monte-Carlo)";
    clock = Sim; run = e12_run }

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
            Cluster.create ~seed:(1300 + int_of_float rate)
              ~params:Scenario.per_command_params ~proc_time:10e-6 ~policy ~initial
              ~app:(module Cp_smr.Counter) ()
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
  ([ ("", table) ], [ outcome ])

let e13_open_loop =
  { eid = "E13"; title = "Open-loop latency vs offered load"; clock = Sim; run = e13_run }

(* ------------------------------------------------------------------ *)
(* E14-E18: the implementation's own costs                             *)
(* ------------------------------------------------------------------ *)

(* These experiments measure several legs each. Their main table is one
   row per (leg, quantity); a list of multi-valued results gets its own
   table, one row per element. *)
let leg_table () = Table.create ~header:[ "leg"; "quantity"; "value" ]

let add_leg table leg quantity value = Table.add_row table [ leg; quantity; value ]

let f3 = Table.fmt_float ~decimals:3

let f6 = Table.fmt_float ~decimals:6

let max_snd = List.fold_left (fun acc (_, x) -> Float.max acc x) 0.

let with_temp_dir f =
  let dir = Filename.temp_file "cp_experiments" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

(* E14: the observability layer's own cost and evidence. Overhead: the
   identical simulation timed wall-clock with tracing on and off. Steady
   state: with no faults the auxiliary's trace lane stays ~empty (the
   paper's claim, as a number). Failover: an engagement window opens and
   closes, and two same-seed runs render byte-identical Chrome traces
   (what the golden test pins, re-checked at bench scale). The traced
   steady run's latency spans are reported alongside. *)
let e14_run ~quick =
  let module Timeline = Cp_obs.Timeline in
  let per_client = if quick then 80 else 250 in
  let steady_spec ~obs =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      seed = 45;
      obs;
      clients = 8;
      ops_per_client = per_client;
      think = 0.;
      mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:per_client seq);
      deadline = 60.;
    }
  in
  (* Each round runs off, on, on, off, so neither side always runs second
     (back to back, the second run of a pair read up to 9% faster); min-of-N
     per side is the least-noisy estimator for a deterministic workload. The
     GC flush keeps one run's garbage off the next run's clock (each timed
     run still pays for its own allocation). The gate bounds tracing's
     absolute cost per op, not the on/off throughput ratio, whose
     denominator is the whole protocol path and so tightens whenever another
     layer gets faster; 3 us is the old 5% ratio gate at the ~62 us per op
     this scenario once cost (2-vCPU Xeon VM). The ratio is still reported. *)
  let rounds = if quick then 5 else 8 in
  let best_on = ref infinity and best_off = ref infinity and last_on = ref None in
  let timed obs =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = Scenario.run (steady_spec ~obs) in
    let dt = Unix.gettimeofday () -. t0 in
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
  let ops = steady.completed in
  let tput best = float_of_int ops /. best in
  let us_per_op = (!best_on -. !best_off) *. 1e6 /. float_of_int ops in
  (* Duty cycles over the back half of the run (skips the initial
     election), the leader's for contrast. *)
  let records = Scenario.trace steady in
  let t0 = steady.wall /. 2. and t1 = steady.wall in
  let duties ids = List.map (fun id -> (id, Timeline.duty_cycle ~node:id ~t0 ~t1 records)) ids in
  let aux_duties = duties (Scenario.aux_ids steady) in
  let main_duties = duties (Scenario.main_ids steady) in
  let failover_spec =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      seed = 46;
      clients = 2;
      ops_per_client = 40;
      think = 2e-3;
      mk_ops = (fun ~client_idx:_ seq -> Workload.counter_ops ~count:40 seq);
      faults = [ (0.02, Faults.Crash 1); (0.25, Faults.Restart 1) ];
      deadline = 10.;
    }
  in
  let first = Scenario.run failover_spec in
  let second = Scenario.run failover_spec in
  let chrome = Timeline.to_chrome (Scenario.trace first) in
  let deterministic = String.equal chrome (Timeline.to_chrome (Scenario.trace second)) in
  let windows =
    Timeline.engagement_windows ~auxes:(Scenario.aux_ids first) (Scenario.trace first)
  in
  let closed =
    List.exists
      (fun (w : Timeline.engagement) -> w.quiesced_at <> None && w.aux_msgs > 0)
      windows
  in
  let main = leg_table () in
  let row = add_leg main in
  row "overhead" "rounds" (string_of_int rounds);
  row "overhead" "ops" (string_of_int ops);
  row "overhead" "obs off, best (s)" (f6 !best_off);
  row "overhead" "obs on, best (s)" (f6 !best_on);
  row "overhead" "obs off (op/s)" (f1 (tput !best_off));
  row "overhead" "obs on (op/s)" (f1 (tput !best_on));
  row "overhead" "on/off ratio" (Table.fmt_float ~decimals:4 (tput !best_on /. tput !best_off));
  row "overhead" "tracing (us/op)" (f3 us_per_op);
  row "duty" "window start (s)" (f6 t0);
  row "duty" "window end (s)" (f6 t1);
  List.iter (fun (id, d) -> row "duty" (Printf.sprintf "aux n%d" id) (f6 d)) aux_duties;
  List.iter (fun (id, d) -> row "duty" (Printf.sprintf "main n%d" id) (f6 d)) main_duties;
  List.iter
    (fun (id, n) -> row "steady" (Printf.sprintf "ring dropped n%d" id) (string_of_int n))
    (Inspect.ring_drops steady.cluster);
  row "steady" "span dropped"
    (string_of_int
       (Cluster.sum_metric steady.cluster ~ids:(Scenario.main_ids steady) "span_dropped"));
  row "failover" "engagement windows" (string_of_int (List.length windows));
  row "failover" "chrome bytes" (string_of_int (String.length chrome));
  row "failover" "chrome deterministic" (string_of_bool deterministic);
  let window_table =
    Table.create
      ~header:
        [
          "window"; "started (s)"; "engaged (s)"; "instance"; "elected (s)"; "quiesced (s)";
          "msgs engage"; "bytes engage"; "msgs settle"; "bytes settle"; "aux msgs"; "aux bytes";
        ]
  in
  let opt = function Some t -> f6 t | None -> "-" in
  List.iteri
    (fun i (w : Timeline.engagement) ->
      Table.add_row window_table
        [
          string_of_int (i + 1); f6 w.started_at; f6 w.engaged_at;
          string_of_int w.engaged_instance; opt w.elected_at; opt w.quiesced_at;
          string_of_int w.msgs_engage; string_of_int w.bytes_engage;
          string_of_int w.msgs_settle; string_of_int w.bytes_settle;
          string_of_int w.aux_msgs; string_of_int w.aux_bytes;
        ])
    windows;
  let span_table =
    Table.create ~header:[ "phase"; "count"; "mean (s)"; "p50 (s)"; "p90 (s)"; "p99 (s)" ]
  in
  List.iter
    (fun (phase, (s : Stats.summary)) ->
      Table.add_row span_table
        [ phase; string_of_int s.count; f6 s.mean; f6 s.p50; f6 s.p90; f6 s.p99 ])
    (Scenario.span_summaries steady);
  let max_aux = max_snd aux_duties in
  let outcomes =
    [
      Outcome.make ~id:"E14/overhead" ~claim:"tracing costs at most 3 us per committed op"
        ~expected:"<= 3.00 us/op, run finished"
        ~measured:
          (Printf.sprintf "%.2f us/op (on/off %.3f), finished=%b" us_per_op
             (tput !best_on /. tput !best_off) steady.finished)
        ~pass:(steady.finished && us_per_op <= 3.0);
      Outcome.make ~id:"E14/aux-duty"
        ~claim:"the auxiliary's trace lane is idle in steady state"
        ~expected:"aux duty < 1%"
        ~measured:
          (Printf.sprintf "max aux %.4f vs main %.4f" max_aux (max_snd main_duties))
        ~pass:(max_aux < 0.01);
      Outcome.make ~id:"E14/engagement"
        ~claim:"a failover opens an engagement window that closes again"
        ~expected:"a closed window with aux msgs > 0"
        ~measured:
          (Printf.sprintf "%d windows, closed with traffic=%b, finished=%b"
             (List.length windows) closed first.finished)
        ~pass:(first.finished && closed);
      Outcome.make ~id:"E14/chrome-deterministic"
        ~claim:"same-seed runs render byte-identical Chrome traces"
        ~expected:"identical"
        ~measured:(Printf.sprintf "%d bytes, identical=%b" (String.length chrome) deterministic)
        ~pass:deterministic;
    ]
  in
  ([ ("", main); ("windows", window_table); ("spans", span_table) ], outcomes)

let e14_tracing =
  { eid = "E14"; title = "Tracing cost, auxiliary duty cycle and trace determinism";
    clock = Wall; run = e14_run }

(* E15: the same machine budget (f=1: two mains, one auxiliary) hosting one
   Cheap Paxos group versus eight key-sharded groups, driven by the same
   closed-loop client population. A single group is pipeline-window limited
   however many clients offer load; eight groups multiply the usable window.
   The auxiliary, shared by all groups, must stay quiescent in every group:
   one idle spare underwrites N groups. *)
let e15_run ~quick =
  let module Fleet = Cp_fleet.Fleet in
  let clients = 192 in
  let per_client = if quick then 15 else 40 in
  (* Batching off isolates pipeline parallelism across groups; the window is
     pinned low enough that one group's leader is the bottleneck under this
     client population: the per-group resource the fleet multiplies. *)
  let params = { Scenario.per_command_params with Cp_engine.Params.pipeline_window = 8 } in
  let table = leg_table () in
  let row = add_leg table in
  row "setup" "clients" (string_of_int clients);
  row "setup" "ops/client" (string_of_int per_client);
  row "setup" "batch_max_cmds" (string_of_int params.batch_max_cmds);
  row "setup" "pipeline_window" (string_of_int params.pipeline_window);
  let leg ~groups =
    let fleet =
      Fleet.create ~seed:47 ~params ~groups ~policy:Cheap_paxos.Cheap.policy
        ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
        ~app:(module Cp_smr.Kv) ()
    in
    let handles =
      List.init clients (fun i ->
          (* Keyed only by the client index, so both legs offer an identical
             write-only stream over 256 keys (the router spreads them across
             however many groups exist). *)
          let ops =
            Workload.kv_ops ~rng:(Rng.create (9000 + i)) ~keys:256 ~read_ratio:0.
              ~count:per_client ()
          in
          Fleet.add_client fleet ~think:0. ~ops ())
    in
    let finished =
      Fleet.run_until fleet ~deadline:120. (fun () ->
          List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles)
    in
    let metrics (id, _) = Engine.metrics (Fleet.engine fleet) id in
    let completed =
      List.fold_left (fun acc h -> acc + Cp_sim.Metrics.get (metrics h) "ops_done") 0 handles
    in
    let duration =
      List.fold_left
        (fun acc h -> List.fold_left Float.max acc (Cp_sim.Metrics.series (metrics h) "done_at"))
        0. handles
    in
    let tput = float_of_int completed /. duration in
    let name = Printf.sprintf "%d group%s" groups (if groups = 1 then "" else "s") in
    row name "completed" (string_of_int completed);
    row name "finished" (string_of_bool finished);
    row name "duration (s)" (f6 duration);
    row name "op/s" (f1 tput);
    (fleet, finished, tput)
  in
  let _, done1, tput1 = leg ~groups:1 in
  let f8, done8, tput8 = leg ~groups:8 in
  let speedup = tput8 /. tput1 in
  let gids = List.init 8 Fun.id in
  let leaders = List.map (fun gid -> Fleet.leader f8 ~gid) gids in
  let chosen =
    List.map (fun gid -> Fleet.sum_group_metric f8 ~ids:(Fleet.mains f8) ~gid "chosen") gids
  in
  List.iteri
    (fun gid leader ->
      row "8 groups" (Printf.sprintf "group %d leader" gid)
        (match leader with Some id -> Printf.sprintf "n%d" id | None -> "none"))
    leaders;
  List.iteri
    (fun gid n -> row "8 groups" (Printf.sprintf "group %d chosen" gid) (string_of_int n))
    chosen;
  (* Each (aux, group) frame count stays at the handful the group's initial
     election cost. *)
  let aux_recv = Fleet.aux_group_recv f8 in
  List.iter
    (fun (aux, gid, n) ->
      row "8 groups" (Printf.sprintf "aux n%d recv, group %d" aux gid) (string_of_int n))
    aux_recv;
  let max_recv = List.fold_left (fun acc (_, _, n) -> max acc n) 0 aux_recv in
  let outcomes =
    [
      Outcome.make ~id:"E15/finished" ~claim:"both fleet runs finish"
        ~expected:"finished" ~measured:(Printf.sprintf "1 group: %b; 8 groups: %b" done1 done8)
        ~pass:(done1 && done8);
      Outcome.make ~id:"E15/leaders" ~claim:"every group elects a leader"
        ~expected:"8/8"
        ~measured:(Printf.sprintf "%d/8" (List.length (List.filter Option.is_some leaders)))
        ~pass:(List.for_all Option.is_some leaders);
      Outcome.make ~id:"E15/spread" ~claim:"the router gives every group work"
        ~expected:"chosen > 0 in every group"
        ~measured:(Printf.sprintf "min chosen %d" (List.fold_left min max_int chosen))
        ~pass:(List.for_all (fun n -> n > 0) chosen);
      Outcome.make ~id:"E15/aux-idle"
        ~claim:"one shared auxiliary stays quiescent in every group"
        ~expected:"<= 24 msgs per (aux, group)"
        ~measured:(Printf.sprintf "max %d" max_recv)
        ~pass:(List.for_all (fun (_, _, n) -> n <= 24) aux_recv);
      Outcome.make ~id:"E15/speedup"
        ~claim:"eight groups on the same machines multiply aggregate throughput"
        ~expected:">= 4x"
        ~measured:(Printf.sprintf "%s -> %s op/s (%.2fx)" (f1 tput1) (f1 tput8) speedup)
        ~pass:(speedup >= 4.0);
    ]
  in
  ([ ("", table) ], outcomes)

let e15_fleet =
  { eid = "E15"; title = "Sharded fleet: eight groups sharing one auxiliary"; clock = Sim;
    run = e15_run }

(* E17: syscall batching and zero-copy encoding on the wire path. One
   protocol step fans a burst of P2as to each peer. The unbatched leg is
   the pre-outbox wire path (encode to a string, copy it into a Bytes, one
   sendto per frame); the batched leg is the real Cp_transport.Outbox
   (encode_into straight into the per-peer buffer, one sendto per peer per
   step). *)
let e17_run ~quick =
  let steps = if quick then 20_000 else 100_000 in
  let peers = [ 1; 2 ] in
  let frames_per_peer = 4 in
  let b = Cp_proto.Ballot.make ~round:3 ~leader:0 in
  (* A modest KV write: 64-byte op, the shape the batching experiments use. *)
  let op = "PUT k00000001 " ^ String.make 50 'v' in
  let msg i =
    Cp_proto.Types.P2a
      { ballot = b; instance = i; entry = Cp_proto.Types.App { client = 1001; seq = i; op } }
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
    let n = float_of_int steps in
    ( (Unix.gettimeofday () -. t0) /. n *. 1e9,
      float_of_int !syscalls /. n,
      float_of_int !bytes /. n,
      float_of_int !copies /. n,
      (Gc.minor_words () -. minor0) /. n )
  in
  let unbatched =
    run_leg (fun s ->
        List.iter
          (fun dst ->
            for j = 0 to frames_per_peer - 1 do
              let buf = Bytes.of_string (Cp_proto.Codec.encode (msg ((s * frames_per_peer) + j))) in
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
                Cp_transport.Outbox.append outbox ~dst ~tid:(s land 0xffff)
                  (msg ((s * frames_per_peer) + j))
              with
              | (_ : int) -> ()
              | exception Cp_proto.Codec.Overflow -> incr copies
            done)
          peers;
        Cp_transport.Outbox.flush outbox)
  in
  Unix.close sock;
  let table =
    Table.create
      ~header:
        [
          "leg"; "steps"; "frames/step"; "peers"; "ns/op"; "syscalls/op"; "bytes/op"; "copies/op";
          "minor words/op";
        ]
  in
  List.iter
    (fun (leg, (ns, sys, byt, cop, minor)) ->
      Table.add_row table
        [
          leg; string_of_int steps; string_of_int (frames_per_peer * List.length peers);
          string_of_int (List.length peers); f1 ns; f3 sys; f1 byt; f3 cop; f1 minor;
        ])
    [ ("unbatched", unbatched); ("batched", batched) ];
  let _, u_sys, _, _, u_minor = unbatched and _, b_sys, _, b_cop, b_minor = batched in
  let outcomes =
    [
      Outcome.make ~id:"E17/syscalls" ~claim:"the outbox batches frames into fewer syscalls"
        ~expected:"<= 0.7x the unbatched syscalls/op"
        ~measured:
          (Printf.sprintf "%.2f -> %.2f (-%.0f%%)" u_sys b_sys (100. *. (1. -. (b_sys /. u_sys))))
        ~pass:(b_sys <= 0.7 *. u_sys);
      Outcome.make ~id:"E17/zero-copy" ~claim:"frames are encoded in place, never copied"
        ~expected:"0 copies"
        ~measured:(Printf.sprintf "%.0f copies" (b_cop *. float_of_int steps))
        ~pass:(b_cop = 0.);
      Outcome.make ~id:"E17/alloc" ~claim:"the batched path allocates less per op"
        ~expected:"fewer minor words/op"
        ~measured:(Printf.sprintf "%.0f -> %.0f" u_minor b_minor)
        ~pass:(b_minor < u_minor);
    ]
  in
  ([ ("", table) ], outcomes)

let e17_wire =
  { eid = "E17"; title = "Wire path: syscall batching and zero-copy encoding"; clock = Wall;
    run = e17_run }

(* E18: durable storage. Fsync is the unit of cost on the persistence path
   (DESIGN.md section 9), and group commit must amortize it by the pipeline
   depth: measured directly against the same record stream flushed
   sync-per-record. Also: cold recovery of the segment replay, bytes
   amplification of the append-only format (lifetime appends vs live bytes,
   compaction on), a torn-tail crash (byte-granular, via the Faulty io)
   recovering to a clean prefix without an exception, and fsyncs per
   committed op on a WAL-backed ring fabric under 32 clients. *)
let e18_run ~quick =
  let module Wal = Cp_storage.Wal in
  with_temp_dir @@ fun base ->
  let depth = 8 in
  let batches = if quick then 200 else 1000 in
  let ops = depth * batches in
  let payload i = Printf.sprintf "%08d:%s" i (String.make 48 'v') in
  let put s i = Storage.put s (Printf.sprintf "log.%d" (i mod 256)) (payload i) in
  (* Sync-per-record: what a WAL without group commit would do. *)
  let s = Wal.store (Filename.concat base "per_record") in
  let t0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    put s i;
    Storage.flush s
  done;
  let per_record_s = Unix.gettimeofday () -. t0 in
  let a = Storage.stats s in
  Storage.close s;
  (* Group commit: one flush per batch of records. *)
  let group_dir = Filename.concat base "group" in
  let s = Wal.store group_dir in
  let t0 = Unix.gettimeofday () in
  for b = 0 to batches - 1 do
    for j = 0 to depth - 1 do
      put s ((b * depth) + j)
    done;
    Storage.flush s
  done;
  let group_s = Unix.gettimeofday () -. t0 in
  let g = Storage.stats s in
  Storage.close s;
  let per_op n = float_of_int n /. float_of_int ops in
  let fsync_ratio = per_op a.Storage.fsyncs /. Float.max (per_op g.Storage.fsyncs) 1e-9 in
  (* Lifetime appended bytes over live bytes: the 256 hot keys are
     overwritten ~ops/256 times each, so without compaction this would be
     ~ops/256; the checkpoint bound keeps it small. *)
  let disk_bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat group_dir f)).Unix.st_size)
      0 (Sys.readdir group_dir)
  in
  let live = float_of_int g.Storage.bytes_used in
  (* Cold recovery: reopen the group-commit directory, real segment replay. *)
  let s = Wal.store group_dir in
  let r = Storage.stats s in
  let recovered = List.length (Storage.keys s) in
  Storage.close s;
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
       put s i;
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
  (* The runtime's group commit end to end: the ring flushes each store once
     per pump pass, so every op a pass carries shares its fsync; a flush per
     handler would cost ~4 per op (each main persists the vote, then the
     chosen entry). *)
  let module Sc = Storage_conformance in
  let ring_factory, ring_close = Sc.wal_factory ~dir:(Filename.concat base "ring") () in
  let ring = Sc.ring_load ~ops:(if quick then 10 else 30) ~storage:ring_factory in
  ring_close ();
  let ring_per_op = float_of_int ring.Sc.fsyncs /. float_of_int (max 1 ring.Sc.committed) in
  let table = leg_table () in
  let row = add_leg table in
  row "setup" "ops" (string_of_int ops);
  row "setup" "pipeline depth" (string_of_int depth);
  row "setup" "payload bytes" (string_of_int (String.length (payload 0)));
  row "sync per record" "fsyncs" (string_of_int a.Storage.fsyncs);
  row "sync per record" "fsyncs/op" (Table.fmt_float ~decimals:4 (per_op a.Storage.fsyncs));
  row "sync per record" "elapsed (s)" (f3 per_record_s);
  row "group commit" "fsyncs" (string_of_int g.Storage.fsyncs);
  row "group commit" "fsyncs/op" (Table.fmt_float ~decimals:4 (per_op g.Storage.fsyncs));
  row "group commit" "elapsed (s)" (f3 group_s);
  row "group commit" "fsync ratio" (f2 fsync_ratio);
  row "recovery" "ms" (f3 r.Storage.recovery_ms);
  row "recovery" "records" (string_of_int recovered);
  row "recovery" "segments" (string_of_int r.Storage.segments);
  row "amplification" "appended/live" (f2 (float_of_int g.Storage.bytes_appended /. live));
  row "amplification" "disk/live" (f2 (float_of_int disk_bytes /. live));
  row "torn tail" "clean" (string_of_bool torn_ok);
  row "ring over wal" "clients" "32";
  row "ring over wal" "committed" (string_of_int ring.Sc.committed);
  row "ring over wal" "fsyncs" (string_of_int ring.Sc.fsyncs);
  row "ring over wal" "fsyncs/op" (Table.fmt_float ~decimals:4 ring_per_op);
  row "ring over wal" "elapsed (s)" (f3 ring.Sc.elapsed_s);
  let outcomes =
    [
      Outcome.make ~id:"E18/group-commit" ~claim:"group commit amortizes fsync over a batch"
        ~expected:">= 4x fewer fsyncs/op"
        ~measured:
          (Printf.sprintf "%.3f -> %.3f (%.1fx)" (per_op a.Storage.fsyncs)
             (per_op g.Storage.fsyncs) fsync_ratio)
        ~pass:(fsync_ratio >= 4.);
      Outcome.make ~id:"E18/recovery" ~claim:"cold recovery replays every live record"
        ~expected:"256 records"
        ~measured:(Printf.sprintf "%d records in %.1f ms" recovered r.Storage.recovery_ms)
        ~pass:(recovered = 256);
      Outcome.make ~id:"E18/torn-tail" ~claim:"a torn tail recovers to a clean prefix"
        ~expected:"clean, no exception" ~measured:(Printf.sprintf "clean=%b" torn_ok)
        ~pass:torn_ok;
      Outcome.make ~id:"E18/ring-wal"
        ~claim:"the runtime flushes once per delivery burst, not per handler"
        ~expected:"finished, <= 1 fsync/op at 32 clients"
        ~measured:
          (Printf.sprintf "%.3f fsyncs/op, finished=%b" ring_per_op ring.Sc.finished)
        ~pass:(ring.Sc.finished && ring_per_op <= 1.);
    ]
  in
  ([ ("", table) ], outcomes)

let e18_storage =
  { eid = "E18"; title = "Durable storage: group commit, recovery, amplification";
    clock = Wall; run = e18_run }

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
    e14_tracing;
    e15_fleet;
    e17_wire;
    e18_storage;
  ]

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

let clock_name = function Sim -> "sim" | Wall -> "wall"

(* /proc names the kernel on Linux; elsewhere the OS family is all we know. *)
let os () =
  match In_channel.with_open_text "/proc/sys/kernel/osrelease" In_channel.input_all with
  | release -> "Linux " ^ String.trim release
  | exception Sys_error _ -> Sys.os_type

(* Online CPUs, one "processor" line each in /proc/cpuinfo; 1 where there
   is no /proc. *)
let cores () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | info ->
    let is_cpu = String.starts_with ~prefix:"processor" in
    max 1 (List.length (List.filter is_cpu (String.split_on_char '\n' info)))
  | exception Sys_error _ -> 1

let host_table ~quick =
  let t = Table.create ~header:[ "cores"; "ocaml"; "os"; "mode" ] in
  Table.add_row t
    [
      string_of_int (cores ());
      Sys.ocaml_version;
      os ();
      (if quick then "quick" else "full");
    ];
  t

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run ?csv_dir ~quick exps =
  Option.iter mkdir_p csv_dir;
  let write name table =
    Option.iter
      (fun dir ->
        let path = Filename.concat dir (name ^ ".csv") in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Table.to_csv table));
        Printf.printf "wrote %s\n" path)
      csv_dir
  in
  let host = host_table ~quick in
  Table.print ~title:"Host" host;
  write "host" host;
  let index = Table.create ~header:[ "eid"; "title"; "clock"; "outcomes"; "failed" ] in
  let outcomes =
    List.concat_map
      (fun e ->
        let tables, outcomes = e.run ~quick in
        let stem = String.lowercase_ascii e.eid in
        List.iter
          (fun (name, table) ->
            let title, file =
              if name = "" then (Printf.sprintf "%s: %s" e.eid e.title, stem)
              else (Printf.sprintf "%s (%s)" e.eid name, stem ^ "-" ^ name)
            in
            Table.print ~title table;
            write file table)
          tables;
        Table.add_row index
          [
            e.eid;
            e.title;
            clock_name e.clock;
            string_of_int (List.length outcomes);
            string_of_int (List.length (List.filter (fun o -> not o.Outcome.pass) outcomes));
          ];
        outcomes)
      exps
  in
  let verdicts = Outcome.to_table outcomes in
  Table.print ~title:"Claim-by-claim verdicts" verdicts;
  write "verdicts" verdicts;
  write "index" index;
  outcomes
