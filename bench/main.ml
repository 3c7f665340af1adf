(* Benchmark entry point.

   Two parts:
   1. The evaluation suite (E1-E18, Cp_harness.Experiments): the paper has
      no measured tables or figures, so these quantify its analytical
      claims and the implementation's own costs, each table printed and
      written as CSV under bench_results/, ending in one claim-by-claim
      verdict table.
   2. Bechamel microbenchmarks of the core data structures and of an
      end-to-end simulated commit, so regressions in the hot paths are
      visible independently of the protocol-level numbers.

   `dune exec bench/main.exe` runs everything; pass `--quick` to shrink the
   sweeps (used in CI-style runs). It exits 1 unless every claim passes. *)

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

let () =
  Printf.printf "Cheap Paxos evaluation%s\n" (if quick then " (quick mode)" else "");
  let outcomes =
    Cp_harness.Experiments.(run ~csv_dir:"bench_results" ~quick all)
  in
  run_microbenches ();
  if Cp_harness.Outcome.all_pass outcomes then print_endline "\nALL CLAIMS REPRODUCED"
  else begin
    print_endline "\nSOME CLAIMS FAILED";
    exit 1
  end
