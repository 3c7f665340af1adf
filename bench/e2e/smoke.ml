(* Smoke test of the benchmark itself, run by `dune runtest`: a tiny
   traced ring_mem (2 clients x 50 PUTs, one untraced and one traced
   round), twice.

   - both runs are correct, and the counts that are exact on the ring
     (messages, fsyncs and bytes per op) repeat exactly;
   - the metrics produced are exactly those BENCHMARK.json names, and
     every workload it names is one the benchmark runs;
   - the traced handler spans and the gaps between them cover the
     Ring.run slices' wall time to within 1%;
   - the write stages, summed as computed, add up to all of every
     request's latency. *)

open E2e_lib

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let run () =
  Ring_bench.run
    ~cfg:{ Ring_bench.wal = false; clients = 2; ops = 50 }
    ~workload:"ring_mem" ~seed:7 ~seconds:0 ~traced:true ~dir:"."

let () =
  let a = run () and b = run () in
  List.iter
    (fun (r : Report.run) ->
      if not (Report.correct r) then fail "run incorrect: %s" (String.concat ", " (List.map fst (List.filter (fun (_, ok) -> not ok) r.Report.checks)));
      if r.Report.failed <> 0 then fail "%d requests failed" r.Report.failed)
    [ a; b ];
  List.iter
    (fun name ->
      let x = Report.metric a name and y = Report.metric b name in
      if x <> y then fail "%s differs between identical runs: %g vs %g" name x y;
      if not (x >= 0.) then fail "%s is not a count: %g" name x)
    [ "engine.msgs_per_op"; "storage.fsyncs_per_op"; "netio.bytes_per_op" ];
  if Report.metric a "engine.msgs_per_op" <= 0. then fail "no messages counted";
  (* The output schema is BENCHMARK.json's: every metric it names is
     produced, every metric produced is named, every workload is run. *)
  let spec = Spec.load "../../BENCHMARK.json" in
  let declared = List.map (fun (m : Spec.metric) -> m.Spec.name) (spec.Spec.end_to_end @ spec.Spec.per_layer) in
  List.iter
    (fun n -> if not (List.mem_assoc n a.Report.metrics) then fail "metric %s is not in the output" n)
    declared;
  List.iter
    (fun (n, _) -> if not (List.mem n declared) then fail "%s is output but not in BENCHMARK.json" n)
    a.Report.metrics;
  List.iter
    (fun w ->
      if Ring_bench.cfg_of w = None && Udp_bench.plan_of w = None then fail "workload %s is not run" w)
    spec.Spec.workloads;
  (* The one-line results parse back with exactly the four keys. *)
  List.iter
    (fun traced ->
      match Json.parse (Report.result_line ~spec { a with Report.traced }) with
      | Json.Obj l when List.map fst l = [ "correct"; "attempted"; "failed"; "metrics" ] -> ()
      | _ -> fail "bad result line")
    [ false; true ];
  let coverage = Json.to_num (List.assoc "span_coverage" a.Report.detail) in
  if Float.abs (coverage -. 1.) > 0.01 then fail "spans cover %.4f of the slice wall time" coverage;
  let attributed = Report.metric a "obs.attributed_share" in
  if Float.abs (attributed -. 1.) > 0.01 then fail "stages attribute %.4f of latency" attributed;
  print_endline "smoke: ok"
