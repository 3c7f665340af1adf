(* Tests of the experiment harness: the scenario runner and a
   representative experiment, so a broken harness cannot silently produce
   an empty evaluation. *)

module Scenario = Cp_harness.Scenario
module Experiments = Cp_harness.Experiments
module Outcome = Cp_harness.Outcome

let test_scenario_runs_cheap () =
  let spec =
    {
      (Scenario.default_spec ~sys:(Scenario.Cheap 1)) with
      Scenario.ops_per_client = 50;
      mk_ops = (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:50 seq);
    }
  in
  let r = Scenario.run spec in
  Alcotest.(check bool) "finished" true r.Scenario.finished;
  Alcotest.(check int) "completed" 50 r.Scenario.completed;
  Alcotest.(check bool) "safety" true (Scenario.safety r = Ok ());
  Alcotest.(check int) "aux idle" 0 (Scenario.aux_msgs_received r);
  (* The same quiescence, asserted through the event trace: no aux saw a
     single delivery over the whole failure-free run. *)
  (match Scenario.aux_quiescent r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "aux quiescence (trace): %s" e);
  Alcotest.(check bool) "throughput positive" true (Scenario.throughput r > 0.);
  Alcotest.(check int) "latencies recorded" 50
    (List.length (Scenario.client_latencies r));
  Alcotest.(check bool) "msgs per commit ~3" true
    (Float.abs (Scenario.protocol_msgs_per_commit r -. 3.) < 1.);
  (* Span percentiles came out of the run: every phase collected samples and
     end-to-end latency dominates each component phase. *)
  let spans = Scenario.span_summaries r in
  Alcotest.(check int) "all span phases present" 3 (List.length spans);
  let find name = List.assoc name spans in
  let s2c = find Cp_obs.Span.submit_to_chosen in
  let s2e = find Cp_obs.Span.submit_to_executed in
  Alcotest.(check bool) "span samples cover the ops" true
    (s2e.Cp_util.Stats.count >= 50);
  Alcotest.(check bool) "submit->executed >= submit->chosen (p50)" true
    (s2e.Cp_util.Stats.p50 >= s2c.Cp_util.Stats.p50)

let test_scenario_runs_classic () =
  let spec =
    {
      (Scenario.default_spec ~sys:(Scenario.Classic 1)) with
      Scenario.ops_per_client = 50;
      mk_ops = (fun ~client_idx:_ seq -> Cp_workload.Workload.counter_ops ~count:50 seq);
    }
  in
  let r = Scenario.run spec in
  Alcotest.(check bool) "finished" true r.Scenario.finished;
  Alcotest.(check (list int)) "no aux machines" [] (Scenario.aux_ids r)

let test_machine_id_helpers () =
  let spec = Scenario.default_spec ~sys:(Scenario.Cheap 2) in
  let r = Scenario.run { spec with Scenario.ops_per_client = 10;
                         mk_ops = (fun ~client_idx:_ s -> Cp_workload.Workload.counter_ops ~count:10 s) } in
  Alcotest.(check (list int)) "mains" [ 0; 1; 2 ] (Scenario.main_ids r);
  Alcotest.(check (list int)) "auxes" [ 3; 4 ] (Scenario.aux_ids r);
  Alcotest.(check (list int)) "machines" [ 0; 1; 2; 3; 4 ] (Scenario.machine_ids r)

let test_e1_quick_passes () =
  let e1 = List.find (fun e -> e.Experiments.eid = "E1") Experiments.all in
  let _tables, outcomes = e1.Experiments.run ~quick:true in
  Alcotest.(check bool) "has outcomes" true (List.length outcomes >= 4);
  Alcotest.(check bool) "all pass" true (Outcome.all_pass outcomes)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_outcome_table () =
  let o = Outcome.make ~id:"X" ~claim:"c" ~expected:"1" ~measured:"1" ~pass:true in
  let table = Outcome.to_table [ o; { o with Outcome.pass = false } ] in
  let rendered = Cp_util.Table.render table in
  Alcotest.(check bool) "has PASS" true (contains rendered "PASS");
  Alcotest.(check bool) "has FAIL" true (contains rendered "FAIL");
  Alcotest.(check bool) "all_pass false" false
    (Outcome.all_pass [ o; { o with Outcome.pass = false } ])

(* --- The runner ---------------------------------------------------- *)

(* E16 (the parallel applier's scaling curve) is retired with the applier. *)
let test_all_lists_e1_to_e18 () =
  Alcotest.(check (list string))
    "E1..E18 but E16, once each, in order"
    (List.filter (( <> ) "E16") (List.init 18 (fun i -> Printf.sprintf "E%d" (i + 1))))
    (List.map (fun e -> e.Experiments.eid) Experiments.all)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

(* Two synthetic experiments, one with a failing outcome and a sub-table,
   so the runner's verdict and every file it writes can be checked without
   running a real (and, for E14-E18, wall-clock) experiment. *)
let test_runner_reports_failure () =
  let table () =
    let t = Cp_util.Table.create ~header:[ "k"; "v" ] in
    Cp_util.Table.add_row t [ "x"; "1" ];
    t
  in
  let outcome id pass = Outcome.make ~id ~claim:"c" ~expected:"e" ~measured:"m" ~pass in
  let exps =
    [
      {
        Experiments.eid = "T1";
        title = "passing";
        clock = Experiments.Sim;
        run = (fun ~quick:_ -> ([ ("", table ()) ], [ outcome "T1/ok" true ]));
      };
      {
        Experiments.eid = "T2";
        title = "failing";
        clock = Experiments.Wall;
        run =
          (fun ~quick:_ ->
            ( [ ("", table ()); ("detail", table ()) ],
              [ outcome "T2/ok" true; outcome "T2/bad" false ] ));
      };
    ]
  in
  let base = Filename.temp_file "cp_runner" "" in
  Sys.remove base;
  let dir = Filename.concat base "results" in
  let outcomes = Experiments.run ~csv_dir:dir ~quick:true exps in
  Alcotest.(check bool) "overall verdict" false (Outcome.all_pass outcomes);
  Alcotest.(check (list string)) "outcomes in order" [ "T1/ok"; "T2/ok"; "T2/bad" ]
    (List.map (fun o -> o.Outcome.id) outcomes);
  let verdict_line id lines =
    List.find (fun l -> String.starts_with ~prefix:(id ^ ",") l) lines
  in
  let returned =
    String.split_on_char '\n' (Cp_util.Table.to_csv (Outcome.to_table outcomes))
  in
  Alcotest.(check bool) "FAIL in the returned verdict table" true
    (String.ends_with ~suffix:",FAIL" (verdict_line "T2/bad" returned));
  let csv name = read_lines (Filename.concat dir (name ^ ".csv")) in
  let verdicts = csv "verdicts" in
  Alcotest.(check bool) "FAIL in verdicts.csv" true
    (String.ends_with ~suffix:",FAIL" (verdict_line "T2/bad" verdicts));
  Alcotest.(check bool) "PASS in verdicts.csv" true
    (String.ends_with ~suffix:",PASS" (verdict_line "T2/ok" verdicts));
  Alcotest.(check (list string)) "index.csv"
    [ "eid,title,clock,outcomes,failed"; "T1,passing,sim,1,0"; "T2,failing,wall,2,1" ]
    (csv "index");
  (match csv "host" with
  | [ header; row ] ->
    Alcotest.(check string) "host.csv header" "cores,ocaml,os,mode" header;
    Alcotest.(check bool) "host.csv mode" true (String.ends_with ~suffix:",quick" row)
  | _ -> Alcotest.fail "host.csv: expected a header and one row");
  Alcotest.(check (list string)) "every table written"
    [ "host.csv"; "index.csv"; "t1.csv"; "t2-detail.csv"; "t2.csv"; "verdicts.csv" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Sys.rmdir base

let suite =
  [
    Alcotest.test_case "scenario runs cheap" `Quick test_scenario_runs_cheap;
    Alcotest.test_case "scenario runs classic" `Quick test_scenario_runs_classic;
    Alcotest.test_case "machine id helpers" `Quick test_machine_id_helpers;
    Alcotest.test_case "E1 quick passes" `Quick test_e1_quick_passes;
    Alcotest.test_case "outcome table" `Quick test_outcome_table;
    Alcotest.test_case "experiments lists E1-E18" `Quick test_all_lists_e1_to_e18;
    Alcotest.test_case "runner reports a failed outcome" `Quick test_runner_reports_failure;
  ]
