(* Tests of the observability layer: the JSONL writer, latency
   spans, Prometheus rendering, the trace checkers, and the simulator
   integration (per-node traces + live hook). *)

module Obs = Cp_obs
module Event = Cp_obs.Event
module Trace = Cp_obs.Trace

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Events and JSONL                                                    *)
(* ------------------------------------------------------------------ *)

(* Every constructor with the exact JSONL line the writer gives it as an
   untraced record at 0.25 s on node 2. *)
let all_events =
  let line body = "{\"at\":0.250000,\"node\":2,\"event\":" ^ body ^ "}" in
  [
    ( Event.Ballot_started { round = 3; leader = 1; low = 7 },
      line {|"ballot_started","round":3,"leader":1,"low":7|} );
    (Event.Ballot_won { round = 3; leader = 1 }, line {|"ballot_won","round":3,"leader":1|});
    ( Event.Stepped_down { round = 4; leader = 2 },
      line {|"stepped_down","round":4,"leader":2|} );
    (Event.Leader_changed { leader = 2 }, line {|"leader_changed","leader":2|});
    (Event.Phase2_widened { instance = 9 }, line {|"phase2_widened","instance":9|});
    (Event.Aux_engaged { instance = 9 }, line {|"aux_engaged","instance":9|});
    (Event.Aux_quiesced { floor = 12 }, line {|"aux_quiesced","floor":12|});
    ( Event.Reconfig_proposed (Event.Remove_main 1),
      line {|"reconfig_proposed","change":"remove_main","main":1|} );
    ( Event.Reconfig_proposed (Event.Add_main 3),
      line {|"reconfig_proposed","change":"add_main","main":3|} );
    ( Event.Reconfig_committed { change = Event.Remove_main 1; at = 15 },
      line {|"reconfig_committed","change":"remove_main","main":1,"instance":15|} );
    ( Event.Command_submitted { client = 1000; seq = 4 },
      line {|"command_submitted","client":1000,"seq":4|} );
    ( Event.Command_chosen { instance = 11; batch = 2 },
      line {|"command_chosen","instance":11,"batch":2|} );
    (Event.Command_executed { instance = 11 }, line {|"command_executed","instance":11|});
    ( Event.Msg_recv { src = 0; kind = "p2a"; bytes = 64 },
      line {|"msg_recv","src":0,"kind":"p2a","bytes":64|} );
    (Event.Lease_acquired { round = 3 }, line {|"lease_acquired","round":3|});
    (Event.Lease_lost { reason = "stepped_down" }, line {|"lease_lost","reason":"stepped_down"|});
    ( Event.Lease_read_served { client = 1000; seq = 9; upto = 17 },
      line {|"lease_read_served","client":1000,"seq":9,"upto":17|} );
    (Event.Crashed, line {|"crashed"|});
    (Event.Restarted, line {|"restarted"|});
    ( Event.Debug "free-form \"quoted\" line\nwith newline",
      line {|"debug","line":"free-form \"quoted\" line\nwith newline"|} );
  ]

(* The goldens pin the writer only for the events their runs produce; this
   pins it for every constructor, untraced and traced. *)
let test_jsonl_shape () =
  List.iter
    (fun (ev, expected) ->
      let r = { Trace.at = 0.25; node = 2; tid = 0; ev } in
      Alcotest.(check string) (Event.kind ev) expected (Trace.record_to_json r))
    all_events;
  let traced = { Trace.at = 1.5; node = 0; tid = 0x2a; ev = Event.Aux_engaged { instance = 7 } } in
  Alcotest.(check string) "traced record carries its tid"
    {|{"at":1.500000,"node":0,"tid":42,"event":"aux_engaged","instance":7}|}
    (Trace.record_to_json traced);
  Alcotest.(check string) "one line per record"
    (String.concat "" (List.map (fun (_, line) -> line ^ "\n") all_events))
    (Trace.to_jsonl
       (List.map (fun (ev, _) -> { Trace.at = 0.25; node = 2; tid = 0; ev }) all_events))

let test_trace_emit_and_hook () =
  let tr = Trace.create ~capacity:3 () in
  let seen = ref 0 in
  Trace.set_hook tr (fun _ -> incr seen);
  for i = 0 to 4 do
    Trace.emit tr ~at:(float_of_int i) ~node:0 (Event.Command_executed { instance = i })
  done;
  Alcotest.(check int) "hook saw every emit" 5 !seen;
  Alcotest.(check int) "ring keeps capacity" 3 (Trace.length tr);
  Alcotest.(check int) "dropped counted" 2 (Trace.dropped tr)

(* Storage grows on demand (64 slots, doubling up to capacity). Against a
   model that keeps the last [capacity] records, [records], [length] and
   [dropped] must agree after every emit, across each growth step and the
   wrap — including capacities that are not a doubling of 64. *)
let test_trace_lazy_growth () =
  List.iter
    (fun capacity ->
      let tr = Trace.create ~capacity () in
      let model = ref [] in
      for i = 0 to (3 * capacity) + 5 do
        let r =
          {
            Trace.at = float_of_int i;
            node = i mod 7;
            tid = i * 3;
            ev = Event.Command_executed { instance = i };
          }
        in
        Trace.emit ~tid:r.Trace.tid tr ~at:r.Trace.at ~node:r.Trace.node r.Trace.ev;
        model := r :: !model;
        let kept = List.filteri (fun k _ -> k < capacity) !model |> List.rev in
        let label what = Printf.sprintf "capacity %d after %d emits: %s" capacity (i + 1) what in
        Alcotest.(check int) (label "length") (List.length kept) (Trace.length tr);
        Alcotest.(check int) (label "dropped") (i + 1 - List.length kept) (Trace.dropped tr);
        Alcotest.(check bool) (label "records") true (Trace.records tr = kept)
      done)
    [ 1; 63; 64; 65; 100; 300 ]

let test_merge_sorts_by_time () =
  let t1 = Trace.create () and t2 = Trace.create () in
  Trace.emit t1 ~at:2.0 ~node:0 Event.Crashed;
  Trace.emit t2 ~at:1.0 ~node:1 Event.Restarted;
  Trace.emit t1 ~at:3.0 ~node:0 Event.Restarted;
  let merged = Trace.merge [ t1; t2 ] in
  Alcotest.(check (list int)) "time order" [ 1; 0; 0 ]
    (List.map (fun (r : Trace.record) -> r.Trace.node) merged)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_phases () =
  let samples = ref [] in
  let span = Obs.Span.create ~observe:(fun name v -> samples := (name, v) :: !samples) in
  Obs.Span.submitted span ~client:1 ~seq:1 ~at:0.0;
  Obs.Span.submitted span ~client:1 ~seq:2 ~at:0.5;
  Obs.Span.chosen span ~instance:0 ~cmds:[ (1, 1) ] ~at:1.0;
  Obs.Span.executed span ~instance:0 ~at:1.5;
  let get name =
    List.filter_map (fun (n, v) -> if n = name then Some v else None) !samples
  in
  Alcotest.(check (list (float 1e-9))) "submit->chosen" [ 1.0 ]
    (get Obs.Span.submit_to_chosen);
  Alcotest.(check (list (float 1e-9))) "chosen->executed" [ 0.5 ]
    (get Obs.Span.chosen_to_executed);
  Alcotest.(check (list (float 1e-9))) "submit->executed" [ 1.5 ]
    (get Obs.Span.submit_to_executed);
  Alcotest.(check int) "one open span left" 1 (Obs.Span.pending span);
  Obs.Span.reset span;
  Alcotest.(check int) "reset drops open spans" 0 (Obs.Span.pending span)

let test_span_unknown_instance_ignored () =
  let span = Obs.Span.create ~observe:(fun _ _ -> Alcotest.fail "no sample expected") in
  Obs.Span.executed span ~instance:42 ~at:1.0;
  Obs.Span.chosen span ~instance:7 ~cmds:[ (9, 9) ] ~at:1.0;
  Alcotest.(check int) "unmatched chosen is stashed, nothing observed" 1
    (Obs.Span.pending span)

(* Spans of commands that were shed or deduplicated never close; expire
   ages them out so the tables stay bounded under sustained overload. *)
let test_span_expire () =
  let span = Obs.Span.create ~observe:(fun _ _ -> ()) in
  Obs.Span.submitted span ~client:1 ~seq:1 ~at:0.0;
  Obs.Span.submitted span ~client:1 ~seq:2 ~at:0.1;
  Obs.Span.chosen span ~instance:5 ~cmds:[] ~at:0.2;
  Alcotest.(check int) "three open spans" 3 (Obs.Span.pending span);
  (* First call establishes the scan epoch; within ttl nothing is stale. *)
  Alcotest.(check int) "young spans survive" 0 (Obs.Span.expire span ~now:0.5 ~ttl:1.0);
  Alcotest.(check int) "rate limit: immediate rescan is free" 0
    (Obs.Span.expire span ~now:0.5 ~ttl:1.0);
  (* Far enough in the future, everything is past its ttl. *)
  Alcotest.(check int) "stale spans dropped" 3 (Obs.Span.expire span ~now:10.0 ~ttl:1.0);
  Alcotest.(check int) "tables emptied" 0 (Obs.Span.pending span);
  (* Fresh entries after the purge are untouched. *)
  Obs.Span.submitted span ~client:2 ~seq:1 ~at:10.0;
  Alcotest.(check int) "fresh span survives next scan" 0
    (Obs.Span.expire span ~now:10.5 ~ttl:1.0);
  Alcotest.(check int) "still pending" 1 (Obs.Span.pending span)

(* ------------------------------------------------------------------ *)
(* Pipeline profiler                                                   *)
(* ------------------------------------------------------------------ *)

let test_prof_counters () =
  let clock = ref 0.0 in
  let counters = Hashtbl.create 8 in
  let count name by =
    Hashtbl.replace counters name (by + Option.value ~default:0 (Hashtbl.find_opt counters name))
  in
  let prof = Obs.Prof.create ~clock:(fun () -> !clock) ~count in
  let step = Obs.Prof.stage "step" in
  let t0 = Obs.Prof.start prof in
  clock := !clock +. 2e-6;
  Obs.Prof.record_since prof step t0;
  let t0 = Obs.Prof.start prof in
  clock := !clock +. 1e-6;
  Obs.Prof.record_since prof step t0;
  Obs.Prof.record prof (Obs.Prof.stage "decode") ~ns:500;
  Alcotest.(check int) "samples counted" 2 (Hashtbl.find counters "prof.step.n");
  Alcotest.(check int) "nanoseconds summed" 3000 (Hashtbl.find counters "prof.step.ns");
  Alcotest.(check int) "external stage recorded" 500
    (Hashtbl.find counters "prof.decode.ns");
  let rows =
    Obs.Prof.summarize (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])
  in
  Alcotest.(check bool) "summarize finds both stages" true
    (List.map (fun (s, _, _) -> s) rows = [ "decode"; "step" ]);
  (match List.assoc_opt "step" (List.map (fun (s, n, ns) -> (s, (n, ns))) rows) with
  | Some (n, ns) ->
    Alcotest.(check int) "row samples" 2 n;
    Alcotest.(check int) "row total" 3000 ns
  | None -> Alcotest.fail "no step row");
  let rendered =
    Obs.Prof.render (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])
  in
  Alcotest.(check bool) "render mentions stage" true (contains rendered "step");
  Alcotest.(check bool) "render is a comment block" true
    (String.length rendered > 0 && rendered.[0] = '#');
  Alcotest.(check string) "no profile renders empty" "" (Obs.Prof.render [ ("msgs", 3) ])

(* ------------------------------------------------------------------ *)
(* Prometheus rendering                                                *)
(* ------------------------------------------------------------------ *)

let test_prom_render () =
  let summaries = [ ("commit_latency", Cp_util.Stats.summarize [ 1.0; 2.0; 3.0 ]) ] in
  let text =
    Obs.Prom.render
      ~counters:[ ("msgs_sent", 3); ("rx.p2a", 2) ]
      ~summaries ()
  in
  Alcotest.(check bool) "counter type line" true
    (contains text "# TYPE cp_msgs_sent counter");
  Alcotest.(check bool) "counter sample" true (contains text "cp_msgs_sent 3");
  Alcotest.(check bool) "dots sanitized" true (contains text "cp_rx_p2a 2");
  Alcotest.(check bool) "summary type line" true
    (contains text "# TYPE cp_commit_latency summary");
  Alcotest.(check bool) "p50 quantile" true
    (contains text "cp_commit_latency{quantile=\"0.5\"} 2");
  Alcotest.(check bool) "count sample" true (contains text "cp_commit_latency_count 3")

let test_prom_sanitize () =
  Alcotest.(check string) "charset" "recv_p2a" (Obs.Prom.sanitize "recv.p2a");
  Alcotest.(check string) "identity" "abc_09" (Obs.Prom.sanitize "abc_09")

(* ------------------------------------------------------------------ *)
(* Checkers                                                            *)
(* ------------------------------------------------------------------ *)

let rec_ at node ev = { Trace.at; node; tid = 0; ev }

let test_checker_aux_quiescent () =
  let quiet =
    [
      rec_ 0.1 0 (Event.Msg_recv { src = 1; kind = "p2a"; bytes = 10 });
      rec_ 0.2 1 (Event.Msg_recv { src = 0; kind = "p2b"; bytes = 10 });
    ]
  in
  Alcotest.(check bool) "main traffic is fine" true
    (Obs.Checker.aux_quiescent ~auxes:[ 2 ] quiet = Ok ());
  let noisy = quiet @ [ rec_ 0.3 2 (Event.Msg_recv { src = 0; kind = "p2a"; bytes = 10 }) ] in
  Alcotest.(check bool) "aux traffic flagged" true
    (Result.is_error (Obs.Checker.aux_quiescent ~auxes:[ 2 ] noisy));
  Alcotest.(check bool) "window excludes early traffic" true
    (Obs.Checker.aux_quiescent ~after:0.5 ~auxes:[ 2 ] noisy = Ok ())

let test_checker_monotone_execution () =
  let ok =
    [
      rec_ 0.1 0 (Event.Command_executed { instance = 0 });
      rec_ 0.2 0 (Event.Command_executed { instance = 1 });
      rec_ 0.3 1 (Event.Command_executed { instance = 0 });
    ]
  in
  Alcotest.(check bool) "monotone ok" true (Obs.Checker.monotone_execution ok = Ok ());
  let bad = ok @ [ rec_ 0.4 0 (Event.Command_executed { instance = 1 }) ] in
  Alcotest.(check bool) "repeat flagged" true
    (Result.is_error (Obs.Checker.monotone_execution bad));
  let restarted =
    ok
    @ [
        rec_ 0.35 0 Event.Restarted;
        rec_ 0.4 0 (Event.Command_executed { instance = 0 });
      ]
  in
  Alcotest.(check bool) "restart resets the floor" true
    (Obs.Checker.monotone_execution restarted = Ok ())

let test_checker_ballot_ordering () =
  let started = rec_ 0.1 0 (Event.Ballot_started { round = 1; leader = 0; low = 0 }) in
  let won = rec_ 0.2 0 (Event.Ballot_won { round = 1; leader = 0 }) in
  Alcotest.(check bool) "started then won" true
    (Obs.Checker.ballot_ordering [ started; won ] = Ok ());
  Alcotest.(check bool) "won from nowhere flagged" true
    (Result.is_error (Obs.Checker.ballot_ordering [ won ]))

let test_checker_reconfig_ordering () =
  let proposed = rec_ 0.1 0 (Event.Reconfig_proposed (Event.Remove_main 1)) in
  let committed =
    rec_ 0.2 2 (Event.Reconfig_committed { change = Event.Remove_main 1; at = 5 })
  in
  Alcotest.(check bool) "proposed then committed" true
    (Obs.Checker.reconfig_ordering [ proposed; committed ] = Ok ());
  Alcotest.(check bool) "commit from nowhere flagged" true
    (Result.is_error (Obs.Checker.reconfig_ordering [ committed ]))

let test_checker_no_stale_reads () =
  let exec node instance at = rec_ at node (Event.Command_executed { instance }) in
  let read node ~upto at =
    rec_ at node (Event.Lease_read_served { client = 1000; seq = 1; upto })
  in
  (* Leader 0 serves from its executed prefix; follower 1 trails — fine. *)
  let clean =
    [ exec 0 0 0.1; exec 0 1 0.2; exec 1 0 0.25; read 0 ~upto:2 0.3; exec 1 1 0.35 ]
  in
  Alcotest.(check bool) "trailing followers are fine" true
    (Obs.Checker.no_stale_reads clean = Ok ());
  (* Partitioned old leaseholder: node 1 has executed instance 2 (a write the
     read could have observed) before node 0 answers from prefix 2. *)
  let stale =
    [ exec 0 0 0.1; exec 0 1 0.2; exec 1 0 0.25; exec 1 1 0.3; exec 1 2 0.35;
      read 0 ~upto:2 0.4 ]
  in
  Alcotest.(check bool) "read behind another node's execution flagged" true
    (Result.is_error (Obs.Checker.no_stale_reads stale));
  (* A later execution elsewhere does not retroactively condemn the read. *)
  let racy = [ exec 0 0 0.1; read 0 ~upto:1 0.2; exec 1 0 0.25; exec 1 1 0.3 ] in
  Alcotest.(check bool) "later remote execution is not a violation" true
    (Obs.Checker.no_stale_reads racy = Ok ());
  Alcotest.(check bool) "empty trace ok" true (Obs.Checker.no_stale_reads [] = Ok ())

let test_checker_failover_timeline () =
  let engaged = rec_ 0.1 0 (Event.Aux_engaged { instance = 3 }) in
  let removed =
    rec_ 0.2 0 (Event.Reconfig_committed { change = Event.Remove_main 1; at = 4 })
  in
  let quiesced = rec_ 0.3 0 (Event.Aux_quiesced { floor = 5 }) in
  Alcotest.(check bool) "full timeline" true
    (Obs.Checker.failover_timeline [ engaged; removed; quiesced ] = Ok ());
  Alcotest.(check bool) "no engagement flagged" true
    (Result.is_error (Obs.Checker.failover_timeline [ removed; quiesced ]));
  Alcotest.(check bool) "missing quiescence flagged" true
    (Result.is_error (Obs.Checker.failover_timeline [ engaged; removed ]));
  let early_quiesced = rec_ 0.15 0 (Event.Aux_quiesced { floor = 5 }) in
  Alcotest.(check bool) "quiescence before the commit does not count" true
    (Result.is_error (Obs.Checker.failover_timeline [ engaged; early_quiesced; removed ]))

(* ------------------------------------------------------------------ *)
(* Simulator integration                                               *)
(* ------------------------------------------------------------------ *)

let test_sim_trace_integration () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cp_runtime.Cluster.create ~seed:7 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Counter) ()
  in
  let hook_count = ref 0 in
  Cp_sim.Engine.on_event (Cp_runtime.Cluster.engine cluster) (fun _ -> incr hook_count);
  let ops = Cp_workload.Workload.counter_ops ~count:20 in
  let _, client = Cp_runtime.Cluster.add_client cluster ~ops () in
  let ok =
    Cp_runtime.Cluster.run_until cluster ~deadline:5. (fun () ->
        Cp_smr.Client.is_finished client)
  in
  Alcotest.(check bool) "finished" true ok;
  let records = Cp_runtime.Inspect.trace_dump cluster in
  let has p = List.exists (fun (r : Trace.record) -> p r.Trace.ev) records in
  Alcotest.(check bool) "saw a ballot win" true
    (has (function Event.Ballot_won _ -> true | _ -> false));
  Alcotest.(check bool) "saw command submission" true
    (has (function Event.Command_submitted _ -> true | _ -> false));
  Alcotest.(check bool) "saw command execution" true
    (has (function Event.Command_executed _ -> true | _ -> false));
  Alcotest.(check bool) "live hook fired" true (!hook_count > 0);
  Alcotest.(check bool) "failure-free run keeps auxes quiescent" true
    (Cp_runtime.Inspect.aux_quiescent cluster = Ok ());
  Alcotest.(check bool) "ordering battery passes" true
    (Obs.Checker.ordering records = Ok ())

let test_sim_trace_capacity () =
  let eng =
    Cp_sim.Engine.create ~seed:5 ~kinds:Cp_proto.Types.kinds
      ~kind_index:Cp_proto.Types.kind_index ~size_of:Cp_proto.Types.size_of ~trace_capacity:8
      ()
  in
  Cp_sim.Engine.add_node eng ~id:0 (fun ctx ->
      for i = 0 to 19 do
        ctx.Cp_sim.Engine.emit (Event.Command_executed { instance = i })
      done;
      {
        Cp_sim.Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  Cp_sim.Engine.run ~until:0.1 eng;
  let tr = Cp_sim.Engine.trace eng 0 in
  Alcotest.(check int) "ring bounded" 8 (Trace.length tr);
  Alcotest.(check int) "drops reported" 12 (Trace.dropped tr)

let suite =
  [
    Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
    Alcotest.test_case "trace emit and hook" `Quick test_trace_emit_and_hook;
    Alcotest.test_case "trace grows lazily, same records" `Quick test_trace_lazy_growth;
    Alcotest.test_case "merge sorts by time" `Quick test_merge_sorts_by_time;
    Alcotest.test_case "span phases" `Quick test_span_phases;
    Alcotest.test_case "span ignores unknown instance" `Quick
      test_span_unknown_instance_ignored;
    Alcotest.test_case "span expire drops stale entries" `Quick test_span_expire;
    Alcotest.test_case "profiler counters" `Quick test_prof_counters;
    Alcotest.test_case "prometheus render" `Quick test_prom_render;
    Alcotest.test_case "prometheus sanitize" `Quick test_prom_sanitize;
    Alcotest.test_case "checker: aux quiescence" `Quick test_checker_aux_quiescent;
    Alcotest.test_case "checker: monotone execution" `Quick
      test_checker_monotone_execution;
    Alcotest.test_case "checker: ballot ordering" `Quick test_checker_ballot_ordering;
    Alcotest.test_case "checker: reconfig ordering" `Quick
      test_checker_reconfig_ordering;
    Alcotest.test_case "checker: no stale reads" `Quick test_checker_no_stale_reads;
    Alcotest.test_case "checker: failover timeline" `Quick
      test_checker_failover_timeline;
    Alcotest.test_case "sim integration" `Quick test_sim_trace_integration;
    Alcotest.test_case "sim trace capacity" `Quick test_sim_trace_capacity;
  ]
