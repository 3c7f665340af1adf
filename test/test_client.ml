(* Unit tests of the closed-loop client driver against a scripted fake
   replica, plus tests of the engine's CPU/service-time model. *)

module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Client = Cp_smr.Client

let make_engine ?(seed = 1) ?proc_time () =
  Engine.create ~seed ~net:Cp_sim.Netmodel.ideal ?proc_time
    ~kinds:Types.kinds ~kind_index:Types.kind_index ~size_of:Types.size_of ()

(* A fake server: behavior per message decided by a callback. *)
let fake_server reply ctx =
  {
    Engine.on_message =
      (fun ~src msg ->
        match msg with
        | Types.ClientReq cmd -> reply ctx ~src cmd
        | _ -> ());
    on_timer = (fun ~tid:_ ~tag:_ -> ());
  }

let echo_server ctx ~src (cmd : Types.command) =
  ctx.Engine.send src
    (Types.ClientResp { client = cmd.client; seq = cmd.seq; result = "R" ^ cmd.op })

let add_client eng ~mains ?(timeout = 0.05) ?(think = 0.) ~ops () =
  let cell = ref None in
  Engine.add_node eng ~id:1000 (fun ctx ->
      let c = Client.create ctx ~mains ~timeout ~think ~ops () in
      cell := Some c;
      Client.handlers c);
  Engine.run ~until:0. eng;
  Option.get !cell

let test_client_happy_path () =
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fake_server echo_server);
  let client =
    add_client eng ~mains:[ 0 ] ~ops:(fun s -> if s <= 3 then Some ("op" ^ string_of_int s) else None) ()
  in
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  Alcotest.(check int) "3 done" 3 (Client.done_count client);
  let hist = Client.history client in
  Alcotest.(check (list string)) "ops in order" [ "op1"; "op2"; "op3" ]
    (List.map (fun (_, _, op, _) -> op) hist);
  List.iter
    (fun (inv, comp, op, result) ->
      Alcotest.(check string) "result" ("R" ^ op) result;
      Alcotest.(check bool) "times ordered" true (comp > inv))
    hist

let test_client_retry_on_silence () =
  (* Server 0 never answers; server 1 echoes. The client must rotate. *)
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fake_server (fun _ ~src:_ _ -> ()));
  Engine.add_node eng ~id:1 (fake_server echo_server);
  let client =
    add_client eng ~mains:[ 0; 1 ] ~ops:(fun s -> if s = 1 then Some "x" else None) ()
  in
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  Alcotest.(check bool) "retried" true
    (Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_retries" > 0)

let test_client_follows_redirect () =
  let eng = make_engine () in
  Engine.add_node eng ~id:0
    (fake_server (fun ctx ~src _ -> ctx.Engine.send src (Types.Redirect { leader_hint = 1 })));
  Engine.add_node eng ~id:1 (fake_server echo_server);
  let client =
    add_client eng ~mains:[ 0; 1 ] ~ops:(fun s -> if s = 1 then Some "x" else None) ()
  in
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  (* Redirect resend is immediate — well before the 50 ms retry timeout. *)
  (match Client.history client with
  | [ (_, comp, _, _) ] -> Alcotest.(check bool) "fast" true (comp < 0.02)
  | _ -> Alcotest.fail "history");
  Alcotest.(check int) "no timeout retries" 0
    (Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_retries")

let test_client_ignores_stale_response () =
  (* Server answers seq 1 twice (duplicate), then seq 2: the duplicate must
     not double-advance the client. *)
  let eng = make_engine () in
  Engine.add_node eng ~id:0
    (fake_server (fun ctx ~src (cmd : Types.command) ->
         ctx.Engine.send src
           (Types.ClientResp { client = cmd.client; seq = cmd.seq; result = "ok" });
         if cmd.seq = 1 then
           ctx.Engine.send src
             (Types.ClientResp { client = cmd.client; seq = 1; result = "dup" })));
  let client =
    add_client eng ~mains:[ 0 ] ~ops:(fun s -> if s <= 2 then Some "x" else None) ()
  in
  Engine.run eng;
  Alcotest.(check int) "exactly 2" 2 (Client.done_count client)

let test_client_think_time () =
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fake_server echo_server);
  let client =
    add_client eng ~mains:[ 0 ] ~think:0.1
      ~ops:(fun s -> if s <= 3 then Some "x" else None)
      ()
  in
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  (* Two think gaps of 100 ms: total run time at least 200 ms. *)
  Alcotest.(check bool) "think respected" true (Engine.now eng >= 0.2)

let test_client_empty_ops () =
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fake_server echo_server);
  let client = add_client eng ~mains:[ 0 ] ~ops:(fun _ -> None) () in
  Engine.run eng;
  Alcotest.(check bool) "immediately finished" true (Client.is_finished client);
  Alcotest.(check int) "nothing done" 0 (Client.done_count client)

(* --- retransmission backoff ---------------------------------------------- *)

let test_retry_delay_schedule () =
  let base = 0.05 and cap = 0.8 in
  (* jitter 0.5 is the neutral factor: the delay doubles until the cap. *)
  let d a = Client.retry_delay ~base ~cap ~attempt:a ~jitter:0.5 in
  Alcotest.(check (float 1e-9)) "attempt 0" 0.05 (d 0);
  Alcotest.(check (float 1e-9)) "attempt 1" 0.1 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.2 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.4 (d 3);
  Alcotest.(check (float 1e-9)) "capped" 0.8 (d 10);
  Alcotest.(check (float 1e-9)) "cap survives huge attempts" 0.8 (d 200);
  (* The jitter factor spans [0.75, 1.25). *)
  Alcotest.(check (float 1e-9)) "jitter low" (0.05 *. 0.75)
    (Client.retry_delay ~base ~cap ~attempt:0 ~jitter:0.);
  Alcotest.(check (float 1e-9)) "jitter high" (0.05 *. 1.25)
    (Client.retry_delay ~base ~cap ~attempt:0 ~jitter:1.)

let test_client_backoff_spacing () =
  (* All servers silent: retransmissions must spread out exponentially
     instead of firing every [timeout] forever. *)
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fake_server (fun _ ~src:_ _ -> ()));
  let client =
    add_client eng ~mains:[ 0 ] ~timeout:0.01
      ~ops:(fun s -> if s = 1 then Some "x" else None)
      ()
  in
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "still unanswered" false (Client.is_finished client);
  let retries = Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_retries" in
  (* A fixed 10 ms retransmission would fire ~1000 times in 10 s; the capped
     schedule (cap = 16x base, jitter factor >= 0.75) fires a few dozen. *)
  Alcotest.(check bool)
    (Printf.sprintf "retries bounded (%d)" retries)
    true
    (retries > 5 && retries < 200)

let test_same_hint_redirect_resends () =
  (* A briefly-confused leader: it redirects the first request to itself,
     then serves. The client must resend immediately rather than sit out
     the retry timeout. *)
  let eng = make_engine () in
  let first = ref true in
  Engine.add_node eng ~id:0
    (fake_server (fun ctx ~src cmd ->
         if !first then begin
           first := false;
           ctx.Engine.send src (Types.Redirect { leader_hint = 0 })
         end
         else echo_server ctx ~src cmd));
  let client =
    add_client eng ~mains:[ 0 ] ~ops:(fun s -> if s = 1 then Some "x" else None) ()
  in
  Engine.run eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  (match Client.history client with
  | [ (_, comp, _, _) ] ->
    Alcotest.(check bool) "well before the 50 ms timeout" true (comp < 0.02)
  | _ -> Alcotest.fail "history");
  Alcotest.(check int) "one fast resend" 1
    (Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_fast_resends");
  Alcotest.(check int) "no timeout retries" 0
    (Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_retries")

let test_self_redirect_loop_bounded () =
  (* A server that always redirects to itself must not provoke a resend
     storm: at most one fast resend per retry window. *)
  let eng = make_engine () in
  Engine.add_node eng ~id:0
    (fake_server (fun ctx ~src _ ->
         ctx.Engine.send src (Types.Redirect { leader_hint = 0 })));
  let client =
    add_client eng ~mains:[ 0 ] ~ops:(fun s -> if s = 1 then Some "x" else None) ()
  in
  Engine.run ~until:2. eng;
  Alcotest.(check bool) "never finishes" false (Client.is_finished client);
  let retries = Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_retries" in
  let fast = Cp_sim.Metrics.get (Engine.metrics eng 1000) "client_fast_resends" in
  Alcotest.(check bool)
    (Printf.sprintf "fast resends (%d) bounded by retry windows (%d)" fast retries)
    true
    (fast <= retries + 1)

(* --- service-time model -------------------------------------------------- *)

let test_proc_time_serializes () =
  (* 10 messages, 1 ms service each: the receiver processes them over at
     least 10 ms even though they arrive together. *)
  let eng = make_engine ~proc_time:(fun _ -> 1e-3) () in
  let last_recv = ref 0. in
  let count = ref 0 in
  Engine.add_node eng ~id:0 (fun ctx ->
      {
        Engine.on_message =
          (fun ~src:_ _ ->
            incr count;
            last_recv := ctx.Engine.now ());
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  Engine.add_node eng ~id:1 (fun ctx ->
      for i = 1 to 10 do
        ctx.Engine.send 0 (Types.CommitFloor { upto = i })
      done;
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.run eng;
  Alcotest.(check int) "all delivered" 10 !count;
  (* Sender is also serialized: 10 sends cost 10 ms before the last leaves,
     plus queueing at the receiver. *)
  Alcotest.(check bool)
    (Printf.sprintf "last at %.4f >= 0.010" !last_recv)
    true (!last_recv >= 0.010)

let test_no_proc_time_instant () =
  let eng = make_engine () in
  let last_recv = ref 0. in
  Engine.add_node eng ~id:0 (fun ctx ->
      {
        Engine.on_message = (fun ~src:_ _ -> last_recv := ctx.Engine.now ());
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  Engine.add_node eng ~id:1 (fun ctx ->
      for i = 1 to 10 do
        ctx.Engine.send 0 (Types.CommitFloor { upto = i })
      done;
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "all at network latency" 1e-3 !last_recv

let test_saturation_throughput_model () =
  (* With a 1 ms cost and a closed loop through one server, the server can
     do at most ~500 request+response pairs per second. *)
  let eng = make_engine ~proc_time:(fun _ -> 1e-3) () in
  Engine.add_node eng ~id:0 (fake_server echo_server);
  let client =
    add_client eng ~mains:[ 0 ] ~timeout:10.
      ~ops:(fun s -> if s <= 100 then Some "x" else None)
      ()
  in
  Engine.run ~until:10. eng;
  Alcotest.(check bool) "finished" true (Client.is_finished client);
  (* 100 ops, each costing >= 2 ms of server time: at least ~0.2 s. *)
  let lat = Cp_sim.Metrics.series (Engine.metrics eng 1000) "done_at" in
  let finish = List.fold_left Float.max 0. lat in
  Alcotest.(check bool)
    (Printf.sprintf "bounded by capacity (%.3f s)" finish)
    true (finish >= 0.2)

let suite =
  [
    Alcotest.test_case "happy path" `Quick test_client_happy_path;
    Alcotest.test_case "retry on silence" `Quick test_client_retry_on_silence;
    Alcotest.test_case "follows redirect" `Quick test_client_follows_redirect;
    Alcotest.test_case "ignores stale response" `Quick test_client_ignores_stale_response;
    Alcotest.test_case "think time" `Quick test_client_think_time;
    Alcotest.test_case "empty ops" `Quick test_client_empty_ops;
    Alcotest.test_case "retry delay schedule" `Quick test_retry_delay_schedule;
    Alcotest.test_case "backoff spacing under silence" `Quick test_client_backoff_spacing;
    Alcotest.test_case "same-hint redirect resends" `Quick test_same_hint_redirect_resends;
    Alcotest.test_case "self-redirect loop bounded" `Quick test_self_redirect_loop_bounded;
    Alcotest.test_case "proc_time serializes" `Quick test_proc_time_serializes;
    Alcotest.test_case "no proc_time is instant" `Quick test_no_proc_time_instant;
    Alcotest.test_case "saturation model" `Quick test_saturation_throughput_model;
  ]
