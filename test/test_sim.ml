(* Tests of the discrete-event engine: delivery, timers, crash/restart
   semantics, stable storage, partitions, and determinism. *)

module Engine = Cp_sim.Engine
module Netmodel = Cp_sim.Netmodel
module Storage = Cp_storage.Storage
module Metrics = Cp_sim.Metrics

type msg = Ping of int | Pong of int

let classify = function Ping _ -> "ping" | Pong _ -> "pong"

let size_of _ = 32

let make_engine ?(seed = 1) ?(net = Netmodel.ideal) () =
  Engine.create ~seed ~net ~size_of ~classify ()

(* An echo node: replies Pong x to Ping x; records receipts. *)
let echo_node received ctx =
  let on_message ~src m =
    match m with
    | Ping x ->
      received := (ctx.Engine.self, x) :: !received;
      ctx.Engine.send src (Pong x)
    | Pong x -> received := (ctx.Engine.self, -x) :: !received
  in
  { Engine.on_message; on_timer = (fun ~tid:_ ~tag:_ -> ()) }

let test_delivery_and_reply () =
  let eng = make_engine () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (echo_node received);
  Engine.at eng 0. (fun () -> ());
  Engine.run eng;
  (* Nothing sent yet. *)
  Alcotest.(check (list (pair int int))) "no traffic" [] !received;
  (* Node 0 pings node 1 via a scheduled action using node context: easiest is
     a dedicated sender node. *)
  let eng = make_engine () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (fun ctx ->
      ctx.Engine.send 0 (Ping 7);
      echo_node received ctx);
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "ping then pong" [ (1, -7); (0, 7) ] !received

let test_timer_fires_and_cancel () =
  let eng = make_engine () in
  let fired = ref [] in
  Engine.add_node eng ~id:0 (fun ctx ->
      let _t1 = ctx.Engine.set_timer ~tag:"a" 0.5 in
      let t2 = ctx.Engine.set_timer ~tag:"b" 1.0 in
      ctx.Engine.cancel_timer t2;
      let _t3 = ctx.Engine.set_timer ~tag:"c" 1.5 in
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag -> fired := (tag, ctx.Engine.now ()) :: !fired);
      });
  Engine.run eng;
  let fired = List.rev !fired in
  Alcotest.(check (list string)) "a and c fired, b cancelled" [ "a"; "c" ]
    (List.map fst fired);
  Alcotest.(check (float 1e-9)) "a at 0.5" 0.5 (List.assoc "a" fired);
  Alcotest.(check (float 1e-9)) "c at 1.5" 1.5 (List.assoc "c" fired)

let test_crash_invalidates_timers () =
  let eng = make_engine () in
  let fired = ref 0 in
  Engine.add_node eng ~id:0 (fun ctx ->
      ignore (ctx.Engine.set_timer ~tag:"x" 1.0);
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> incr fired);
      });
  Engine.at eng 0.5 (fun () -> Engine.crash eng 0);
  Engine.run eng;
  Alcotest.(check int) "timer swallowed by crash" 0 !fired;
  Alcotest.(check bool) "down" false (Engine.is_up eng 0)

let test_restart_rebuilds_and_timers_isolated () =
  let eng = make_engine () in
  let boots = ref 0 in
  let fired = ref 0 in
  Engine.add_node eng ~id:0 (fun ctx ->
      incr boots;
      ignore (ctx.Engine.set_timer ~tag:"x" 1.0);
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> incr fired);
      });
  Engine.at eng 0.2 (fun () -> Engine.crash eng 0);
  Engine.at eng 0.4 (fun () -> Engine.restart eng 0);
  Engine.run eng;
  Alcotest.(check int) "built twice" 2 !boots;
  (* Only the post-restart timer fires (at 1.4). *)
  Alcotest.(check int) "one timer" 1 !fired

let test_message_to_down_node_lost () =
  let eng = make_engine () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (fun ctx ->
      ignore (ctx.Engine.set_timer ~tag:"send" 1.0);
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ctx.Engine.send 0 (Ping 1));
      });
  Engine.at eng 0.5 (fun () -> Engine.crash eng 0);
  Engine.run eng;
  Alcotest.(check (list (pair int int))) "lost" [] !received

let test_stable_survives_restart_not_wipe () =
  let eng = make_engine () in
  let seen = ref [] in
  Engine.add_node eng ~id:0 (fun ctx ->
      (match Storage.get ctx.Engine.stable "k" with
      | Some v -> seen := int_of_string v :: !seen
      | None ->
        seen := -1 :: !seen;
        Storage.put ctx.Engine.stable "k" "42");
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.at eng 0.2 (fun () -> Engine.crash eng 0);
  Engine.at eng 0.4 (fun () -> Engine.restart eng 0);
  Engine.at eng 0.6 (fun () -> Engine.crash eng 0);
  Engine.at eng 0.8 (fun () -> Engine.restart eng ~wipe_stable:true 0);
  Engine.run eng;
  Alcotest.(check (list int)) "fresh, recovered, wiped" [ -1; 42; -1 ] (List.rev !seen)

let test_partition_blocks_both_directions () =
  let eng = make_engine () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (fun ctx ->
      ignore (ctx.Engine.set_timer ~tag:"s1" 1.0);
      ignore (ctx.Engine.set_timer ~tag:"s2" 3.0);
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ctx.Engine.send 0 (Ping 9));
      });
  Engine.at eng 0.5 (fun () -> Engine.set_reachable eng (fun a b -> a = b));
  Engine.at eng 2.0 (fun () -> Engine.set_reachable eng (fun _ _ -> true));
  Engine.run eng;
  (* First send (t=1) dropped; second (t=3) delivered. *)
  Alcotest.(check (list (pair int int))) "one ping got through" [ (0, 9) ] !received

let test_partition_drops_inflight () =
  (* A message in flight when the partition starts is dropped at delivery. *)
  let eng = make_engine ~net:{ Netmodel.ideal with base_latency = 1.0 } () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (fun ctx ->
      ignore (ctx.Engine.set_timer ~tag:"s" 0.1);
      {
        Engine.on_message = (fun ~src:_ _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ctx.Engine.send 0 (Ping 5));
      });
  (* Partition begins while the t=0.1 message is still in flight (arrives 1.1). *)
  Engine.at eng 0.5 (fun () -> Engine.set_reachable eng (fun a b -> a = b));
  Engine.run eng;
  Alcotest.(check (list (pair int int))) "in-flight dropped" [] !received

let test_determinism_same_seed () =
  let run seed =
    let eng = make_engine ~seed ~net:Netmodel.lossy () in
    let log = ref [] in
    for id = 0 to 2 do
      Engine.add_node eng ~id (fun ctx ->
          ignore (ctx.Engine.set_timer ~tag:"go" (0.01 *. float_of_int (id + 1)));
          {
            Engine.on_message =
              (fun ~src m ->
                log := (ctx.Engine.now (), ctx.Engine.self, src, classify m) :: !log);
            on_timer =
              (fun ~tid:_ ~tag:_ ->
                for dst = 0 to 2 do
                  if dst <> ctx.Engine.self then ctx.Engine.send dst (Ping id)
                done);
          })
    done;
    Engine.run eng;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (run 5 = run 5);
  Alcotest.(check bool) "different seed, different trace" true (run 5 <> run 6)

let test_metrics_counters () =
  let eng = make_engine () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (echo_node received);
  Engine.add_node eng ~id:1 (fun ctx ->
      ctx.Engine.send 0 (Ping 1);
      ctx.Engine.send 0 (Ping 2);
      echo_node received ctx);
  Engine.run eng;
  Alcotest.(check int) "sender sent 2" 2 (Metrics.get (Engine.metrics eng 1) "msgs_sent");
  Alcotest.(check int) "sender sent pings" 2
    (Metrics.get (Engine.metrics eng 1) "sent.ping");
  Alcotest.(check int) "echo received 2" 2 (Metrics.get (Engine.metrics eng 0) "msgs_recv");
  Alcotest.(check int) "echo sent pongs" 2 (Metrics.get (Engine.metrics eng 0) "sent.pong");
  Alcotest.(check int) "bytes counted" 64
    (Metrics.get (Engine.metrics eng 1) "bytes_sent")

let test_drop_rate () =
  let net = { Netmodel.ideal with drop_prob = 0.3 } in
  let eng = make_engine ~seed:9 ~net () in
  let received = ref [] in
  Engine.add_node eng ~id:0 (fun ctx ->
      ignore ctx;
      {
        Engine.on_message = (fun ~src:_ _ -> received := () :: !received);
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  Engine.add_node eng ~id:1 (fun ctx ->
      for _ = 1 to 1000 do
        ctx.Engine.send 0 (Ping 0)
      done;
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.run eng;
  let got = List.length !received in
  Alcotest.(check bool)
    (Printf.sprintf "durable rate ~0.7 (got %d/1000)" got)
    true
    (got > 640 && got < 760)

let test_duplication () =
  let net = { Netmodel.ideal with dup_prob = 1.0 } in
  let eng = make_engine ~net () in
  let received = ref 0 in
  Engine.add_node eng ~id:0 (fun _ ->
      {
        Engine.on_message = (fun ~src:_ _ -> incr received);
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  Engine.add_node eng ~id:1 (fun ctx ->
      ctx.Engine.send 0 (Ping 1);
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.run eng;
  Alcotest.(check int) "delivered twice" 2 !received

let test_run_until_and_now () =
  let eng = make_engine () in
  Engine.add_node eng ~id:0 (fun ctx ->
      ignore (ctx.Engine.set_timer ~tag:"late" 10.0);
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  Engine.run ~until:2.5 eng;
  Alcotest.(check (float 1e-9)) "time stops at until" 2.5 (Engine.now eng);
  Engine.run ~until:20. eng;
  Alcotest.(check bool) "advances past timer" true (Engine.now eng >= 10.

  );
  Alcotest.(check bool) "events processed" true (Engine.events_processed eng > 0)

let test_netmodel_samplers () =
  let rng = Cp_util.Rng.create 4 in
  (* ideal: constant delay, never drops. *)
  for _ = 1 to 100 do
    match Netmodel.sample_delay Netmodel.ideal rng with
    | Some d -> Alcotest.(check (float 1e-12)) "constant" 1e-3 d
    | None -> Alcotest.fail "ideal dropped"
  done;
  (* lan: delay within [base, base+jitter). *)
  for _ = 1 to 100 do
    match Netmodel.sample_delay Netmodel.lan rng with
    | Some d ->
      Alcotest.(check bool) "within jitter band" true (d >= 50e-6 && d < 100e-6)
    | None -> Alcotest.fail "lan dropped"
  done

let test_stable_accounting () =
  let s = Cp_storage.Mem.store () in
  Storage.put s "a" "123";
  Storage.put s "b" "hello";
  let w1 = Storage.write_count s in
  let b1 = Storage.bytes_used s in
  Alcotest.(check int) "two writes" 2 w1;
  Alcotest.(check bool) "bytes positive" true (b1 > 0);
  Storage.put s "a" "456";
  Alcotest.(check int) "overwrite counts" 3 (Storage.write_count s);
  Alcotest.(check int) "bytes stable on overwrite" b1 (Storage.bytes_used s);
  Storage.remove s "b";
  Alcotest.(check bool) "bytes shrink" true (Storage.bytes_used s < b1);
  Alcotest.(check (option string)) "get back" (Some "456") (Storage.get s "a");
  Alcotest.(check (list string)) "keys" [ "a" ] (Storage.keys s);
  Storage.wipe s;
  Alcotest.(check (list string)) "wiped" [] (Storage.keys s)

let suite =
  [
    Alcotest.test_case "delivery and reply" `Quick test_delivery_and_reply;
    Alcotest.test_case "timer fires; cancel works" `Quick test_timer_fires_and_cancel;
    Alcotest.test_case "crash invalidates timers" `Quick test_crash_invalidates_timers;
    Alcotest.test_case "restart rebuilds node" `Quick test_restart_rebuilds_and_timers_isolated;
    Alcotest.test_case "message to down node lost" `Quick test_message_to_down_node_lost;
    Alcotest.test_case "stable storage across restarts" `Quick
      test_stable_survives_restart_not_wipe;
    Alcotest.test_case "partition blocks traffic" `Quick test_partition_blocks_both_directions;
    Alcotest.test_case "partition drops in-flight" `Quick test_partition_drops_inflight;
    Alcotest.test_case "determinism by seed" `Quick test_determinism_same_seed;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "drop rate statistics" `Quick test_drop_rate;
    Alcotest.test_case "duplication" `Quick test_duplication;
    Alcotest.test_case "run until / now" `Quick test_run_until_and_now;
    Alcotest.test_case "netmodel samplers" `Quick test_netmodel_samplers;
    Alcotest.test_case "stable accounting" `Quick test_stable_accounting;
  ]
