(* Unit tests of the UDP runtime's timer machinery and message path, using
   a trivial echo protocol (no replicas, tight timeouts). Wall-clock based,
   so assertions are coarse. *)

module Node = Cp_netio.Node
module Engine = Cp_sim.Engine
module Types = Cp_proto.Types

let base = 46500

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let port_of id = base + id

let id_of_port p = p - base

let test_timers_fire_in_order () =
  let fired = ref [] in
  let lock = Mutex.create () in
  let node =
    Node.create ~port_of ~id_of_port ~id:0 ~seed:1
      ~build:(fun ctx ->
        ignore (ctx.Engine.set_timer ~tag:"b" 0.10);
        ignore (ctx.Engine.set_timer ~tag:"a" 0.05);
        ignore (ctx.Engine.set_timer ~tag:"c" 0.15);
        {
          Engine.on_message = (fun ~src:_ _ -> ());
          on_timer =
            (fun ~tid:_ ~tag ->
              Mutex.lock lock;
              fired := tag :: !fired;
              Mutex.unlock lock);
        })
      ()
  in
  Node.run_for node 0.4;
  Node.shutdown node;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_timer_cancel () =
  let fired = ref 0 in
  let node =
    Node.create ~port_of ~id_of_port ~id:1 ~seed:1
      ~build:(fun ctx ->
        let t1 = ctx.Engine.set_timer ~tag:"x" 0.05 in
        ctx.Engine.cancel_timer t1;
        ignore (ctx.Engine.set_timer ~tag:"y" 0.08);
        {
          Engine.on_message = (fun ~src:_ _ -> ());
          on_timer = (fun ~tid:_ ~tag:_ -> incr fired);
        })
      ()
  in
  Node.run_for node 0.3;
  Node.shutdown node;
  Alcotest.(check int) "only the uncancelled timer" 1 !fired

let test_echo_roundtrip () =
  (* Node 3 echoes CommitFloor upto+1 back; node 2 pings and records. *)
  let got = ref (-1) in
  let echo =
    Node.create ~port_of ~id_of_port ~id:3 ~seed:2
      ~build:(fun ctx ->
        {
          Engine.on_message =
            (fun ~src msg ->
              match msg with
              | Types.CommitFloor { upto } -> ctx.Engine.send src (Types.CommitFloor { upto = upto + 1 })
              | _ -> ());
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let pinger =
    Node.create ~port_of ~id_of_port ~id:2 ~seed:3
      ~build:(fun ctx ->
        ctx.Engine.send 3 (Types.CommitFloor { upto = 41 });
        {
          Engine.on_message =
            (fun ~src:_ msg ->
              match msg with Types.CommitFloor { upto } -> got := upto | _ -> ());
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got < 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Node.shutdown echo;
  Node.shutdown pinger;
  Alcotest.(check int) "echoed +1" 42 !got

let errors_of node = Node.counter node "handler_errors"

let test_handler_exceptions_survive () =
  (* Exceptions escaping protocol handlers must not kill the dispatch
     threads (nor, for the timer thread, poison the node lock): the node
     keeps serving and counts the errors. *)
  let got = ref 0 in
  let node =
    Node.create ~port_of ~id_of_port ~id:5 ~seed:1
      ~build:(fun ctx ->
        ignore (ctx.Engine.set_timer ~tag:"boom" 0.02);
        ignore (ctx.Engine.set_timer ~tag:"ok" 0.06);
        {
          Engine.on_message =
            (fun ~src:_ msg ->
              match msg with
              | Types.CommitFloor { upto = 0 } -> failwith "poisoned message"
              | Types.CommitFloor _ -> incr got
              | _ -> ());
          on_timer =
            (fun ~tid:_ ~tag ->
              if tag = "boom" then failwith "poisoned timer" else incr got);
        })
      ()
  in
  let sender =
    Node.create ~port_of ~id_of_port ~id:6 ~seed:2
      ~build:(fun ctx ->
        (* First datagram raises in the receiver's handler; the timer sends a
           second one that must still be served. *)
        ctx.Engine.send 5 (Types.CommitFloor { upto = 0 });
        ignore (ctx.Engine.set_timer ~tag:"second" 0.1);
        {
          Engine.on_message = (fun ~src:_ _ -> ());
          on_timer =
            (fun ~tid:_ ~tag:_ -> ctx.Engine.send 5 (Types.CommitFloor { upto = 1 }));
        })
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while !got < 2 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let errors = errors_of node in
  Node.shutdown node;
  Node.shutdown sender;
  Alcotest.(check int) "timer and later message still served" 2 !got;
  Alcotest.(check bool)
    (Printf.sprintf "handler_errors (%d) >= 2" errors)
    true (errors >= 2)

let test_unknown_source_port_dropped () =
  (* A datagram whose source port the user-supplied map rejects must be
     dropped and counted, not kill the receive thread. *)
  let got = ref 0 in
  let strict_id_of_port p = if p = port_of 8 then raise Not_found else id_of_port p in
  let node =
    Node.create ~port_of ~id_of_port:strict_id_of_port ~id:7 ~seed:1
      ~build:(fun _ ->
        {
          Engine.on_message = (fun ~src:_ _ -> incr got);
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let mk_sender id upto =
    Node.create ~port_of ~id_of_port ~id ~seed:id
      ~build:(fun ctx ->
        ctx.Engine.send 7 (Types.CommitFloor { upto });
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  let sender8 = mk_sender 8 1 in
  (* Wait for the rejected datagram before sending the accepted one, so the
     final counts are deterministic. *)
  while errors_of node < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let sender9 = mk_sender 9 2 in
  while !got < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let errors = errors_of node in
  Node.shutdown node;
  Node.shutdown sender8;
  Node.shutdown sender9;
  Alcotest.(check int) "only the mapped peer delivered" 1 !got;
  Alcotest.(check bool) (Printf.sprintf "drop counted (%d)" errors) true (errors >= 1)

let test_trace_id_propagates_over_udp () =
  (* A client_req minted at node 11 must tag the Msg_recv at node 12 (the
     id travels in the frame header) and ride the reply back. *)
  let echo =
    Node.create ~port_of ~id_of_port ~id:12 ~seed:2
      ~build:(fun ctx ->
        {
          Engine.on_message =
            (fun ~src msg ->
              match msg with
              | Types.ClientReq { client; seq; _ } ->
                ctx.Engine.send src (Types.ClientResp { client; seq; result = "ok" })
              | _ -> ());
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let got = ref false in
  let pinger =
    Node.create ~port_of ~id_of_port ~id:11 ~seed:3
      ~build:(fun ctx ->
        ctx.Engine.send 12 (Types.ClientReq { client = 11; seq = 1; op = "x" });
        {
          Engine.on_message = (fun ~src:_ _ -> got := true);
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not !got) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let traced_recv node ~from =
    Node.with_lock node (fun () -> Cp_obs.Trace.records (Node.trace node))
    |> List.exists (fun (r : Cp_obs.Trace.record) ->
           match r.Cp_obs.Trace.ev with
           | Cp_obs.Event.Msg_recv _ ->
             r.Cp_obs.Trace.tid <> 0 && Cp_obs.Traceid.origin_of r.Cp_obs.Trace.tid = from
           | _ -> false)
  in
  let at_echo = traced_recv echo ~from:11 in
  let at_pinger = traced_recv pinger ~from:11 in
  Node.shutdown echo;
  Node.shutdown pinger;
  Alcotest.(check bool) "reply received" true !got;
  Alcotest.(check bool) "request carried the minted id to node 12" true at_echo;
  Alcotest.(check bool) "reply carried the same chain back to node 11" true at_pinger

let test_admin_endpoint () =
  let admin_port = base + 300 in
  let node =
    Node.create ~port_of ~id_of_port ~id:13 ~seed:1 ~admin_port
      ~build:(fun ctx ->
        ctx.Engine.emit (Cp_obs.Event.Command_executed { instance = 0 });
        Cp_sim.Metrics.incr (ctx.Engine.metrics) "probe_counter";
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  (* The pure half. *)
  let code, _, health = Node.admin_response node "/healthz" in
  Alcotest.(check int) "healthz 200" 200 code;
  Alcotest.(check bool) "healthz body" true (contains health "ok node=13");
  let code, _, metrics = Node.admin_response node "/metrics" in
  Alcotest.(check int) "metrics 200" 200 code;
  Alcotest.(check bool) "metrics body" true (contains metrics "cp_probe_counter 1");
  let code, ctype, timeline = Node.admin_response node "/timeline" in
  Alcotest.(check int) "timeline 200" 200 code;
  Alcotest.(check string) "timeline is json" "application/json" ctype;
  Alcotest.(check bool) "timeline body" true (contains timeline "\"traceEvents\":[");
  Alcotest.(check bool) "timeline has the event" true
    (contains timeline "command_executed");
  let code, _, _ = Node.admin_response node "/nope" in
  Alcotest.(check int) "unknown path 404" 404 code;
  (* And one real scrape through the TCP listener. *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, admin_port));
  let req = "GET /healthz HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Bytes.create 4096 in
  let rec read_all acc =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> acc
    | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error _ -> acc
  in
  let resp = read_all "" in
  Unix.close sock;
  Node.shutdown node;
  Alcotest.(check bool) "HTTP status line" true (contains resp "HTTP/1.0 200 OK");
  Alcotest.(check bool) "HTTP body" true (contains resp "ok node=13")

let test_admin_large_response () =
  (* A /timeline body well past 64 KiB must arrive intact through the TCP
     listener: the admin loop's write is not guaranteed to take the whole
     buffer in one call (SO_SNDBUF is typically 64 KiB), so a short-write
     loop is load-bearing here, not an edge case. *)
  let admin_port = base + 301 in
  let node =
    Node.create ~port_of ~id_of_port ~id:14 ~seed:1 ~admin_port
      ~build:(fun ctx ->
        for i = 0 to 4999 do
          ctx.Engine.emit (Cp_obs.Event.Command_executed { instance = i })
        done;
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  let _, _, expected = Node.admin_response node "/timeline" in
  Alcotest.(check bool)
    (Printf.sprintf "body is past 64 KiB (%d bytes)" (String.length expected))
    true
    (String.length expected > 65536);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, admin_port));
  let req = "GET /timeline HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Bytes.create 65536 in
  let rec read_all acc =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> acc
    | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error _ -> acc
  in
  let resp = read_all "" in
  Unix.close sock;
  Node.shutdown node;
  (* Split headers from body at the first blank line. *)
  let body =
    let rec find i =
      if i + 4 > String.length resp then None
      else if String.sub resp i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    match find 0 with
    | Some i -> String.sub resp i (String.length resp - i)
    | None -> ""
  in
  Alcotest.(check int) "body length intact" (String.length expected) (String.length body);
  Alcotest.(check bool) "body bytes intact" true (String.equal expected body)

let test_multi_group_udp () =
  (* Two groups per node share one UDP socket; frames dispatch by group id,
     and frames for a group a node does not host are counted and dropped. *)
  let got_g0 = ref 0 and got_g1 = ref (-1) and reply_g1 = ref (-1) in
  let recv =
    Node.create ~port_of ~id_of_port ~id:16 ~seed:1
      ~build:(fun _ ->
        {
          Engine.on_message = (fun ~src:_ _ -> incr got_g0);
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  Node.add_group recv ~gid:1
    ~build:(fun ctx ->
      {
        Engine.on_message =
          (fun ~src msg ->
            match msg with
            | Types.CommitFloor { upto } ->
              got_g1 := upto;
              ctx.Engine.send src (Types.CommitFloor { upto = upto + 1 })
            | _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      })
  ;
  let sender =
    Node.create ~port_of ~id_of_port ~id:17 ~seed:2
      ~build:(fun _ ->
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  Node.add_group sender ~gid:1
    ~build:(fun ctx ->
      ctx.Engine.send 16 (Types.CommitFloor { upto = 5 });
      {
        Engine.on_message =
          (fun ~src:_ msg ->
            match msg with Types.CommitFloor { upto } -> reply_g1 := upto | _ -> ());
        on_timer = (fun ~tid:_ ~tag:_ -> ());
      });
  (* A group the receiver does not host: dropped and counted. *)
  Node.add_group sender ~gid:2
    ~build:(fun ctx ->
      ctx.Engine.send 16 (Types.CommitFloor { upto = 99 });
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  let unknown () = Node.counter recv "mux_unknown_group" in
  let deadline = Unix.gettimeofday () +. 5. in
  while (!reply_g1 < 0 || unknown () < 1) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let unknown_count = unknown () in
  Node.shutdown recv;
  Node.shutdown sender;
  Alcotest.(check int) "group 1 payload delivered to group 1" 5 !got_g1;
  Alcotest.(check int) "group 1 reply routed back" 6 !reply_g1;
  Alcotest.(check int) "group 0 saw nothing" 0 !got_g0;
  Alcotest.(check bool)
    (Printf.sprintf "unknown group counted (%d)" unknown_count)
    true (unknown_count >= 1)

let wait_until p =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    if p () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let quiet = { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) }

(* The node contract the end-to-end benchmark leans on, at both dispatch
   widths: [with_lock] excludes group 0's handlers; a send made inside it
   leaves when it returns; a handler error in group 0 shows in [metrics];
   and group 1's handlers do not wait for [with_lock]. Node [a] hosts
   groups 0 and 1; node [b] drives it. *)
let test_node_contract ~exec_domains ~a_id () =
  let b_id = a_id + 1 in
  let g0_seen = Atomic.make 0 and g1_seen = Atomic.make 0 and b_got = Atomic.make 0 in
  let a_ctx = ref None in
  let a =
    Node.create ~port_of ~id_of_port ~id:a_id ~seed:1 ~exec_domains
      ~build:(fun ctx ->
        a_ctx := Some ctx;
        {
          quiet with
          Engine.on_message =
            (fun ~src:_ msg ->
              match msg with
              | Types.CommitFloor { upto = 0 } -> failwith "poisoned message"
              | _ -> Atomic.incr g0_seen);
        })
      ()
  in
  Node.add_group a ~gid:1 ~build:(fun _ ->
      { quiet with Engine.on_message = (fun ~src:_ _ -> Atomic.incr g1_seen) });
  let b_ctx = Hashtbl.create 2 in
  let b =
    Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
      ~build:(fun ctx ->
        Hashtbl.replace b_ctx 0 ctx;
        { quiet with Engine.on_message = (fun ~src:_ _ -> Atomic.incr b_got) })
      ()
  in
  Node.add_group b ~gid:1 ~build:(fun ctx ->
      Hashtbl.replace b_ctx 1 ctx;
      quiet);
  let b_sends gid upto =
    Node.with_group b ~gid (fun () ->
        (Hashtbl.find b_ctx gid).Engine.send a_id (Types.CommitFloor { upto }))
  in
  let g1_ran, g0_inside, b_inside =
    Node.with_lock a (fun () ->
        b_sends 1 1;
        let g1_ran = wait_until (fun () -> Atomic.get g1_seen = 1) in
        b_sends 0 1;
        (Option.get !a_ctx).Engine.send b_id (Types.CommitFloor { upto = 7 });
        Thread.delay 0.2;
        (g1_ran, Atomic.get g0_seen, Atomic.get b_got))
  in
  let g0_after = wait_until (fun () -> Atomic.get g0_seen = 1) in
  let b_after = wait_until (fun () -> Atomic.get b_got = 1) in
  b_sends 0 0;
  let errors () = Node.with_lock a (fun () -> Cp_sim.Metrics.get (Node.metrics a) "handler_errors") in
  let error_seen = wait_until (fun () -> errors () >= 1) in
  Node.shutdown a;
  Node.shutdown b;
  Alcotest.(check bool) "group 1 ran while group 0 was held" true g1_ran;
  Alcotest.(check int) "group 0 handler excluded by with_lock" 0 g0_inside;
  Alcotest.(check bool) "group 0 handler ran after release" true g0_after;
  Alcotest.(check int) "send inside with_lock held back" 0 b_inside;
  Alcotest.(check bool) "send inside with_lock left on exit" true b_after;
  Alcotest.(check bool) "group 0 handler error in Node.metrics" true error_seen

let test_shutdown_idempotent () =
  let node =
    Node.create ~port_of ~id_of_port ~id:4 ~seed:1
      ~build:(fun _ ->
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  Node.shutdown node;
  Node.shutdown node;
  (* And the port is rebindable afterwards. *)
  let node2 =
    Node.create ~port_of ~id_of_port ~id:4 ~seed:1
      ~build:(fun _ ->
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  Node.shutdown node2

let suite =
  [
    Alcotest.test_case "timers fire in order" `Slow test_timers_fire_in_order;
    Alcotest.test_case "timer cancel" `Slow test_timer_cancel;
    Alcotest.test_case "echo roundtrip" `Slow test_echo_roundtrip;
    Alcotest.test_case "handler exceptions survive" `Slow test_handler_exceptions_survive;
    Alcotest.test_case "unknown source port dropped" `Slow test_unknown_source_port_dropped;
    Alcotest.test_case "trace id propagates over udp" `Slow
      test_trace_id_propagates_over_udp;
    Alcotest.test_case "admin endpoint" `Slow test_admin_endpoint;
    Alcotest.test_case "admin large response" `Slow test_admin_large_response;
    Alcotest.test_case "multi group udp" `Slow test_multi_group_udp;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "node contract (inline dispatch)" `Slow
      (test_node_contract ~exec_domains:0 ~a_id:20);
    Alcotest.test_case "node contract (pool dispatch)" `Slow
      (test_node_contract ~exec_domains:2 ~a_id:22);
  ]
