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
  Thread.delay 0.4;
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
  Thread.delay 0.3;
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
    Node.trace_records node
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

let test_other_group_dropped () =
  (* The node hosts group 0 only: of one datagram holding a group 1 frame
     and a group 0 frame, the handler sees the second, and the first is
     counted and dropped. *)
  let got = ref [] in
  let recv =
    Node.create ~port_of ~id_of_port ~id:16 ~seed:1
      ~build:(fun _ -> { quiet with Engine.on_message = (fun ~src msg -> got := (src, msg) :: !got) })
      ()
  in
  let buf = Bytes.create 256 in
  let pos = Cp_proto.Codec.encode_into buf ~pos:0 ~gid:1 ~tid:0 (Types.CommitFloor { upto = 1 }) in
  let len = Cp_proto.Codec.encode_into buf ~pos ~gid:0 ~tid:0 (Types.CommitFloor { upto = 2 }) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of 17));
  ignore (Unix.sendto sock buf 0 len [] (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of 16)));
  Unix.close sock;
  ignore (wait_until (fun () -> Node.with_lock recv (fun () -> !got <> [])));
  let unknown = Node.counter recv "mux_unknown_group" in
  let got = Node.with_lock recv (fun () -> !got) in
  Node.shutdown recv;
  Alcotest.(check bool) "the handler saw the group 0 frame alone" true
    (match got with [ (17, Types.CommitFloor { upto = 2 }) ] -> true | _ -> false);
  Alcotest.(check int) "the group 1 frame counted" 1 unknown

(* The node contract the end-to-end benchmark leans on: [with_lock]
   excludes the handlers; a send made inside it leaves when it returns; and
   a handler error shows in [metrics]. Node [b] drives node [a]. *)
let test_node_contract ~a_id () =
  let b_id = a_id + 1 in
  let seen = Atomic.make 0 and b_got = Atomic.make 0 in
  let a_ctx = ref None in
  let a =
    Node.create ~port_of ~id_of_port ~id:a_id ~seed:1
      ~build:(fun ctx ->
        a_ctx := Some ctx;
        {
          quiet with
          Engine.on_message =
            (fun ~src:_ msg ->
              match msg with
              | Types.CommitFloor { upto = 0 } -> failwith "poisoned message"
              | _ -> Atomic.incr seen);
        })
      ()
  in
  let b_ctx = ref None in
  let b =
    Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
      ~build:(fun ctx ->
        b_ctx := Some ctx;
        { quiet with Engine.on_message = (fun ~src:_ _ -> Atomic.incr b_got) })
      ()
  in
  let b_sends upto =
    Node.with_lock b (fun () -> (Option.get !b_ctx).Engine.send a_id (Types.CommitFloor { upto }))
  in
  let inside, b_inside =
    Node.with_lock a (fun () ->
        b_sends 1;
        (Option.get !a_ctx).Engine.send b_id (Types.CommitFloor { upto = 7 });
        Thread.delay 0.2;
        (Atomic.get seen, Atomic.get b_got))
  in
  let after = wait_until (fun () -> Atomic.get seen = 1) in
  let b_after = wait_until (fun () -> Atomic.get b_got = 1) in
  b_sends 0;
  let errors () = Node.with_lock a (fun () -> Cp_sim.Metrics.get (Node.metrics a) "handler_errors") in
  let error_seen = wait_until (fun () -> errors () >= 1) in
  Node.shutdown a;
  Node.shutdown b;
  Alcotest.(check int) "handler excluded by with_lock" 0 inside;
  Alcotest.(check bool) "handler ran after release" true after;
  Alcotest.(check int) "send inside with_lock held back" 0 b_inside;
  Alcotest.(check bool) "send inside with_lock left on exit" true b_after;
  Alcotest.(check bool) "handler error in Node.metrics" true error_seen

(* A store whose [nth] flush raises and every other one succeeds: an
   fsync that fails once (EIO) and works when retried. *)
module Fails_once = struct
  module Storage = Cp_storage.Storage

  type t = { inner : Storage.t; mutable countdown : int }

  let backend t = Storage.backend t.inner

  let put t k v = Storage.put t.inner k v

  let get t k = Storage.get t.inner k

  let remove t k = Storage.remove t.inner k

  let mem t k = Storage.mem t.inner k

  let keys t = Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let flush t =
    t.countdown <- t.countdown - 1;
    if t.countdown = 0 then failwith "fsync: EIO";
    Storage.flush t.inner

  let wipe t = Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

let fails_once ~nth inner =
  Cp_storage.Storage.Packed ((module Fails_once), { Fails_once.inner; countdown = nth })

(* A handler puts a record, then sends a frame too big for the outbox,
   which the node transmits at once through a one-off buffer, and then a
   small frame, which leaves with the outbox. Both transmits must wait for
   the store flush. The node's first flush, at build, succeeds; the next
   one, before the oversize transmit, fails. The receiver must then get
   nothing, neither from that handler nor from a second message's: the
   group is fenced, even over a store whose later flushes succeed. The same
   handler over a healthy store delivers both replies to both messages. *)
let test_oversize_send_waits_for_flush ~a_id () =
  let b_id = a_id + 1 in
  let run store =
    let got = Atomic.make 0 in
    let a =
      Node.create ~port_of ~id_of_port ~id:a_id ~seed:1
        ~storage:(fun _ -> store)
        ~build:(fun ctx ->
          {
            quiet with
            Engine.on_message =
              (fun ~src _ ->
                Cp_storage.Storage.put ctx.Engine.stable "k" "v";
                ctx.Engine.send src
                  (Types.ClientResp { client = 1; seq = 1; result = String.make 62_000 'x' });
                ctx.Engine.send src (Types.CommitFloor { upto = 2 }));
          })
        ()
    in
    let b_ctx = ref None in
    let b =
      Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
        ~build:(fun ctx ->
          b_ctx := Some ctx;
          { quiet with Engine.on_message = (fun ~src:_ _ -> Atomic.incr got) })
        ()
    in
    let ping () =
      Node.with_lock b (fun () ->
          (Option.get !b_ctx).Engine.send a_id (Types.CommitFloor { upto = 1 }))
    in
    let flush_errors () = Node.counter a "storage_flush_errors"
    and fenced_drops () = Node.counter a "fenced_drops" in
    ping ();
    ignore (wait_until (fun () -> Atomic.get got >= 2 || flush_errors () > 0));
    (* Time for a datagram sent before the failure to land. *)
    Thread.delay 0.1;
    ping ();
    ignore (wait_until (fun () -> Atomic.get got >= 4 || fenced_drops () > 0));
    Thread.delay 0.1;
    let r = (Atomic.get got, flush_errors (), fenced_drops (), Node.counter a "wire_copies") in
    Node.shutdown a;
    Node.shutdown b;
    r
  in
  let got, flush_errors, fenced_drops, copies = run (Cp_storage.Mem.store ()) in
  Alcotest.(check int) "healthy store: both replies to both messages arrive" 4 got;
  Alcotest.(check int) "healthy store: no flush error" 0 flush_errors;
  Alcotest.(check int) "healthy store: nothing fenced" 0 fenced_drops;
  Alcotest.(check int) "each oversize frame took the one-off buffer" 2 copies;
  let crashed name store =
    let got, flush_errors, fenced_drops, _ = run store in
    Alcotest.(check int) (name ^ ": the receiver counts zero deliveries") 0 got;
    Alcotest.(check int) (name ^ ": one flush error, then no flush") 1 flush_errors;
    Alcotest.(check int) (name ^ ": the second message is refused") 1 fenced_drops
  in
  crashed "crashed store"
    (Cp_storage.Faulty.store
       (Cp_storage.Faulty.plan ~crash_before_flush:1 ())
       (Cp_storage.Mem.store ()));
  crashed "flush fails once" (fails_once ~nth:2 (Cp_storage.Mem.store ()))

(* One datagram carrying 8 P2a frames is one task, so the auxiliary that
   accepts all 8 votes pays one fsync for them. *)
let test_datagram_of_p2as_one_fsync () =
  Test_storage.with_tmpdir (fun dir ->
      let a_id = 32 and b_id = 33 in
      let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
      let a =
        Node.create ~port_of ~id_of_port ~id:a_id ~seed:1
          ~storage:(fun _ -> Cp_storage.Wal.store dir)
          ~build:(fun ctx ->
            Cp_engine.Replica.handlers
              (Cp_engine.Replica.create ctx ~role:Cp_engine.Replica.Aux
                 ~policy:Cheap_paxos.Cheap.policy ~params:Cp_engine.Params.default ~initial
                 ~universe_mains:[ 0; 1 ] ~universe_auxes:[ a_id ] ~app:(module Cp_smr.Counter)))
          ()
      in
      let p2bs = Atomic.make 0 in
      let b_ctx = ref None in
      let b =
        Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
          ~build:(fun ctx ->
            b_ctx := Some ctx;
            {
              quiet with
              Engine.on_message =
                (fun ~src:_ msg ->
                  match msg with Types.P2b _ -> Atomic.incr p2bs | _ -> ());
            })
          ()
      in
      let fsyncs0 = Node.counter a "storage_fsyncs" in
      let ballot = Cp_proto.Ballot.make ~round:1 ~leader:b_id in
      Node.with_lock b (fun () ->
          for instance = 0 to 7 do
            (Option.get !b_ctx).Engine.send a_id
              (Types.P2a { ballot; instance; entry = Types.Noop })
          done);
      let acked = wait_until (fun () -> Atomic.get p2bs = 8) in
      let fsyncs = Node.counter a "storage_fsyncs" - fsyncs0 in
      let datagrams = Node.counter b "wire_syscalls" in
      Node.shutdown a;
      Node.shutdown b;
      Alcotest.(check bool) "all 8 votes acked" true acked;
      Alcotest.(check int) "the 8 P2as left in one datagram" 1 datagrams;
      Alcotest.(check int) "one fsync for the datagram's 8 votes" 1 fsyncs)

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

(* The node's per-message counters come from handles: a counter is listed
   only once bumped, and each send or receive bumps exactly what the
   name-building path did — [msgs_*], [bytes_*], [encoded_bytes] and one
   [sent.<kind>] or [recv.<kind>]. *)
let test_counter_handles () =
  let counters node =
    Node.with_lock node (fun () -> Cp_sim.Metrics.counters (Node.metrics node))
  in
  let per_kind node =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"sent." n || String.starts_with ~prefix:"recv." n)
      (counters node)
  in
  let echoes = ref 0 in
  let ctx_cell = ref None in
  let echo =
    Node.create ~port_of ~id_of_port ~id:41 ~seed:2
      ~build:(fun ctx ->
        {
          Engine.on_message =
            (fun ~src msg ->
              match msg with
              | Types.CommitFloor { upto } -> ctx.Engine.send src (Types.CommitFloor { upto })
              | _ -> ());
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  let pinger =
    Node.create ~port_of ~id_of_port ~id:40 ~seed:3
      ~build:(fun ctx ->
        ctx_cell := Some ctx;
        {
          Engine.on_message = (fun ~src:_ _ -> incr echoes);
          on_timer = (fun ~tid:_ ~tag:_ -> ());
        })
      ()
  in
  Alcotest.(check (list (pair string int))) "no per-kind counter before any message" []
    (per_kind pinger);
  Alcotest.(check int) "no msgs_sent yet" 0
    (List.length (List.filter (fun (n, _) -> n = "msgs_sent") (counters pinger)));
  let ctx = Option.get !ctx_cell in
  Node.with_lock pinger (fun () ->
      for upto = 1 to 5 do
        ctx.Engine.send 41 (Types.CommitFloor { upto })
      done;
      ctx.Engine.send 41 (Types.JoinReq { from = 40 }));
  let deadline = Unix.gettimeofday () +. 5. in
  while !echoes < 5 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let got = counters pinger in
  Node.shutdown echo;
  Node.shutdown pinger;
  Alcotest.(check int) "all echoes back" 5 !echoes;
  let get n = Option.value (List.assoc_opt n got) ~default:(-1) in
  Alcotest.(check (list (pair string int))) "per-kind counters"
    [ ("recv.commit_floor", 5); ("sent.commit_floor", 5); ("sent.join_req", 1) ]
    (List.filter
       (fun (n, _) -> String.starts_with ~prefix:"sent." n || String.starts_with ~prefix:"recv." n)
       got);
  Alcotest.(check int) "msgs_sent" 6 (get "msgs_sent");
  Alcotest.(check int) "msgs_recv" 5 (get "msgs_recv");
  Alcotest.(check bool) "bytes_sent = encoded_bytes > 0" true
    (get "bytes_sent" > 0 && get "bytes_sent" = get "encoded_bytes");
  Alcotest.(check bool) "bytes_recv counted" true (get "bytes_recv" > 0)

(* The handlers run on two threads: messages on the receive thread, timers
   on the timer thread. Only the node's lock keeps the two out of each
   other. Node [a] re-arms a 1 ms timer while node [b] floods it with
   datagrams. Every handler marks the node busy and sleeps inside, so a
   missing lock shows as an overlap. *)
let test_group_handlers_exclusive () =
  let a_id = 50 and b_id = 51 in
  let busy = Atomic.make false
  and overlaps = Atomic.make 0
  and timer_runs = Atomic.make 0
  and msg_runs = Atomic.make 0 in
  let handler runs =
    if Atomic.exchange busy true then Atomic.incr overlaps;
    Atomic.incr runs;
    Thread.delay 2e-4;
    Atomic.set busy false
  in
  let a =
    Node.create ~port_of ~id_of_port ~id:a_id ~seed:1
      ~build:(fun ctx ->
        ignore (ctx.Engine.set_timer 1e-3);
        {
          Engine.on_message = (fun ~src:_ _ -> handler msg_runs);
          on_timer =
            (fun ~tid:_ ~tag:_ ->
              handler timer_runs;
              ignore (ctx.Engine.set_timer 1e-3));
        })
      ()
  in
  let b_ctx = ref None in
  let b =
    Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
      ~build:(fun ctx ->
        b_ctx := Some ctx;
        quiet)
      ()
  in
  let stop = Unix.gettimeofday () +. 0.5 in
  while Unix.gettimeofday () < stop do
    Node.with_lock b (fun () ->
        (Option.get !b_ctx).Engine.send a_id (Types.CommitFloor { upto = 1 }));
    Thread.delay 5e-4
  done;
  Node.shutdown a;
  Node.shutdown b;
  Alcotest.(check int) "handlers never overlapped" 0 (Atomic.get overlaps);
  Alcotest.(check bool) "timer ran >= 100 times" true (Atomic.get timer_runs >= 100);
  Alcotest.(check bool) "message handler ran >= 100 times" true (Atomic.get msg_runs >= 100)

(* [port_of] is user-supplied, like [id_of_port]: a send to a destination
   it rejects is a dropped send. It must not escape [with_lock] with the
   node's lock held, which would wedge every later task, nor cost another
   peer its datagram (the outbox flushes in ascending destination order,
   so the rejected one goes first). *)
let test_unmapped_destination_dropped () =
  let a_id = 60 and unmapped = 61 and b_id = 62 in
  let got = Atomic.make 0 in
  let b =
    Node.create ~port_of ~id_of_port ~id:b_id ~seed:2
      ~build:(fun _ -> { quiet with Engine.on_message = (fun ~src:_ _ -> Atomic.incr got) })
      ()
  in
  let strict_port_of id = if id = unmapped then raise Not_found else port_of id in
  let a_ctx = ref None in
  let a =
    Node.create ~port_of:strict_port_of ~id_of_port ~id:a_id ~seed:1
      ~build:(fun ctx ->
        a_ctx := Some ctx;
        quiet)
      ()
  in
  let send dst = (Option.get !a_ctx).Engine.send dst (Types.CommitFloor { upto = 1 }) in
  (try
     Node.with_lock a (fun () ->
         send unmapped;
         send b_id)
   with _ -> ());
  let returned = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Node.with_lock a ignore;
         Atomic.set returned true)
       ());
  let unwedged = wait_until (fun () -> Atomic.get returned) in
  let delivered = wait_until (fun () -> Atomic.get got = 1) in
  (* [counter] takes the lock: read it only if the lock is free. *)
  let drops = if unwedged then Node.counter a "send_drops" else -1 in
  Node.shutdown a;
  Node.shutdown b;
  Alcotest.(check bool) "a later with_lock returns" true unwedged;
  Alcotest.(check bool) "the other peer got its datagram" true delivered;
  Alcotest.(check int) "the rejected send counted" 1 drops

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
    Alcotest.test_case "a frame for another group is counted and dropped" `Slow
      test_other_group_dropped;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "node contract (inline dispatch)" `Slow (test_node_contract ~a_id:20);
    Alcotest.test_case "oversize send waits for the flush (inline dispatch)" `Slow
      (test_oversize_send_waits_for_flush ~a_id:28);
    Alcotest.test_case "counter handles" `Slow test_counter_handles;
    Alcotest.test_case "a group never runs two handlers at once" `Slow
      test_group_handlers_exclusive;
    Alcotest.test_case "a datagram of 8 P2as costs one fsync" `Slow
      test_datagram_of_p2as_one_fsync;
    Alcotest.test_case "a destination port_of rejects is a dropped send" `Slow
      test_unmapped_destination_dropped;
  ]
