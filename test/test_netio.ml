(* Real-socket integration: the same replica and client code, over actual
   UDP on loopback. Wall-clock and nondeterministic, so the assertions are
   coarse (completion + agreement), and generous timeouts keep it stable on
   loaded machines. *)

module Node = Cp_netio.Node
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client
module Config = Cp_proto.Config

let base_port = 45800

let port_of id = base_port + id

let id_of_port port = port - base_port

let test_udp_cluster_commits () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let universe_mains = [ 0; 1 ] and universe_auxes = [ 2 ] in
  let replicas = Hashtbl.create 4 in
  let make_replica id role =
    Node.create ~port_of ~id_of_port ~id ~seed:99
      ~build:(fun ctx ->
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params:Cp_engine.Params.default ~initial ~universe_mains ~universe_auxes
            ~app:(module Cp_smr.Counter)
        in
        Hashtbl.replace replicas id r;
        Replica.handlers r)
      ()
  in
  let nodes =
    List.map (fun id -> make_replica id Replica.Main) universe_mains
    @ List.map (fun id -> make_replica id Replica.Aux) universe_auxes
  in
  (* Datagrams that do not decode (a truncated frame, a truncated length)
     reach main 0 before any client traffic: they must be counted and
     dropped without disturbing commits. *)
  let raw = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  List.iter
    (fun junk ->
      ignore
        (Unix.sendto_substring raw junk 0 (String.length junk) []
           (Unix.ADDR_INET (Unix.inet_addr_loopback, port_of 0))))
    [ "\x05\x00\x02"; "\xff" ];
  Unix.close raw;
  let total = 25 in
  let client_cell = ref None in
  let client_node =
    Node.create ~port_of ~id_of_port ~id:1000 ~seed:7
      ~build:(fun ctx ->
        let c =
          Client.create ctx ~mains:universe_mains ~timeout:0.2
            ~ops:(fun seq -> if seq <= total then Some (Cp_smr.Counter.inc 1) else None)
            ()
        in
        client_cell := Some c;
        Client.handlers c)
      ()
  in
  let client = Option.get !client_cell in
  (* Poll for completion for up to 20 wall-clock seconds. *)
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    if Node.with_lock client_node (fun () -> Client.is_finished client) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  let finished = wait () in
  let done_count = Node.with_lock client_node (fun () -> Client.done_count client) in
  (* Give commits a moment to propagate to the follower, then check logs. *)
  Thread.delay 0.2;
  let dumps =
    List.map
      (fun id ->
        let r = Hashtbl.find replicas id in
        {
          Cp_checker.Consistency.node = id;
          base = Replica.log_base r;
          entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
        })
      universe_mains
  in
  (* Snapshot the observability exports while the nodes are still alive. *)
  let metrics_text0 = Node.metrics_text (List.hd nodes) in
  let decode_errors = Node.counter (List.hd nodes) "wire_decode_errors" in
  let aux_node = List.nth nodes 2 in
  let aux_trace_recvs =
    List.length
      (List.filter
         (fun (r : Cp_obs.Trace.record) ->
           match r.Cp_obs.Trace.ev with Cp_obs.Event.Msg_recv _ -> true | _ -> false)
         (Cp_obs.Trace.records (Node.trace aux_node)))
  in
  let aux_metric_recvs =
    Node.with_lock aux_node (fun () -> Cp_sim.Metrics.get (Node.metrics aux_node) "msgs_recv")
  in
  let main0_won_ballot =
    List.exists
      (fun (r : Cp_obs.Trace.record) ->
        match r.Cp_obs.Trace.ev with Cp_obs.Event.Ballot_won _ -> true | _ -> false)
      (Cp_obs.Trace.records (Node.trace (List.hd nodes)))
  in
  List.iter Node.shutdown (client_node :: nodes);
  Alcotest.(check bool) "client finished over real UDP" true finished;
  Alcotest.(check int) "junk datagrams counted at main 0" 2 decode_errors;
  Alcotest.(check int) "all ops done" total done_count;
  (match Cp_checker.Consistency.agreement dumps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The auxiliary was idle in this failure-free run. *)
  let aux = Hashtbl.find replicas 2 in
  Alcotest.(check int) "aux holds no votes" 0 (Replica.acceptor_vote_count aux);
  (* Startup elections race on wall clock, so a transiently widened
     candidate may touch the aux (any p2a gets nacked — the vote count
     above stays 0). What must hold of the observability layer is that the
     trace and the metrics counter agree about what was delivered. *)
  Alcotest.(check int) "aux trace matches recv counter" aux_metric_recvs aux_trace_recvs;
  Alcotest.(check bool) "main 0 won a ballot (typed trace)" true main0_won_ballot;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "metrics exposition has recv counter" true
    (contains metrics_text0 "# TYPE cp_msgs_recv counter");
  Alcotest.(check bool) "metrics exposition has latency summary" true
    (contains metrics_text0 "cp_commit_latency{quantile=\"0.5\"}")

(* Same replica and client code, but the replica nodes run the pool
   dispatch runtime ([exec_domains > 1]): handlers execute on domain
   workers under per-group locks instead of the node mutex. The protocol
   outcome must be unchanged, and the merged metrics snapshot must expose
   the pool's per-domain utilization counters. *)
let pool_base_port = 45900

let test_udp_pool_dispatch () =
  let port_of id = pool_base_port + id in
  let id_of_port port = port - pool_base_port in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let universe_mains = [ 0; 1 ] and universe_auxes = [ 2 ] in
  let replicas = Hashtbl.create 4 in
  let make_replica id role =
    Node.create ~port_of ~id_of_port ~id ~seed:99 ~exec_domains:2
      ~build:(fun ctx ->
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params:Cp_engine.Params.default ~initial ~universe_mains ~universe_auxes
            ~app:(module Cp_smr.Counter)
        in
        Hashtbl.replace replicas id r;
        Replica.handlers r)
      ()
  in
  let nodes =
    List.map (fun id -> (id, make_replica id Replica.Main)) universe_mains
    @ List.map (fun id -> (id, make_replica id Replica.Aux)) universe_auxes
  in
  let total = 15 in
  let client_cell = ref None in
  let client_node =
    Node.create ~port_of ~id_of_port ~id:1000 ~seed:7
      ~build:(fun ctx ->
        let c =
          Client.create ctx ~mains:universe_mains ~timeout:0.2
            ~ops:(fun seq -> if seq <= total then Some (Cp_smr.Counter.inc 1) else None)
            ()
        in
        client_cell := Some c;
        Client.handlers c)
      ()
  in
  let client = Option.get !client_cell in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    if Node.with_lock client_node (fun () -> Client.is_finished client) then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  let finished = wait () in
  let done_count = Node.with_lock client_node (fun () -> Client.done_count client) in
  Thread.delay 0.2;
  let dumps =
    List.map
      (fun id ->
        let node = List.assoc id nodes in
        let r = Hashtbl.find replicas id in
        Node.with_group node ~gid:0 (fun () ->
            {
              Cp_checker.Consistency.node = id;
              base = Replica.log_base r;
              entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
            }))
      universe_mains
  in
  let main0 = List.assoc 0 nodes in
  let domains_counter = Node.counter main0 "exec.domains" in
  let recvs_merged = Node.counter main0 "msgs_recv" in
  List.iter (fun (_, n) -> Node.shutdown n) nodes;
  Node.shutdown client_node;
  Alcotest.(check bool) "client finished under pool dispatch" true finished;
  Alcotest.(check int) "all ops done" total done_count;
  (match Cp_checker.Consistency.agreement dumps with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "merged snapshot exposes pool width" 2 domains_counter;
  Alcotest.(check bool) "merged snapshot counts receives" true (recvs_merged > 0)

let suite =
  [
    Alcotest.test_case "udp cluster commits" `Slow test_udp_cluster_commits;
    Alcotest.test_case "udp cluster commits (pool dispatch)" `Slow test_udp_pool_dispatch;
  ]
