(* Protocol-level integration tests: elections, failover, recovery,
   catch-up, rejoin, auxiliary behaviour — each on a small simulated
   cluster. *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Inspect = Cp_runtime.Inspect
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client
module Config = Cp_proto.Config
module Engine = Cp_sim.Engine
module Counter = Cp_smr.Counter
module Workload = Cp_workload.Workload

let cheap_cluster ?(seed = 1) ?(net = Cp_sim.Netmodel.lan) ?params ?(spare_mains = 0)
    ?(f = 1) () =
  Cluster.create ~seed ~net ?params ~spare_mains ~policy:Cheap_paxos.Cheap.policy
    ~initial:(Cheap_paxos.Cheap.initial_config ~f)
    ~app:(module Counter) ()

let classic_cluster ?(seed = 1) ?(net = Cp_sim.Netmodel.lan) ?params ?(n = 3) () =
  Cluster.create ~seed ~net ?params ~policy:Cp_engine.Policy.classic
    ~initial:(Config.classic ~n)
    ~app:(module Counter) ()

let finish ?(deadline = 10.) cluster client =
  Cluster.run_until cluster ~deadline (fun () -> Client.is_finished client)

let assert_safe cluster =
  match Inspect.check_safety cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("safety: " ^ e)

(* --- elections --------------------------------------------------------- *)

let test_initial_leader_is_min_main () =
  let cluster = cheap_cluster () in
  let ok = Cluster.run_until cluster ~deadline:1. (fun () -> Cluster.leader cluster <> None) in
  Alcotest.(check bool) "leader emerged" true ok;
  Alcotest.(check (option int)) "node 0 leads" (Some 0) (Cluster.leader cluster)

let test_leader_crash_triggers_election () =
  let cluster = cheap_cluster ~f:2 () in
  Cluster.run ~until:0.1 cluster;
  Alcotest.(check (option int)) "initial leader" (Some 0) (Cluster.leader cluster);
  Cluster.crash cluster 0;
  let ok =
    Cluster.run_until cluster ~deadline:5. (fun () ->
        match Cluster.leader cluster with Some l when l <> 0 -> true | _ -> false)
  in
  Alcotest.(check bool) "new leader elected" true ok;
  (* The new leader is a main from the configuration. *)
  match Cluster.leader cluster with
  | Some l -> Alcotest.(check bool) "leader is main" true (List.mem l [ 1; 2 ])
  | None -> Alcotest.fail "no leader"

let test_ballots_increase_across_elections () =
  let cluster = cheap_cluster ~f:2 () in
  Cluster.run ~until:0.1 cluster;
  let b0 =
    Option.get (Replica.current_ballot (Cluster.replica cluster 0))
  in
  Cluster.crash cluster 0;
  let ok =
    Cluster.run_until cluster ~deadline:5. (fun () ->
        match Cluster.leader cluster with Some l when l <> 0 -> true | _ -> false)
  in
  Alcotest.(check bool) "elected" true ok;
  let l = Option.get (Cluster.leader cluster) in
  let b1 = Option.get (Replica.current_ballot (Cluster.replica cluster l)) in
  Alcotest.(check bool) "ballot grew" true Cp_proto.Ballot.(b0 < b1)

(* --- request routing ---------------------------------------------------- *)

let test_follower_redirects () =
  let cluster = cheap_cluster ~f:2 () in
  Cluster.run ~until:0.1 cluster;
  (* Contact follower 1 first; the redirect must still get the op done. *)
  let _, client =
    Cluster.add_client cluster ~contacts:[ 1; 0; 2 ]
      ~ops:(fun seq -> if seq <= 3 then Some (Counter.inc 1) else None)
      ()
  in
  Alcotest.(check bool) "finished" true (finish cluster client);
  Alcotest.(check bool) "follower redirected" true
    (Cluster.metric cluster 1 "sent.redirect" > 0)

let test_dedup_under_loss () =
  (* A drop-heavy network forces client retries; executed-at-most-once must
     hold regardless. The counter's final value is the proof. *)
  let net = { Cp_sim.Netmodel.lan with drop_prob = 0.15 } in
  let cluster = cheap_cluster ~seed:33 ~net ~f:1 () in
  let n = 120 in
  let _, client =
    Cluster.add_client cluster ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None) ()
  in
  Alcotest.(check bool) "finished" true (finish ~deadline:30. cluster client);
  let retries =
    List.fold_left
      (fun acc (id, _) -> acc + Cluster.metric cluster id "client_retries")
      0 [ (1000, client) ]
  in
  Alcotest.(check bool) (Printf.sprintf "retries occurred (%d)" retries) true (retries > 0);
  (* Read the counter value through a fresh client. *)
  let _, probe =
    Cluster.add_client cluster ~ops:(fun seq -> if seq = 1 then Some Counter.get else None) ()
  in
  Alcotest.(check bool) "probe finished" true (finish ~deadline:40. cluster probe);
  (match Client.history probe with
  | [ (_, _, _, v) ] -> Alcotest.(check string) "exactly-once total" (string_of_int n) v
  | _ -> Alcotest.fail "probe history");
  assert_safe cluster

(* --- catch-up ----------------------------------------------------------- *)

let test_partitioned_follower_catches_up () =
  (* Classic policy so the partitioned node is not removed. *)
  let cluster = classic_cluster ~seed:5 ~n:3 () in
  let n = 200 in
  let _, client =
    Cluster.add_client cluster ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None) ()
  in
  Faults.schedule cluster
    [ (0.02, Faults.Partition [ [ 0; 1 ]; [ 2 ] ]); (0.4, Faults.Heal) ];
  Alcotest.(check bool) "finished" true (finish cluster client);
  (* After healing, node 2 must converge to the same executed prefix. *)
  let target () =
    Replica.executed (Cluster.replica cluster 2)
    = Replica.executed (Cluster.replica cluster 0)
  in
  Alcotest.(check bool) "follower converged" true
    (Cluster.run_until cluster ~deadline:(Cluster.now cluster +. 5.) target);
  assert_safe cluster

let test_candidate_catches_up_past_compaction () =
  (* Catchup racing compaction: while main 1 is partitioned away, the leader
     keeps committing through the (engaged) auxiliary and snapshots, so its
     acceptor floor climbs past node 1's chosen prefix. Reconfiguration is
     off, so node 1 stays in the configuration and campaigns from the
     partition. After the heal its P1a carries the higher ballot, and the
     quorum's promises report [compacted_upto] beyond its own prefix
     ([c_max_compacted > Log.prefix]) — it must fetch the compacted prefix
     (snapshot catch-up) before assuming leadership, not lead over a gap. *)
  let policy =
    { Cheap_paxos.Cheap.policy with Cp_engine.Policy.name = "cheap-noreconf"; reconfigure = false }
  in
  let params = { Cp_engine.Params.default with snapshot_every = 10 } in
  let cluster =
    Cluster.create ~seed:31 ~params ~policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Counter) ()
  in
  let n = 600 in
  let client_ops seq = if seq <= n then Some (Counter.inc 1) else None in
  let _, client = Cluster.add_client cluster ~ops:client_ops () in
  Faults.schedule cluster
    [ (0.05, Faults.Partition [ [ 1 ]; [ 0; 2; 1000 ] ]); (0.25, Faults.Heal) ];
  (* Run past the heal even if the client drains early, then wait for node
     1's post-heal campaign to hit the compaction race. *)
  Cluster.run ~until:0.26 cluster;
  Alcotest.(check bool) "finished" true (finish ~deadline:30. cluster client);
  let r1 = Cluster.replica cluster 1 in
  Alcotest.(check bool) "race was exercised" true
    (Cluster.run_until cluster ~step:1e-3 ~deadline:(Cluster.now cluster +. 5.) (fun () ->
         Cluster.metric cluster 1 "catchup_before_lead" > 0));
  Alcotest.(check bool) "node 1 installed the compacted prefix" true
    (Replica.log_base r1 > 0);
  let converged () =
    Replica.executed r1 = Replica.executed (Cluster.replica cluster 0)
  in
  Alcotest.(check bool) "replicas converge" true
    (Cluster.run_until cluster ~deadline:(Cluster.now cluster +. 5.) converged);
  (* Exactly-once through the whole episode. *)
  let _, probe =
    Cluster.add_client cluster ~ops:(fun seq -> if seq = 1 then Some Counter.get else None) ()
  in
  Alcotest.(check bool) "probe finished" true (finish ~deadline:40. cluster probe);
  (match Client.history probe with
  | [ (_, _, _, v) ] -> Alcotest.(check string) "exactly-once total" (string_of_int n) v
  | _ -> Alcotest.fail "probe history");
  assert_safe cluster

(* --- recovery from stable storage ---------------------------------------- *)

let test_crash_recovery_with_disk () =
  let params = { Cp_engine.Params.default with snapshot_every = 50 } in
  let cluster = cheap_cluster ~seed:8 ~params ~f:1 () in
  let n = 300 in
  let _, client =
    Cluster.add_client cluster ~think:5e-4
      ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None)
      ()
  in
  (* Crash the leader mid-run and bring it back with its disk. *)
  Faults.schedule cluster [ (0.08, Faults.Crash 0); (0.3, Faults.Restart 0) ];
  Alcotest.(check bool) "finished" true (finish ~deadline:20. cluster client);
  (* Node 0 recovered, snapshotted, and kept executing. *)
  let r0 = Cluster.replica cluster 0 in
  Alcotest.(check bool) "node 0 snapshotted" true (Replica.log_base r0 > 0);
  let converged () =
    Replica.executed (Cluster.replica cluster 0)
    = Replica.executed (Cluster.replica cluster 1)
  in
  Alcotest.(check bool) "replicas converge" true
    (Cluster.run_until cluster ~deadline:(Cluster.now cluster +. 5.) converged);
  (* The counter survived the crash exactly. *)
  let _, probe =
    Cluster.add_client cluster ~ops:(fun seq -> if seq = 1 then Some Counter.get else None) ()
  in
  Alcotest.(check bool) "probe" true (finish ~deadline:30. cluster probe);
  (match Client.history probe with
  | [ (_, _, _, v) ] -> Alcotest.(check string) "value" (string_of_int n) v
  | _ -> Alcotest.fail "probe history");
  assert_safe cluster

(* --- removal and rejoin --------------------------------------------------- *)

let wait_config cluster ~deadline pred =
  Cluster.run_until cluster ~deadline (fun () ->
      match Cluster.leader cluster with
      | Some l -> pred (Replica.latest_config (Cluster.replica cluster l))
      | None -> false)

let test_removed_main_rejoins () =
  let cluster = cheap_cluster ~seed:21 ~f:1 () in
  let _, client =
    Cluster.add_client cluster ~think:1e-3
      ~ops:(fun seq -> if seq <= 2000 then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster [ (0.1, Faults.Crash 1); (0.5, Faults.Restart 1) ];
  (* Removed first... *)
  Alcotest.(check bool) "removed" true
    (wait_config cluster ~deadline:0.5 (fun cfg -> not (Config.is_main cfg 1)));
  (* ...then re-added after restart. *)
  Alcotest.(check bool) "re-added" true
    (wait_config cluster ~deadline:3.0 (fun cfg -> Config.is_main cfg 1));
  (* And the rejoined machine converges. *)
  let converged () =
    Replica.executed (Cluster.replica cluster 1) > 0
    && Replica.executed (Cluster.replica cluster 1)
       >= Replica.executed (Cluster.replica cluster 0) - 50
  in
  Alcotest.(check bool) "rejoined node catches up" true
    (Cluster.run_until cluster ~deadline:(Cluster.now cluster +. 3.) converged);
  ignore client;
  assert_safe cluster

let test_wiped_spare_replaces_dead_main () =
  (* Machine 1 dies forever; spare machine 3 (boots with empty state) must
     take its place — the paper's replacement-machine story. *)
  let cluster = cheap_cluster ~seed:22 ~f:1 ~spare_mains:1 () in
  let _, client =
    Cluster.add_client cluster ~think:1e-3
      ~ops:(fun seq -> if seq <= 1500 then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster [ (0.1, Faults.Crash 1) ];
  Alcotest.(check bool) "spare joined" true
    (wait_config cluster ~deadline:5.0 (fun cfg ->
         Config.is_main cfg 3 && not (Config.is_main cfg 1)));
  Alcotest.(check bool) "client finished" true (finish ~deadline:15. cluster client);
  (* The spare executes commands like any main. *)
  Alcotest.(check bool) "spare executes" true
    (Replica.executed (Cluster.replica cluster 3) > 0);
  assert_safe cluster

let test_spare_stands_by_when_healthy () =
  let cluster = cheap_cluster ~seed:23 ~f:1 ~spare_mains:1 () in
  let _, client =
    Cluster.add_client cluster
      ~ops:(fun seq -> if seq <= 100 then Some (Counter.inc 1) else None)
      ()
  in
  Alcotest.(check bool) "finished" true (finish cluster client);
  let cfg = Replica.latest_config (Cluster.replica cluster 0) in
  Alcotest.(check bool) "spare not admitted" false (Config.is_main cfg 3);
  Alcotest.(check int) "no reconfigs" 0 (Cluster.metric cluster 0 "reconfig_add")

let test_removed_main_does_not_lead () =
  let cluster = cheap_cluster ~seed:24 ~f:1 () in
  let _, client =
    Cluster.add_client cluster ~think:1e-3
      ~ops:(fun seq -> if seq <= 1000 then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster [ (0.1, Faults.Crash 1) ];
  Alcotest.(check bool) "removed" true
    (wait_config cluster ~deadline:1.0 (fun cfg -> not (Config.is_main cfg 1)));
  (* Restart it; before it can rejoin it must not campaign. *)
  Cluster.restart cluster 1;
  Cluster.run ~until:(Cluster.now cluster +. 0.05) cluster;
  Alcotest.(check bool) "node 1 not leader right after restart" false
    (Replica.is_leader (Cluster.replica cluster 1));
  Alcotest.(check bool) "node 0 still leader" true
    (Replica.is_leader (Cluster.replica cluster 0));
  ignore client

(* --- auxiliaries ---------------------------------------------------------- *)

let test_aux_strictly_reactive () =
  let cluster = cheap_cluster ~seed:25 ~f:2 () in
  let _, client =
    Cluster.add_client cluster
      ~ops:(fun seq -> if seq <= 300 then Some (Counter.inc 1) else None)
      ()
  in
  Alcotest.(check bool) "finished" true (finish cluster client);
  List.iter
    (fun aux ->
      Alcotest.(check int) "aux sent nothing" 0 (Cluster.metric cluster aux "msgs_sent");
      Alcotest.(check int) "aux received nothing" 0 (Cluster.metric cluster aux "msgs_recv");
      Alcotest.(check int) "aux holds no votes" 0
        (Replica.acceptor_vote_count (Cluster.replica cluster aux)))
    (Cluster.auxes cluster)

let test_aux_compacts_after_engagement () =
  let cluster = cheap_cluster ~seed:26 ~f:1 () in
  let _, client =
    Cluster.add_client cluster ~think:1e-3
      ~ops:(fun seq -> if seq <= 1500 then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster [ (0.1, Faults.Crash 1) ];
  Alcotest.(check bool) "finished" true (finish ~deadline:15. cluster client);
  let aux = List.hd (Cluster.auxes cluster) in
  let r = Cluster.replica cluster aux in
  Alcotest.(check bool) "aux was engaged" true
    (Cluster.metric cluster aux "msgs_recv" > 0);
  Alcotest.(check bool) "aux compacted its votes" true (Replica.acceptor_floor r > 0);
  Alcotest.(check bool) "aux vote window small" true
    (Replica.acceptor_vote_count r <= Cp_engine.Params.default.Cp_engine.Params.alpha)

(* --- policies --------------------------------------------------------------- *)

let test_classic_never_reconfigures () =
  let cluster = classic_cluster ~seed:27 ~n:3 () in
  let _, client =
    Cluster.add_client cluster ~think:1e-3
      ~ops:(fun seq -> if seq <= 800 then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster [ (0.1, Faults.Crash 1) ];
  Alcotest.(check bool) "finished" true (finish ~deadline:15. cluster client);
  List.iter
    (fun id ->
      if Engine.is_up (Cluster.engine cluster) id then
        Alcotest.(check int)
          (Printf.sprintf "node %d timeline static" id)
          1
          (List.length (Replica.config_timeline (Cluster.replica cluster id))))
    (Cluster.mains cluster)

(* --- determinism -------------------------------------------------------------- *)

let test_cluster_determinism () =
  let run () =
    let cluster = cheap_cluster ~seed:77 ~net:Cp_sim.Netmodel.lossy ~f:1 () in
    let _, client =
      Cluster.add_client cluster
        ~ops:(fun seq -> if seq <= 100 then Some (Counter.inc 1) else None)
        ()
    in
    ignore (finish ~deadline:20. cluster client);
    ( Client.done_count client,
      List.map
        (fun id -> Cluster.metric cluster id "msgs_sent")
        (Cluster.mains cluster @ Cluster.auxes cluster),
      Cluster.now cluster )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical runs" true (a = b)

(* --- commit latency sanity ------------------------------------------------------ *)

let test_latency_is_two_rtt_ish () =
  (* With the ideal network (1 ms each way), a commit needs client->leader,
     p2a, p2b, reply = 4 hops; latencies should sit near 4 ms. *)
  let cluster =
    Cluster.create ~seed:3 ~net:Cp_sim.Netmodel.ideal
      ~params:(Cp_engine.Params.scale 10. Cp_engine.Params.default)
      ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Counter) ()
  in
  let _, client =
    Cluster.add_client cluster
      ~ops:(fun seq -> if seq <= 50 then Some (Counter.inc 1) else None)
      ()
  in
  Alcotest.(check bool) "finished" true (finish ~deadline:20. cluster client);
  let lats = Cluster.series cluster 1000 "latency" in
  let mean = List.fold_left ( +. ) 0. lats /. float_of_int (List.length lats) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f in [0.0035, 0.006]" mean)
    true
    (mean >= 0.0035 && mean <= 0.006)

(* --- snapshot bytes ---------------------------------------------------------- *)

(* A memory store whose [on_put] sees every write before it lands. *)
module Hooked = struct
  module Storage = Cp_storage.Storage

  type t = { inner : Storage.t; on_put : string -> string -> unit }

  let backend t = Storage.backend t.inner

  let put t k v =
    t.on_put k v;
    Storage.put t.inner k v

  let get t k = Storage.get t.inner k

  let remove t k = Storage.remove t.inner k

  let mem t k = Storage.mem t.inner k

  let keys t = Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let flush t = Storage.flush t.inner

  let wipe t = Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

(* A main builds its snapshot's stable bytes from the reply bytes its
   sessions keep, not from a decoded [Types.snapshot]. Every snapshot a
   machine persists must still decode, re-encode to the same bytes, and
   carry the sessions the machine holds when it has executed exactly the
   snapshot's prefix (the sessions at a prefix are a function of the log,
   so this also holds when the live incarnation is the one a restart is
   replacing). The run covers evictions (window 4, a closed-loop client
   from seq 1), a pipelined open-loop client over a jittery network, a
   catch-up by snapshot (main 1 partitioned while the leader compacts) and
   a restart from storage (main 0 crashed and restarted with its disk). *)
let test_snapshot_bytes_identity () =
  let policy =
    { Cheap_paxos.Cheap.policy with Cp_engine.Policy.name = "cheap-noreconf"; reconfigure = false }
  in
  let params = { Cp_engine.Params.default with snapshot_every = 10; session_window = 4 } in
  let cluster = ref None in
  let payloads = ref 0 and compared = ref 0 and evicted = ref false in
  let check id bytes =
    incr payloads;
    match Cp_proto.Codec.decode_stable_snapshot bytes with
    | Error e -> Alcotest.fail ("snapshot payload does not decode: " ^ e)
    | Ok snap ->
      Alcotest.(check bool) "payload re-encodes to the same bytes" true
        (String.equal bytes (Cp_proto.Codec.encode_stable_snapshot snap));
      let sessions =
        List.map
          (fun (c, (floor, replies)) ->
            if floor > 0 then evicted := true;
            (c, { Cp_engine.Session.floor; replies }))
          snap.sessions
        |> List.sort compare
      in
      Option.iter
        (fun cluster ->
          let r = Cluster.replica cluster id in
          if Replica.executed r = snap.next_instance then begin
            incr compared;
            Alcotest.(check bool)
              (Printf.sprintf "machine %d snapshot at %d holds the live sessions" id
                 snap.next_instance)
              true
              (sessions = Replica.sessions r)
          end)
        !cluster
  in
  let storage id =
    Cp_storage.Storage.Packed
      ( (module Hooked),
        { Hooked.inner = Cp_storage.Mem.store ();
          on_put = (fun k v -> if k = "snapshot" then check id v) } )
  in
  let c =
    Cluster.create ~seed:17 ~net:Cp_sim.Netmodel.lossy ~params ~storage ~policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Counter) ()
  in
  cluster := Some c;
  let n = 2000 in
  let _, closed =
    Cluster.add_client c ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None) ()
  in
  let _, pipelined =
    Cluster.add_open_client c ~rate:4000. ~max_outstanding:16
      ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule c
    [
      (0.05, Faults.Partition [ [ 1 ]; [ 0; 2; 1000; 1001 ] ]);
      (0.25, Faults.Heal);
      (0.4, Faults.Crash 0);
      (0.6, Faults.Restart 0);
    ];
  Cluster.run ~until:0.7 c;
  Alcotest.(check bool) "clients finished" true
    (Cluster.run_until c ~deadline:60. (fun () ->
         Client.is_finished closed && Cp_smr.Open_client.is_finished pipelined));
  Alcotest.(check bool) "main 1 caught up by snapshot" true
    (Cluster.metric c 1 "snapshot_installs" > 0);
  Alcotest.(check bool) "main 0 recovered past a snapshot" true
    (Replica.log_base (Cluster.replica c 0) > 0);
  Alcotest.(check bool) "sessions evicted" true !evicted;
  Alcotest.(check bool)
    (Printf.sprintf "snapshots compared against live sessions (%d of %d)" !compared !payloads)
    true
    (!compared > 10);
  assert_safe c

(* A pipelined client keeps its sends on the leader: a retry of one of 16
   operations in flight must not push the contact off a leader that is
   answering the others, or that a redirect has just named. Main 1 is cut
   off for 0.2 s. Arrivals end at about 0.5 s; a client that moves its
   contact on every retry resolves its last operations only after 1.8 s,
   and sheds most arrivals behind slow ones. *)
let test_open_client_stays_on_leader () =
  let cluster = cheap_cluster ~seed:17 ~net:Cp_sim.Netmodel.lossy () in
  let n = 2000 in
  let id, client =
    Cluster.add_open_client cluster ~rate:4000. ~max_outstanding:16
      ~ops:(fun seq -> if seq <= n then Some (Counter.inc 1) else None)
      ()
  in
  Faults.schedule cluster
    [ (0.05, Faults.Partition [ [ 1 ]; [ 0; 2; id ] ]); (0.25, Faults.Heal) ];
  Alcotest.(check bool) "every operation answered or shed by 1 s" true
    (Cluster.run_until cluster ~deadline:1. (fun () -> Cp_smr.Open_client.is_finished client));
  let answered = Cp_smr.Open_client.done_count client in
  Alcotest.(check int) "answered + shed = generated" n
    (answered + Cluster.metric cluster id "shed");
  Alcotest.(check bool)
    (Printf.sprintf "more than a quarter answered (%d of %d)" answered n)
    true (answered > n / 4);
  assert_safe cluster

let suite =
  [
    Alcotest.test_case "initial leader is min main" `Quick test_initial_leader_is_min_main;
    Alcotest.test_case "leader crash triggers election" `Quick
      test_leader_crash_triggers_election;
    Alcotest.test_case "ballots increase across elections" `Quick
      test_ballots_increase_across_elections;
    Alcotest.test_case "follower redirects" `Quick test_follower_redirects;
    Alcotest.test_case "dedup under loss" `Quick test_dedup_under_loss;
    Alcotest.test_case "partitioned follower catches up" `Quick
      test_partitioned_follower_catches_up;
    Alcotest.test_case "candidate catches up past compaction" `Quick
      test_candidate_catches_up_past_compaction;
    Alcotest.test_case "crash recovery with disk" `Quick test_crash_recovery_with_disk;
    Alcotest.test_case "removed main rejoins" `Quick test_removed_main_rejoins;
    Alcotest.test_case "wiped spare replaces dead main" `Quick
      test_wiped_spare_replaces_dead_main;
    Alcotest.test_case "spare stands by when healthy" `Quick
      test_spare_stands_by_when_healthy;
    Alcotest.test_case "removed main does not lead" `Quick test_removed_main_does_not_lead;
    Alcotest.test_case "aux strictly reactive" `Quick test_aux_strictly_reactive;
    Alcotest.test_case "aux compacts after engagement" `Quick
      test_aux_compacts_after_engagement;
    Alcotest.test_case "classic never reconfigures" `Quick test_classic_never_reconfigures;
    Alcotest.test_case "cluster determinism" `Quick test_cluster_determinism;
    Alcotest.test_case "latency sanity" `Quick test_latency_is_two_rtt_ish;
    Alcotest.test_case "snapshot bytes: decode, re-encode, live sessions" `Quick
      test_snapshot_bytes_identity;
    Alcotest.test_case "open client stays on the leader" `Quick test_open_client_stays_on_leader;
  ]
