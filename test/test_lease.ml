(* Leader read-lease tests: the fast path is used, results stay
   linearizable — including across partitions that depose the lease holder —
   and the promise gate rejects early usurpers. *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Inspect = Cp_runtime.Inspect
module Client = Cp_smr.Client
module Kv = Cp_smr.Kv
module Rng = Cp_util.Rng

let lease_params = { Cp_engine.Params.default with enable_leases = true }

let kv_cluster ?(seed = 1) ?(f = 1) () =
  Cluster.create ~seed ~params:lease_params ~policy:Cheap_paxos.Cheap.policy
    ~initial:(Cheap_paxos.Cheap.initial_config ~f)
    ~app:(module Kv) ()

let is_read op = String.length op >= 3 && String.sub op 0 3 = "GET"

let mixed_ops rng ~keys ~count ~read_ratio seq =
  if seq > count then None
  else begin
    let k = "k" ^ string_of_int (Rng.int rng keys) in
    if Rng.bool rng read_ratio then Some (Kv.get k)
    else Some (Kv.put k (string_of_int (Rng.int rng 1000)))
  end

let sum_replica_metric cluster name =
  List.fold_left (fun acc id -> acc + Cluster.metric cluster id name) 0
    (Cluster.mains cluster)

let test_lease_reads_served_locally () =
  let cluster = kv_cluster ~seed:51 () in
  let rng = Rng.create 7 in
  let _, client =
    Cluster.add_client cluster ~is_read
      ~ops:(mixed_ops rng ~keys:8 ~count:300 ~read_ratio:0.7)
      ()
  in
  let ok = Cluster.run_until cluster ~deadline:10. (fun () -> Client.is_finished client) in
  Alcotest.(check bool) "finished" true ok;
  let reads = sum_replica_metric cluster "lease_reads" in
  Alcotest.(check bool) (Printf.sprintf "lease reads used (%d)" reads) true (reads > 100);
  (* Fast-path reads consume no log instances: chosen count ≈ write count. *)
  let chosen = sum_replica_metric cluster "chosen" in
  Alcotest.(check bool)
    (Printf.sprintf "reads bypass the log (chosen=%d)" chosen)
    true
    (chosen < 150);
  (* And the results are still linearizable. *)
  (match Cp_checker.Linearizability.check_kv (Client.history client) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "history not linearizable"
  | Error e -> Alcotest.fail e);
  (* The lease lifecycle and every served read appear in the event trace. *)
  let records = Inspect.trace_dump cluster in
  let has p = List.exists (fun (r : Cp_obs.Trace.record) -> p r.Cp_obs.Trace.ev) records in
  Alcotest.(check bool) "lease acquisition traced" true
    (has (function Cp_obs.Event.Lease_acquired _ -> true | _ -> false));
  Alcotest.(check bool) "served reads traced" true
    (has (function Cp_obs.Event.Lease_read_served _ -> true | _ -> false));
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_lease_reads_linearizable_with_concurrent_writers () =
  let cluster = kv_cluster ~seed:52 () in
  let rng = Rng.create 9 in
  let clients =
    List.init 3 (fun i ->
        let rng = Rng.split rng in
        let ratio = if i = 0 then 0.9 else 0.2 in
        snd
          (Cluster.add_client cluster ~is_read ~think:5e-4
             ~ops:(mixed_ops rng ~keys:3 ~count:100 ~read_ratio:ratio)
             ()))
  in
  let ok =
    Cluster.run_until cluster ~deadline:15. (fun () ->
        List.for_all Client.is_finished clients)
  in
  Alcotest.(check bool) "finished" true ok;
  let history = List.concat_map Client.history clients in
  match Cp_checker.Linearizability.check_kv history with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "merged history not linearizable"
  | Error e -> Alcotest.fail e

let test_no_stale_reads_across_leader_partition () =
  (* The lease safety property: isolate the lease-holding leader together
     with a reader; writers continue through the new leader. The reader's
     results, merged with the writers', must stay linearizable — the old
     leader must stop serving lease reads once its lease expires. *)
  let cluster = kv_cluster ~seed:53 ~f:2 () in
  let rng = Rng.create 11 in
  (* The reader starts pinned to machine 0 (the initial lease holder); its
     contact list lets it find the new leader after the heal. *)
  let reader_id, reader =
    Cluster.add_client cluster ~contacts:[ 0; 1; 2 ] ~is_read ~think:2e-3
      ~ops:(fun seq -> if seq <= 150 then Some (Kv.get "x") else None)
      ()
  in
  let writer_id, writer =
    Cluster.add_client cluster ~contacts:[ 1; 2 ] ~think:2e-3
      ~ops:(fun seq ->
        if seq <= 150 then Some (Kv.put "x" (string_of_int (Rng.int rng 1000))) else None)
      ()
  in
  Faults.schedule cluster
    [
      (0.1, Faults.Partition [ [ 0; reader_id ]; [ 1; 2; 3; 4; writer_id ] ]);
      (0.8, Faults.Heal);
    ];
  let ok =
    Cluster.run_until cluster ~deadline:20. (fun () ->
        Client.is_finished reader && Client.is_finished writer)
  in
  Alcotest.(check bool) "both finished after heal" true ok;
  let history = Client.history reader @ Client.history writer in
  (match Cp_checker.Linearizability.check_kv history with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "stale read detected: history not linearizable"
  | Error e -> Alcotest.fail e);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_gate_and_usurper_safety () =
  (* Briefly isolate follower 1; when it comes back it campaigns with a
     higher ballot while the leader is healthy. The mains' lease gates
     refuse it promises — but in Cheap Paxos an isolated main can still win
     through the (ungated, normally-silent) auxiliaries, so leadership may
     legitimately change. The guarantee under test is that the lease
     formula keeps every read linearizable across the takeover: the old
     leader's lease requires the usurper's own fresh echoes, and those went
     stale before the usurper could campaign. *)
  let cluster = kv_cluster ~seed:54 ~f:2 () in
  let rng = Rng.create 13 in
  let _, client =
    Cluster.add_client cluster ~is_read ~think:1e-3
      ~ops:(mixed_ops rng ~keys:4 ~count:800 ~read_ratio:0.5)
      ()
  in
  Faults.schedule cluster
    [ (0.1, Faults.Partition [ [ 1 ]; [ 0; 2; 3; 4; 1000 ] ]); (0.25, Faults.Heal) ];
  let ok = Cluster.run_until cluster ~deadline:15. (fun () -> Client.is_finished client) in
  Alcotest.(check bool) "finished" true ok;
  let gated = sum_replica_metric cluster "lease_gated_p1a" in
  Alcotest.(check bool) (Printf.sprintf "usurper was gated by mains (%d)" gated) true
    (gated > 0);
  Alcotest.(check bool) "a leader exists" true (Cluster.leader cluster <> None);
  (match Cp_checker.Linearizability.check_kv (Client.history client) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "takeover produced a non-linearizable history"
  | Error e -> Alcotest.fail e);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_lease_collapses_when_main_down () =
  (* With a main crashed, the all-mains lease cannot hold (until the
     reconfiguration removes the dead main); reads fall back to the log. *)
  let cluster = kv_cluster ~seed:55 () in
  let rng = Rng.create 15 in
  let _, client =
    Cluster.add_client cluster ~is_read ~think:1e-3
      ~ops:(mixed_ops rng ~keys:4 ~count:600 ~read_ratio:0.7)
      ()
  in
  Faults.schedule cluster [ (0.15, Faults.Crash 1) ];
  let ok = Cluster.run_until cluster ~deadline:15. (fun () -> Client.is_finished client) in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check bool) "some reads fell back" true
    (sum_replica_metric cluster "lease_read_fallbacks" > 0);
  (* After removal of the dead main, the lease is over the surviving main
     alone and reads are local again. *)
  Alcotest.(check bool) "lease reads resumed" true
    (sum_replica_metric cluster "lease_reads" > 0);
  (match Cp_checker.Linearizability.check_kv (Client.history client) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "history not linearizable"
  | Error e -> Alcotest.fail e);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_mutating_op_on_read_path_is_ordered () =
  (* A client that (wrongly) classifies everything as a read: PUTs arrive on
     the read path, the leader must refuse to apply them off-log (metric
     [lease_rejects]) and route them through consensus exactly once. *)
  let cluster = kv_cluster ~seed:57 () in
  let rng = Rng.create 17 in
  let _, client =
    Cluster.add_client cluster
      ~is_read:(fun _ -> true)
      ~ops:(mixed_ops rng ~keys:4 ~count:200 ~read_ratio:0.5)
      ()
  in
  let ok = Cluster.run_until cluster ~deadline:10. (fun () -> Client.is_finished client) in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check bool) "mutating ops bounced off the read path" true
    (sum_replica_metric cluster "lease_rejects" > 0);
  (match Cp_checker.Linearizability.check_kv (Client.history client) with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "misclassified writes broke linearizability"
  | Error e -> Alcotest.fail e);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

(* The stock closed-loop client never overlaps its own ops, so drive the
   wire directly: PUT seq 1 [put_at] after the lease is established, then
   the GET seq 2 two-tenths of a millisecond later — well inside the PUT's
   commit round trip on the ideal (1 ms) network. The GET must be deferred
   behind the PUT and observe it. Returns each reply with its arrival time,
   by seq. *)
let put_then_overlapping_get ~put_at =
  let cluster =
    Cluster.create ~seed:58 ~net:Cp_sim.Netmodel.ideal ~params:lease_params
      ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Kv) ()
  in
  Alcotest.(check bool) "leader elected" true
    (Cluster.run_until cluster ~deadline:5. (fun () -> Cluster.leader cluster <> None));
  (* Let heartbeats establish the lease before probing. *)
  Cluster.run ~until:(Cluster.now cluster +. 0.2) cluster;
  let leader = Option.get (Cluster.leader cluster) in
  let responses = ref [] in
  Cp_sim.Engine.add_node (Cluster.engine cluster) ~id:2000 (fun ctx ->
      ignore (ctx.Cp_sim.Engine.set_timer ~tag:"put" put_at);
      ignore (ctx.Cp_sim.Engine.set_timer ~tag:"get" (put_at +. 0.2e-3));
      {
        Cp_sim.Engine.on_message =
          (fun ~src:_ msg ->
            match msg with
            | Cp_proto.Types.ClientResp { seq; result; _ } ->
              responses := (seq, (result, ctx.Cp_sim.Engine.now ())) :: !responses
            | _ -> ());
        on_timer =
          (fun ~tid:_ ~tag ->
            let msg =
              if tag = "put" then
                Cp_proto.Types.ClientReq { client = 2000; seq = 1; op = Kv.put "rx" "after" }
              else
                Cp_proto.Types.ClientRead { client = 2000; seq = 2; op = Kv.get "rx" }
            in
            ctx.Cp_sim.Engine.send leader msg);
      });
  let ok =
    Cluster.run_until cluster ~step:1e-3 ~deadline:(Cluster.now cluster +. 2.) (fun () ->
        List.length !responses >= 2)
  in
  Alcotest.(check bool) "both responses arrived" true ok;
  Alcotest.(check bool) "the read was deferred behind the write" true
    (sum_replica_metric cluster "lease_reads_deferred" > 0);
  Alcotest.(check string) "read observed the client's own write" "after"
    (fst (List.assoc 2 !responses));
  (match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e);
  !responses

let test_read_your_writes_deferred () =
  (* A read that could observe the same client's in-flight write must wait
     for the write's apply point. *)
  ignore (put_then_overlapping_get ~put_at:1e-3)

let test_deferred_read_answered_with_its_write () =
  (* The same overlap, timed: the deferred GET is served in the step that
     executes the PUT it waits on, so both replies leave together and
     arrive at the same virtual time — not up to a tick later, when the
     leader's tick would next look at its deferred reads. The PUT leaves
     half a millisecond off the 1 ms grid on which the ideal network and
     the leader's tick run, so the write executes between two ticks. *)
  let responses = put_then_overlapping_get ~put_at:1.5e-3 in
  let put_at = snd (List.assoc 1 responses) and get_at = snd (List.assoc 2 responses) in
  Alcotest.(check (float 1e-9)) "read answered at the write's apply point" put_at get_at;
  Alcotest.(check bool) "strictly less than one tick after the write" true
    (get_at -. put_at < lease_params.Cp_engine.Params.tick)

(* A raw client that pipelines its own operations, as the UDP bench
   generator does and the stock clients never do: [window] operations in
   flight with consecutive seqs, a GET with probability [read_ratio] (sent
   as [ClientRead]) and otherwise a PUT of a fresh value (as [ClientReq]),
   over [keys] keys. Each completion issues the next operation [think]
   later; an unanswered operation is resent after [timeout], to the next
   main if the current one has been silent that long, and a redirect moves
   every later send to the named leader.
   Returns the history [Cp_checker.Linearizability.check_kv] reads and a
   predicate for "every operation answered". *)
let add_pipelined_client cluster ~id ~mains ~window ~count ~read_ratio ~keys ~think ~timeout =
  let history = ref [] in
  let outstanding = Hashtbl.create 32 in
  let next = ref 1 in
  let hint = ref 0 in
  let mains = Array.of_list mains in
  let heard = Array.make (Array.length mains) neg_infinity in
  Cp_sim.Engine.add_node (Cluster.engine cluster) ~id (fun ctx ->
      let now () = ctx.Cp_sim.Engine.now () in
      let send seq op =
        let msg =
          if is_read op then Cp_proto.Types.ClientRead { client = id; seq; op }
          else Cp_proto.Types.ClientReq { client = id; seq; op }
        in
        ctx.Cp_sim.Engine.send mains.(!hint) msg;
        ignore (ctx.Cp_sim.Engine.set_timer ~tag:("retry." ^ string_of_int seq) timeout)
      in
      let issue () =
        if !next <= count then begin
          let seq = !next in
          incr next;
          let k = "k" ^ string_of_int (Rng.int ctx.Cp_sim.Engine.rng keys) in
          let op =
            if Rng.bool ctx.Cp_sim.Engine.rng read_ratio then Kv.get k
            else Kv.put k (string_of_int seq)
          in
          Hashtbl.replace outstanding seq (op, now ());
          send seq op
        end
      in
      for _ = 1 to window do
        issue ()
      done;
      {
        Cp_sim.Engine.on_message =
          (fun ~src msg ->
            Array.iteri (fun i m -> if m = src then heard.(i) <- now ()) mains;
            match msg with
            | Cp_proto.Types.ClientResp { seq; result; _ } -> (
              match Hashtbl.find_opt outstanding seq with
              | Some (op, invoked) ->
                Hashtbl.remove outstanding seq;
                history := (invoked, now (), op, result) :: !history;
                ignore (ctx.Cp_sim.Engine.set_timer ~tag:"issue" think)
              | None -> () (* a duplicate *))
            | Cp_proto.Types.Redirect { leader_hint } ->
              Array.iteri (fun i m -> if m = leader_hint then hint := i) mains
            | _ -> ());
        on_timer =
          (fun ~tid:_ ~tag ->
            if tag = "issue" then issue ()
            else
              match String.split_on_char '.' tag with
              | [ "retry"; seq ] -> (
                let seq = int_of_string seq in
                match Hashtbl.find_opt outstanding seq with
                | Some (op, _) ->
                  if now () -. heard.(!hint) > timeout then
                    hint := (!hint + 1) mod Array.length mains;
                  send seq op
                | None -> ())
              | _ -> ());
      });
  (history, fun () -> !next > count && Hashtbl.length outstanding = 0)

let test_pipelined_reads_behind_own_writes_safe () =
  (* One client keeps 16 operations in flight, 80% GETs behind its own PUTs
     over 4 keys, on a lossy network; the leaseholder is cut off from the
     rest mid-run and the partition heals later. Reads parked behind the
     client's writes are served when those writes execute, so this is the
     path to check: the history stays linearizable and no node serves a
     stale read. *)
  let cluster =
    Cluster.create ~seed:59 ~net:Cp_sim.Netmodel.lossy ~params:lease_params
      ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:2)
      ~app:(module Kv) ()
  in
  Alcotest.(check bool) "leader elected" true
    (Cluster.run_until cluster ~deadline:5. (fun () -> Cluster.leader cluster <> None));
  Cluster.run ~until:(Cluster.now cluster +. 0.1) cluster;
  let holder = Option.get (Cluster.leader cluster) in
  let client = 3000 in
  let history, finished =
    add_pipelined_client cluster ~id:client ~mains:(Cluster.mains cluster) ~window:16
      ~count:2000 ~read_ratio:0.8 ~keys:4 ~think:2e-3 ~timeout:10e-3
  in
  let start = Cluster.now cluster in
  let others = List.filter (fun id -> id <> holder) (Cluster.mains cluster @ Cluster.auxes cluster) in
  Faults.schedule cluster
    [
      (start +. 0.1, Faults.Partition [ [ holder ]; client :: others ]);
      (start +. 0.3, Faults.Heal);
    ];
  let ok = Cluster.run_until cluster ~deadline:(start +. 20.) finished in
  Alcotest.(check bool) "every operation answered" true ok;
  let deferred = sum_replica_metric cluster "lease_reads_deferred" in
  Alcotest.(check bool) (Printf.sprintf "reads were deferred behind writes (%d)" deferred) true
    (deferred > 0);
  (match Cp_checker.Linearizability.check_kv !history with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "pipelined history not linearizable"
  | Error e -> Alcotest.fail e);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "lease reads served locally" `Quick test_lease_reads_served_locally;
    Alcotest.test_case "linearizable with concurrent writers" `Quick
      test_lease_reads_linearizable_with_concurrent_writers;
    Alcotest.test_case "no stale reads across leader partition" `Quick
      test_no_stale_reads_across_leader_partition;
    Alcotest.test_case "gate and usurper safety" `Quick test_gate_and_usurper_safety;
    Alcotest.test_case "lease collapses when a main is down" `Quick
      test_lease_collapses_when_main_down;
    Alcotest.test_case "mutating op on the read path is ordered" `Quick
      test_mutating_op_on_read_path_is_ordered;
    Alcotest.test_case "read-your-writes: overlapping read is deferred" `Quick
      test_read_your_writes_deferred;
    Alcotest.test_case "deferred read is answered with its write" `Quick
      test_deferred_read_answered_with_its_write;
    Alcotest.test_case "pipelined reads behind own writes stay safe" `Quick
      test_pipelined_reads_behind_own_writes_safe;
  ]
