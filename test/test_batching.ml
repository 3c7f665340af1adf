(* Batching tests: multiple client commands per log instance, with
   unchanged client-visible semantics. *)

module Cluster = Cp_runtime.Cluster
module Inspect = Cp_runtime.Inspect
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client
module Counter = Cp_smr.Counter
module Types = Cp_proto.Types

let batch_params n =
  {
    Cp_engine.Params.default with
    batch_max_cmds = n;
    pipeline_window =
      (if n > 1 then 2 else Cp_engine.Params.default.Cp_engine.Params.pipeline_window);
  }

let cluster_with ~batch ~seed =
  Cluster.create ~seed ~params:(batch_params batch) ~policy:Cheap_paxos.Cheap.policy
    ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
    ~app:(module Counter) ()

let run_clients cluster ~clients ~per_client =
  let handles =
    List.init clients (fun _ ->
        snd
          (Cluster.add_client cluster
             ~ops:(fun s -> if s <= per_client then Some (Counter.inc 1) else None)
             ()))
  in
  let ok =
    Cluster.run_until cluster ~deadline:20. (fun () ->
        List.for_all Client.is_finished handles)
  in
  (ok, handles)

let final_counter cluster =
  let _, probe =
    Cluster.add_client cluster ~ops:(fun s -> if s = 1 then Some Counter.get else None) ()
  in
  let ok =
    Cluster.run_until cluster ~deadline:30. (fun () -> Client.is_finished probe)
  in
  Alcotest.(check bool) "probe finished" true ok;
  match Client.history probe with
  | [ (_, _, _, v) ] -> int_of_string v
  | _ -> Alcotest.fail "probe history"

let test_batching_correct () =
  let cluster = cluster_with ~batch:8 ~seed:61 in
  let clients = 6 and per_client = 80 in
  let ok, _ = run_clients cluster ~clients ~per_client in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "exact count" (clients * per_client) (final_counter cluster);
  (match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e);
  (* Fewer instances than commands: batching actually happened. *)
  let instances = Replica.prefix (Cluster.replica cluster 0) in
  Alcotest.(check bool)
    (Printf.sprintf "batched (%d instances for %d cmds)" instances (clients * per_client))
    true
    (instances < (clients * per_client * 3 / 4))

let test_batch_vs_unbatched_same_semantics () =
  let run batch =
    let cluster = cluster_with ~batch ~seed:62 in
    let ok, _ = run_clients cluster ~clients:4 ~per_client:50 in
    Alcotest.(check bool) "finished" true ok;
    final_counter cluster
  in
  Alcotest.(check int) "same final state" (run 1) (run 16)

let test_batch_entries_in_log () =
  let cluster = cluster_with ~batch:8 ~seed:63 in
  let ok, _ = run_clients cluster ~clients:8 ~per_client:40 in
  Alcotest.(check bool) "finished" true ok;
  let r = Cluster.replica cluster 0 in
  let has_batch =
    List.exists
      (fun (_, e) -> match e with Types.Batch _ -> true | _ -> false)
      (Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int)
  in
  Alcotest.(check bool) "log contains batch entries" true has_batch

let test_batching_with_crash () =
  let cluster = cluster_with ~batch:8 ~seed:64 in
  Cp_runtime.Faults.schedule cluster [ (0.05, Cp_runtime.Faults.Crash 1) ];
  let ok, _ = run_clients cluster ~clients:4 ~per_client:60 in
  Alcotest.(check bool) "finished despite crash" true ok;
  Alcotest.(check int) "exact count" 240 (final_counter cluster);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_batching_under_loss_dedup () =
  (* Retransmitted client commands must not be double-counted inside or
     across batches. *)
  let net = { Cp_sim.Netmodel.lan with drop_prob = 0.1 } in
  let cluster =
    Cluster.create ~seed:65 ~net ~params:(batch_params 8)
      ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Counter) ()
  in
  let ok, _ = run_clients cluster ~clients:3 ~per_client:40 in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "exactly once" 120 (final_counter cluster);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_backpressure_bounded_queue () =
  (* A tiny queue limit: the leader sheds load instead of queueing without
     bound, and client retransmission still gets every command through
     exactly once. *)
  let params =
    {
      Cp_engine.Params.default with
      batch_max_cmds = 4;
      pipeline_window = 1;
      queue_limit = 8;
    }
  in
  let cluster =
    Cluster.create ~seed:66 ~params ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Counter) ()
  in
  let ok, _ = run_clients cluster ~clients:30 ~per_client:20 in
  Alcotest.(check bool) "finished" true ok;
  Alcotest.(check int) "exactly once" 600 (final_counter cluster);
  let drops =
    Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "backpressure_drops"
  in
  Alcotest.(check bool) (Printf.sprintf "shed load (%d drops)" drops) true (drops > 0);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_per_command_spans_in_batches () =
  (* Every command in a batch gets its own latency span: one
     submit→executed sample per command, not one per instance. *)
  let cluster = cluster_with ~batch:8 ~seed:67 in
  let clients = 6 and per_client = 50 in
  let ok, _ = run_clients cluster ~clients ~per_client in
  Alcotest.(check bool) "finished" true ok;
  let spans =
    List.concat_map
      (fun id -> Cluster.series cluster id Cp_obs.Span.submit_to_executed)
      (Cluster.mains cluster)
  in
  Alcotest.(check int) "one span per command" (clients * per_client) (List.length spans);
  let batch_sizes = Cluster.series cluster 0 "batch_size" in
  Alcotest.(check bool) "batches actually formed" true
    (List.exists (fun s -> s > 1.5) batch_sizes)

let test_batch_byte_cap () =
  (* Large commands: the byte budget, not the command count, bounds each
     batch. 8 concurrent writers of ~123-byte commands against a 256-byte
     budget can never pack more than 3 commands into one instance. *)
  let params =
    {
      Cp_engine.Params.default with
      batch_max_cmds = 64;
      pipeline_window = 2;
      batch_max_bytes = 256;
    }
  in
  let cluster =
    Cluster.create ~seed:69 ~params ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Cp_smr.Kv) ()
  in
  let big = String.make 100 'v' in
  let handles =
    List.init 8 (fun i ->
        snd
          (Cluster.add_client cluster
             ~ops:(fun s ->
               if s <= 20 then Some (Cp_smr.Kv.put (Printf.sprintf "k%d" i) big)
               else None)
             ()))
  in
  let ok =
    Cluster.run_until cluster ~deadline:20. (fun () ->
        List.for_all Client.is_finished handles)
  in
  Alcotest.(check bool) "finished" true ok;
  let r = Cluster.replica cluster 0 in
  let worst =
    List.fold_left
      (fun acc (_, e) ->
        match e with Types.Batch cmds -> max acc (List.length cmds) | _ -> acc)
      0
      (Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int)
  in
  Alcotest.(check bool)
    (Printf.sprintf "byte cap bounds batch size (worst %d)" worst)
    true
    (worst > 1 && worst <= 3);
  match Inspect.check_safety cluster with Ok () -> () | Error e -> Alcotest.fail e

let test_linger_delays_flush () =
  (* A single closed-loop client never fills a batch, so a linger shows up
     directly as added latency: the leader holds each command open for the
     full linger before proposing it. *)
  let run linger =
    let params =
      { Cp_engine.Params.default with batch_max_cmds = 4; batch_linger = linger }
    in
    let cluster =
      Cluster.create ~seed:68 ~params ~policy:Cheap_paxos.Cheap.policy
        ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
        ~app:(module Counter) ()
    in
    let _, client =
      Cluster.add_client cluster
        ~ops:(fun s -> if s <= 10 then Some (Counter.inc 1) else None)
        ()
    in
    let ok =
      Cluster.run_until cluster ~deadline:20. (fun () -> Client.is_finished client)
    in
    Alcotest.(check bool) "finished" true ok;
    Cluster.now cluster
  in
  let fast = run 0. in
  let slow = run 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "linger holds batches open (%.3f s vs %.3f s)" fast slow)
    true
    (slow >= fast +. 0.1)

(* [Params.default], nothing overridden, at the sans-IO core: an idle leader
   proposes a lone command at once, exactly as with one command per
   instance; commands that arrive while an instance is in flight wait, and
   leave as one [Batch] when it is chosen; a full batch (here: by bytes)
   leaves at once, even beside an instance in flight. *)
let test_default_params_partial_batch_waits () =
  let module Leader = Cp_engine.Leader in
  let p = Cp_engine.Params.default in
  let client = 1000 in
  let cmd ?(op = "") seq = { Types.client; seq; op = Printf.sprintf "c%d%s" seq op } in
  let lone params =
    let t, _, _ = Test_roles.elect ~params () in
    snd (Test_roles.step t ~now:0.2 (fun t -> Leader.on_client_req t (cmd 1)))
  in
  let effs = lone p in
  Alcotest.(check bool)
    "a lone command has the effects it has with one command per instance" true
    (effs = lone Cp_harness.Scenario.per_command_params);
  Alcotest.(check bool)
    "a lone command is proposed at once as App" true
    (List.exists
       (function
         | Types.P2a { instance = 0; entry = Types.App { seq = 1; _ }; _ } -> true
         | _ -> false)
       (Test_roles.sends_to 1 effs));
  let t, ballot, _ = Test_roles.elect () in
  let p2as effs =
    List.filter_map
      (function Types.P2a { instance; entry; _ } -> Some (instance, entry) | _ -> None)
      (Test_roles.sends_to 1 effs)
  in
  let resps effs =
    List.filter_map
      (function Types.ClientResp { seq; _ } -> Some seq | _ -> None)
      (Test_roles.sends_to client effs)
  in
  let seqs cmds = List.map (fun c -> c.Types.seq) cmds in
  let t = ref t in
  let submit c =
    let t', effs = Test_roles.step !t ~now:0.2 (fun t -> Leader.on_client_req t c) in
    t := t';
    p2as effs
  in
  (match submit (cmd 1) with
  | [ (0, Types.App { seq = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "command 1 should be proposed alone at instance 0");
  for seq = 2 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "command %d waits behind instance 0" seq)
      0
      (List.length (submit (cmd seq)))
  done;
  let ack instance =
    let t', effs =
      Test_roles.step !t ~now:0.3 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance)
    in
    t := t';
    effs
  in
  let effs = ack 0 in
  Alcotest.(check (list int)) "instance 0 answers its command" [ 1 ] (resps effs);
  (match p2as effs with
  | [ (1, Types.Batch cmds) ] ->
    Alcotest.(check (list int))
      "the held commands leave together at instance 1, in order" [ 2; 3; 4; 5; 6; 7 ]
      (seqs cmds)
  | _ -> Alcotest.fail "expected one Batch proposal at instance 1 when instance 0 is chosen");
  (* Instance 1 is in flight: commands of 200 bytes wait until their bytes
     reach [batch_max_bytes], then leave at once as one full batch. *)
  let big seq = cmd ~op:(String.make 200 'x') seq in
  let rec fill seq bytes =
    let bytes = bytes + Types.command_size (big seq) in
    let sent = submit (big seq) in
    if bytes < p.batch_max_bytes then begin
      Alcotest.(check int) (Printf.sprintf "partial batch: command %d waits" seq) 0
        (List.length sent);
      fill (seq + 1) bytes
    end
    else (seq, sent)
  in
  let last, sent = fill 8 0 in
  Alcotest.(check bool) "a full batch takes more than one command" true (last > 8);
  (match sent with
  | [ (2, Types.Batch cmds) ] ->
    Alcotest.(check (list int))
      "a full batch leaves at once beside instance 1"
      (List.init (last - 7) (fun k -> 8 + k))
      (seqs cmds)
  | _ -> Alcotest.failf "command %d fills the batch: expected one Batch at instance 2" last);
  let later = List.concat_map (fun i -> resps (ack i)) [ 1; 2 ] in
  Alcotest.(check (list int))
    "one ClientResp per command, in order"
    (List.init (last - 1) (fun k -> k + 2))
    later

let suite =
  [
    Alcotest.test_case "batching correct" `Quick test_batching_correct;
    Alcotest.test_case "batched = unbatched semantics" `Quick
      test_batch_vs_unbatched_same_semantics;
    Alcotest.test_case "batch entries in log" `Quick test_batch_entries_in_log;
    Alcotest.test_case "batching with crash" `Quick test_batching_with_crash;
    Alcotest.test_case "batching under loss (dedup)" `Quick test_batching_under_loss_dedup;
    Alcotest.test_case "backpressure (bounded queue)" `Quick test_backpressure_bounded_queue;
    Alcotest.test_case "per-command spans in batches" `Quick
      test_per_command_spans_in_batches;
    Alcotest.test_case "byte cap bounds batches" `Quick test_batch_byte_cap;
    Alcotest.test_case "linger delays flush" `Quick test_linger_delays_flush;
    Alcotest.test_case "defaults: partial batch waits in flight" `Quick
      test_default_params_partial_batch_waits;
  ]
