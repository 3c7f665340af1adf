(* Command-line entry point: run the evaluation, single experiments, or a
   traced demo cluster. *)

open Cmdliner
module Experiments = Cp_harness.Experiments
module Outcome = Cp_harness.Outcome

(* Every file the CLI writes goes through here: an unwritable path is a
   usage error (exit 2 with a one-line message), not an uncaught
   [Sys_error]. *)
let write_file path contents =
  match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents) with
  | () -> ()
  | exception Sys_error e ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix e then
        String.sub e (String.length prefix) (String.length e - String.length prefix)
      else e
    in
    Printf.eprintf "error: cannot write %s: %s\n" path reason;
    exit 2

let run_experiments quick only csv_dir =
  let exps =
    match only with
    | [] -> Experiments.all
    | ids ->
      List.filter
        (fun e -> List.mem (String.lowercase_ascii e.Experiments.eid) ids)
        Experiments.all
  in
  if exps = [] then begin
    Printf.eprintf "no experiment matches; known: %s\n"
      (String.concat ", " (List.map (fun e -> e.Experiments.eid) Experiments.all));
    exit 2
  end;
  match Experiments.run ?csv_dir ~quick exps with
  | outcomes -> if Outcome.all_pass outcomes then 0 else 1
  | exception Sys_error e ->
    Printf.eprintf "error: cannot write %s\n" e;
    2

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sweeps for a fast run.")

let only_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "only" ] ~docv:"ID" ~doc:"Run only the given experiment (repeatable), e.g. e3.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every table as CSV into $(docv).")

let experiments_cmd =
  let doc = "Run the evaluation suite (all tables; see DESIGN.md section 7)." in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const (fun quick only csv ->
          Stdlib.exit (run_experiments quick (List.map String.lowercase_ascii only) csv))
      $ quick_flag $ only_arg $ csv_arg)

(* --storage spec: "mem" (default) or "wal:DIR" — a durable group-commit
   write-ahead log rooted at DIR, one subdirectory per machine (demo) or
   per hosted group (node). *)
let storage_conv =
  let parse s =
    if s = "mem" then Ok `Mem
    else if String.length s > 4 && String.sub s 0 4 = "wal:" then
      Ok (`Wal (String.sub s 4 (String.length s - 4)))
    else Error (`Msg (Printf.sprintf "bad storage spec %S (expected mem or wal:DIR)" s))
  in
  let print ppf = function
    | `Mem -> Format.pp_print_string ppf "mem"
    | `Wal d -> Format.fprintf ppf "wal:%s" d
  in
  Arg.conv (parse, print)

let storage_arg ~unit_ =
  Arg.(
    value
    & opt storage_conv `Mem
    & info [ "storage" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Stable-storage backend: $(b,mem) (default, lost on exit) or \
              $(b,wal:DIR) — a group-commit segmented write-ahead log rooted at \
              $(i,DIR) (one subdirectory per %s), replayed on restart."
             unit_))

(* Per-machine WAL factory for the simulated runtimes, or None for the
   in-memory default. *)
let sim_storage_factory = function
  | `Mem -> None
  | `Wal dir ->
    Some (fun id -> Cp_storage.Wal.store (Filename.concat dir (Printf.sprintf "n%d" id)))

(* One summary line so a demo run over a WAL shows the durable cost. *)
let print_storage_summary spec engine ids =
  match spec with
  | `Mem -> ()
  | `Wal dir ->
    let stats = List.map (fun id -> Cp_storage.Storage.stats (Cp_sim.Engine.stable engine id)) ids in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    Printf.printf
      "storage: wal at %s — fsyncs=%d appended=%d bytes live=%d bytes segments=%d\n" dir
      (sum (fun s -> s.Cp_storage.Storage.fsyncs))
      (sum (fun s -> s.Cp_storage.Storage.bytes_appended))
      (sum (fun s -> s.Cp_storage.Storage.bytes_used))
      (sum (fun s -> s.Cp_storage.Storage.segments))

(* Multi-group variant of the demo: one machine set hosting [groups]
   key-sharded Cheap Paxos groups behind a {!Cp_fleet.Group_mux}, clients
   routed per-command by key. Prints the per-group leaders, shard spread,
   and the per-group frame counts on the shared auxiliary. *)
let run_fleet_demo seed trace trace_jsonl trace_chrome params ?conflict_keys ~storage
    read_ratio groups =
  let module Fleet = Cp_fleet.Fleet in
  let module Engine = Cp_sim.Engine in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let fleet =
    Fleet.create ~seed ~params ~groups ?conflict_keys
      ?storage:(sim_storage_factory storage) ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Kv) ()
  in
  if trace then
    Engine.on_event (Fleet.engine fleet) (fun r ->
        Format.printf "%a@." Cp_obs.Trace.pp_record r);
  let handles =
    List.init 4 (fun i ->
        let rng = Cp_util.Rng.create (seed + (31 * i)) in
        let ops = Cp_workload.Workload.kv_ops ~rng ~keys:64 ~read_ratio ~count:60 () in
        Fleet.add_client fleet ~think:1e-3 ~is_read:Cp_smr.Kv.read_only ~ops ())
  in
  let finished =
    Fleet.run_until fleet ~deadline:10. (fun () ->
        List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles)
  in
  let done_count =
    List.fold_left (fun acc (_, c) -> acc + Cp_smr.Client.done_count c) 0 handles
  in
  Printf.printf "\nfinished=%b ops=%d groups=%d\n" finished done_count groups;
  List.iter
    (fun gid ->
      let leader =
        match Fleet.leader fleet ~gid with Some l -> string_of_int l | None -> "none"
      in
      let chosen = Fleet.sum_group_metric fleet ~ids:(Fleet.mains fleet) ~gid "chosen" in
      let lease_reads =
        Fleet.sum_group_metric fleet ~ids:(Fleet.mains fleet) ~gid "lease_reads"
      in
      Printf.printf "group %d: leader=%s chosen=%d lease_reads=%d\n" gid leader chosen
        lease_reads)
    (List.init groups Fun.id);
  List.iter
    (fun (aux, gid, n) -> Printf.printf "aux %d group %d: frames received=%d\n" aux gid n)
    (Fleet.aux_group_recv fleet);
  let dump path render what =
    let records = Cp_obs.Trace.merge (Engine.traces (Fleet.engine fleet)) in
    write_file path (render records);
    Printf.printf "wrote %s trace for %d records to %s\n" what (List.length records) path
  in
  Option.iter (fun p -> dump p Cp_obs.Trace.to_jsonl "jsonl") trace_jsonl;
  Option.iter (fun p -> dump p Cp_obs.Timeline.to_chrome "Chrome") trace_chrome;
  print_storage_summary storage (Fleet.engine fleet) (Fleet.mains fleet @ Fleet.auxes fleet);
  if finished then 0 else 1

let run_demo seed trace trace_jsonl trace_chrome batch pipeline linger read_ratio lease
    gap_threshold groups domains exec_par storage =
  let module Cluster = Cp_runtime.Cluster in
  let module Faults = Cp_runtime.Faults in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let params =
    {
      Cp_engine.Params.default with
      Cp_engine.Params.batch_max_cmds = batch;
      pipeline_window = pipeline;
      batch_linger = linger;
      enable_leases = lease;
      gap_threshold;
      exec_domains = (if exec_par then max domains 1 else 1);
    }
  in
  (* With --exec-par the mains execute through the conflict-aware parallel
     applier using the KV app's real key declarations. *)
  let conflict_keys = if exec_par then Some Cp_smr.Kv.conflict_keys else None in
  if groups > 1 then
    run_fleet_demo seed trace trace_jsonl trace_chrome params ?conflict_keys ~storage
      read_ratio groups
  else
  let cluster =
    Cluster.create ~seed ~params ?conflict_keys ?storage:(sim_storage_factory storage)
      ~policy:Cheap_paxos.Cheap.policy ~initial ~app:(module Cp_smr.Kv) ()
  in
  if trace then
    Cp_sim.Engine.on_event (Cluster.engine cluster) (fun r ->
        Format.printf "%a@." Cp_obs.Trace.pp_record r);
  let rng = Cp_util.Rng.create seed in
  let ops = Cp_workload.Workload.kv_ops ~rng ~keys:8 ~read_ratio ~count:60 () in
  (* A little think time stretches the run past the fault window, so the
     trace actually shows the failover story (engage → remove → quiesce). *)
  let _, client =
    Cluster.add_client cluster ~think:2e-3 ~is_read:Cp_smr.Kv.read_only ~ops ()
  in
  Faults.schedule cluster [ (0.02, Faults.Crash 1); (0.2, Faults.Restart 1) ];
  let finished =
    Cluster.run_until cluster ~deadline:5. (fun () -> Cp_smr.Client.is_finished client)
  in
  Printf.printf "\nfinished=%b ops=%d leader=%s\n" finished
    (Cp_smr.Client.done_count client)
    (match Cluster.leader cluster with Some l -> string_of_int l | None -> "none");
  if lease then
    Printf.printf "lease reads served locally: %d (fallbacks to ordering: %d)\n"
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "lease_reads")
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "lease_read_fallbacks");
  if exec_par then
    Printf.printf
      "parallel execution (%d domains): %d parallel windows, %d serial windows, %d \
       conflict-serialized ops, %d barrier ops\n"
      params.Cp_engine.Params.exec_domains
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_parallel_batches")
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_serial_batches")
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_conflict_serialized")
      (Cluster.sum_metric cluster ~ids:(Cluster.mains cluster) "exec_barrier_ops");
  (match trace_jsonl with
  | None -> ()
  | Some path ->
    let records = Cp_runtime.Inspect.trace_dump cluster in
    write_file path (Cp_obs.Trace.to_jsonl records);
    Printf.printf "wrote %d trace records to %s\n" (List.length records) path);
  (match trace_chrome with
  | None -> ()
  | Some path ->
    let records = Cp_runtime.Inspect.trace_dump cluster in
    write_file path (Cp_obs.Timeline.to_chrome records);
    Printf.printf
      "wrote Chrome trace for %d records to %s (load at https://ui.perfetto.dev)\n"
      (List.length records) path);
  (match Cp_runtime.Inspect.check_safety cluster with
  | Ok () -> print_endline "safety: OK"
  | Error e -> Printf.printf "safety: VIOLATION: %s\n" e);
  print_storage_summary storage (Cluster.engine cluster)
    (Cluster.mains cluster @ Cluster.auxes cluster);
  0

let demo_cmd =
  let doc = "Run a small Cheap Paxos cluster with a crash/restart, optionally traced." in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.") in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print typed protocol events as they happen.")
  in
  let trace_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Dump the merged cluster event trace to $(docv) as JSON lines.")
  in
  let trace_chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-chrome" ] ~docv:"FILE"
          ~doc:
            "Export the merged cluster event trace to $(docv) as Chrome trace-event \
             JSON (one lane per node, one async span per causal chain); load it at \
             ui.perfetto.dev or chrome://tracing.")
  in
  let batch =
    Arg.(
      value
      & opt int Cp_engine.Params.default.Cp_engine.Params.batch_max_cmds
      & info [ "batch" ] ~docv:"N" ~doc:"Max client commands per log instance.")
  in
  let pipeline =
    Arg.(
      value
      & opt int Cp_engine.Params.default.Cp_engine.Params.pipeline_window
      & info [ "pipeline" ] ~docv:"W"
          ~doc:"Max simultaneously outstanding (unchosen) instances at the leader.")
  in
  let linger =
    Arg.(
      value
      & opt float Cp_engine.Params.default.Cp_engine.Params.batch_linger
      & info [ "linger" ] ~docv:"SECONDS"
          ~doc:"How long the leader may hold a non-full batch open for more commands.")
  in
  let read_ratio =
    Arg.(
      value
      & opt float 0.4
      & info [ "read-ratio" ] ~docv:"R"
          ~doc:"Fraction of client operations that are GETs (0.0-1.0).")
  in
  let lease =
    Arg.(
      value & flag
      & info [ "lease" ]
          ~doc:
            "Enable leader leases: reads are served from the leader's executed \
             state without a consensus instance while its lease holds.")
  in
  let gap_threshold =
    Arg.(
      value
      & opt int Cp_engine.Params.default.Cp_engine.Params.gap_threshold
      & info [ "gap-threshold" ] ~docv:"N"
          ~doc:
            "How many instances a replica lets its chosen prefix trail a peer's \
             announced commit point before actively requesting catch-up.")
  in
  let groups =
    Arg.(
      value
      & opt int 1
      & info [ "groups" ] ~docv:"N"
          ~doc:
            "Host $(docv) key-sharded Cheap Paxos groups on the same machine set \
             (one shared auxiliary). With N > 1 the demo runs the fleet runtime: \
             routed clients, per-group leaders, per-group auxiliary quiescence.")
  in
  let domains =
    Arg.(
      value
      & opt int 4
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker-domain count for $(b,--exec-par): commands on disjoint keys \
             execute concurrently on up to $(docv) domains of the process pool.")
  in
  let exec_par =
    Arg.(
      value & flag
      & info [ "exec-par" ]
          ~doc:
            "Execute chosen commands through the conflict-aware parallel applier \
             (lib/exec) using the KV app's per-key conflict declarations, instead \
             of the serial apply loop. Results are identical; the demo prints the \
             parallel/serialized window counters.")
  in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(
      const (fun s t j c b p l r le g gr d ep st ->
          Stdlib.exit (run_demo s t j c b p l r le g gr d ep st))
      $ seed $ trace $ trace_jsonl $ trace_chrome $ batch $ pipeline $ linger
      $ read_ratio $ lease $ gap_threshold $ groups $ domains $ exec_par
      $ storage_arg ~unit_:"machine")

(* ------------------------------------------------------------------ *)
(* Real multi-process cluster: `node` runs one machine over UDP,      *)
(* `put`/`get` run a one-shot client. Start e.g.                      *)
(*   cheap-paxos node --id 0 --f 1 &                                  *)
(*   cheap-paxos node --id 1 --f 1 &                                  *)
(*   cheap-paxos node --id 2 --f 1 &                                  *)
(*   cheap-paxos put greeting hello                                   *)
(* ------------------------------------------------------------------ *)

let base_port_arg =
  Arg.(value & opt int 4600 & info [ "base-port" ] ~docv:"PORT"
         ~doc:"UDP port of machine 0; machine $(i,i) binds base+$(i,i).")

let f_arg =
  Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Fault tolerance (f+1 mains, f auxes).")

let run_node id f base_port admin_port exec_domains storage =
  let initial = Cheap_paxos.Cheap.initial_config ~f in
  let universe_mains = List.init (f + 1) Fun.id in
  let universe_auxes = List.init f (fun i -> f + 1 + i) in
  let role =
    if List.mem id universe_mains then Cp_engine.Replica.Main
    else if List.mem id universe_auxes then Cp_engine.Replica.Aux
    else begin
      Printf.eprintf "id %d out of range for f=%d (machines 0..%d)\n" id f (2 * f);
      Stdlib.exit 2
    end
  in
  let params =
    { Cp_engine.Params.default with Cp_engine.Params.exec_domains } in
  (* A real process keeps its own WAL root per machine, one subdirectory per
     hosted group (the node's storage factory is keyed by group id): a node
     restarted on the same --storage wal:DIR replays its promises, votes,
     and snapshot instead of rejoining amnesiac. *)
  let node_storage =
    match storage with
    | `Mem -> None
    | `Wal dir ->
      Some
        (fun gid ->
          Cp_storage.Wal.store
            (Filename.concat dir (Filename.concat (Printf.sprintf "m%d" id)
                                    (Printf.sprintf "g%d" gid))))
  in
  let node =
    Cp_netio.Node.create ?admin_port ?storage:node_storage ~exec_domains
      ~port_of:(fun i -> base_port + i)
      ~id_of_port:(fun p -> p - base_port)
      ~id ~seed:(Unix.getpid ())
      ~build:(fun ctx ->
        (* The applier runs on the process-shared pool, distinct from the
           node's private dispatch pool, so a handler fanning a window out
           never waits on its own worker. *)
        let exec =
          if role = Cp_engine.Replica.Main && exec_domains > 1 then
            Some
              (Cp_exec.Applier.create ~workers:exec_domains
                 ~count:(fun name by -> Cp_sim.Metrics.incr ctx.Cp_sim.Engine.metrics ~by name)
                 ~conflict_keys:Cp_smr.Kv.conflict_keys ())
          else None
        in
        let r =
          Cp_engine.Replica.create ?exec ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params ~initial ~universe_mains ~universe_auxes
            ~app:(module Cp_smr.Kv)
        in
        Cp_engine.Replica.handlers r)
      ()
  in
  Printf.printf "machine %d (%s) serving on udp/127.0.0.1:%d%s%s — ctrl-c to stop\n%!" id
    (match role with Cp_engine.Replica.Main -> "main" | Aux -> "auxiliary")
    (base_port + id)
    (match admin_port with
    | Some p -> Printf.sprintf ", admin http on tcp/127.0.0.1:%d" p
    | None -> "")
    (if exec_domains > 1 then
       Printf.sprintf ", parallel dispatch+apply on %d domains" exec_domains
     else "");
  (match storage with
  | `Mem -> ()
  | `Wal dir ->
    Printf.printf "durable storage: wal at %s/m%d (replayed on restart)\n%!" dir id);
  let rec forever () =
    Cp_netio.Node.run_for node 3600.;
    forever ()
  in
  forever ()

let node_cmd =
  let doc = "Run one machine of a real UDP cluster (replicated KV store)." in
  let id = Arg.(required & opt (some int) None & info [ "id" ] ~docv:"ID" ~doc:"Machine id.") in
  let admin_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Also serve a plain-HTTP admin endpoint on tcp/$(docv): GET /healthz, \
             /metrics (Prometheus text, including the pipeline profiler), and \
             /timeline (this node's event ring as Chrome trace-event JSON).")
  in
  let exec_domains =
    Arg.(
      value
      & opt int 0
      & info [ "exec-domains" ] ~docv:"N"
          ~doc:
            "With $(docv) > 1: dispatch this node's groups on a private pool of \
             $(docv) worker domains and (on mains) execute chosen commands through \
             the conflict-aware parallel applier at that width. Default 0 keeps \
             the single-mutex runtime.")
  in
  Cmd.v (Cmd.info "node" ~doc)
    Term.(
      const (fun id f bp ap ed st -> run_node id f bp ap ed st)
      $ id $ f_arg $ base_port_arg $ admin_port $ exec_domains
      $ storage_arg ~unit_:"hosted group")

let run_client_op f base_port op =
  let universe_mains = List.init (f + 1) Fun.id in
  let cell = ref None in
  (* Distinct id per invocation: session state on the replicas is keyed by
     client id, so one-shot clients must not reuse each other's. *)
  let client_id = 1000 + (Unix.getpid () mod 10_000) in
  let node =
    Cp_netio.Node.create
      ~port_of:(fun i -> base_port + i)
      ~id_of_port:(fun p -> p - base_port)
      ~id:client_id ~seed:(Unix.getpid ())
      ~build:(fun ctx ->
        let c =
          Cp_smr.Client.create ctx ~mains:universe_mains ~timeout:0.3
            ~ops:(fun seq -> if seq = 1 then Some op else None)
            ()
        in
        cell := Some c;
        Cp_smr.Client.handlers c)
      ()
  in
  let client = Option.get !cell in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    (not (Cp_netio.Node.with_lock node (fun () -> Cp_smr.Client.is_finished client)))
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.02
  done;
  let code =
    match Cp_netio.Node.with_lock node (fun () -> Cp_smr.Client.history client) with
    | [ (_, _, _, result) ] ->
      print_endline result;
      0
    | _ ->
      prerr_endline "timed out: is the cluster running?";
      1
  in
  Cp_netio.Node.shutdown node;
  code

let put_cmd =
  let doc = "Write a key on a running cluster (see $(b,node))." in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  Cmd.v (Cmd.info "put" ~doc)
    Term.(
      const (fun f bp k v -> Stdlib.exit (run_client_op f bp (Cp_smr.Kv.put k v)))
      $ f_arg $ base_port_arg $ key $ value)

let get_cmd =
  let doc = "Read a key from a running cluster (see $(b,node))." in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v (Cmd.info "get" ~doc)
    Term.(
      const (fun f bp k -> Stdlib.exit (run_client_op f bp (Cp_smr.Kv.get k)))
      $ f_arg $ base_port_arg $ key)

(* ------------------------------------------------------------------ *)
(* Model checking from the command line                                 *)
(* ------------------------------------------------------------------ *)

(* Deep check: bounded BFS over the real Core.step (see Cp_mc.Mc_replica).
   The JSON summary is what CI uploads as its state-count artifact. *)
let run_mc_deep ~max_states ~json =
  let module D = Cp_mc.Mc_replica in
  Printf.printf "deep check: real replica core, message-soup semantics (f=1):\n%!";
  let spec = D.default_spec in
  let r = D.check ~max_states ~spec () in
  Printf.printf "  %d states explored (depth %d): %s\n" r.D.states r.D.max_depth
    (match r.D.violation with
    | None ->
      if r.D.states >= max_states then "no violation within the search budget"
      else "invariant holds in every reachable state"
    | Some why -> "VIOLATION: " ^ why);
  (match json with
  | None -> ()
  | Some path ->
    write_file path
      (Printf.sprintf
         "{\"checker\":\"mc_replica\",\"states\":%d,\"max_depth\":%d,\"max_states\":%d,\"n_commands\":%d,\"max_ticks\":%d,\"violation\":%s}\n"
         r.D.states r.D.max_depth max_states spec.D.n_commands spec.D.max_ticks
         (match r.D.violation with None -> "null" | Some why -> Printf.sprintf "%S" why));
    Printf.printf "wrote %s\n" path);
  if r.D.violation = None && r.D.states > 0 then 0 else 1

let run_mc f broken =
  let module Mc = Cp_mc.Mc in
  let module M = Cp_mc.Mc_multi in
  Printf.printf "single-decree quorum core (f=%d, 2 competing proposers)%s:\n" f
    (if broken then ", BROKEN quorums" else "");
  let quorums =
    if broken then [ List.init f Fun.id; List.init (f + 1) (fun i -> f + i) ]
    else Mc.cheap_quorums ~f
  in
  let r =
    Mc.check { Mc.n_acceptors = (2 * f) + 1; quorums; proposals = [ (0, 100); (1, 200) ] }
  in
  Printf.printf "  %d states explored (depth %d): %s\n" r.Mc.states r.Mc.max_depth
    (match r.Mc.violation with
    | None -> "agreement holds in every reachable state"
    | Some why -> "VIOLATION: " ^ why);
  if f = 1 then begin
    Printf.printf "reconfiguration window (two instances, alpha=1)%s:\n"
      (if broken then ", assumed-config shortcut" else "");
    let discipline = if broken then `Assumed_config else `Derived_config in
    let r2 = M.check { M.proposals = [ (`Reconfig, 10); (`Value 2, 11) ]; discipline } in
    Printf.printf "  %d states explored (depth %d): %s\n" r2.M.states r2.M.max_depth
      (match r2.M.violation with
      | None -> "agreement holds in every reachable state"
      | Some why -> "VIOLATION: " ^ why)
  end;
  match (broken, (r.Mc.violation : string option)) with
  | false, None -> 0
  | false, Some _ -> 1
  | true, _ -> 0

let mc_cmd =
  let doc =
    "Exhaustively model-check the quorum core (and, at f=1, the reconfiguration \
     window). Pass $(b,--broken) to see the counterexamples for a non-intersecting \
     quorum system and the assumed-config shortcut."
  in
  let broken = Arg.(value & flag & info [ "broken" ] ~doc:"Check the broken variants instead.") in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Check the real replica transition function (Core.step) instead of the \
             abstract models: bounded breadth-first search under message-soup \
             semantics. Ignores $(b,--broken) and $(b,--f).")
  in
  let deep_states =
    Arg.(
      value & opt int 25_000
      & info [ "deep-states" ] ~docv:"N" ~doc:"Search budget (distinct worlds) for $(b,--deep).")
  in
  let deep_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "deep-json" ] ~docv:"FILE"
          ~doc:"Write the $(b,--deep) result (state count, depth, verdict) to $(docv) as JSON.")
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(
      const (fun f broken deep deep_states deep_json ->
          Stdlib.exit
            (if deep then run_mc_deep ~max_states:deep_states ~json:deep_json
             else run_mc f broken))
      $ f_arg $ broken $ deep $ deep_states $ deep_json)

let () =
  let doc = "Cheap Paxos (DSN 2004) reproduction" in
  let info = Cmd.info "cheap-paxos" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info [ experiments_cmd; demo_cmd; node_cmd; put_cmd; get_cmd; mc_cmd ]))
