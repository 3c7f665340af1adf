(* The ring workloads: one process, three replicas and closed-loop
   Cp_smr.Clients on the in-process ring fabric, driven by [Ring.run]
   slices of 2 ms of virtual time until the clients finish (a plain
   [Ring.run] never returns early: heartbeats re-arm forever). The network
   has zero delay, so every number is CPU time on the wall clock.

   A run repeats rounds of fixed work, each on a fresh fabric, until its
   time is up, and reports medians over rounds. A round times five set-ups
   (fabric, replicas, election, one probe PUT) and keeps the last. *)

module Ring = Cp_transport.Ring
module Replica = Cp_engine.Replica
module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Metrics = Cp_sim.Metrics
module Client = Cp_smr.Client

type cfg = { wal : bool; clients : int; ops : int (* per client per round *) }

let cfg_of = function
  | "ring_mem" -> Some { wal = false; clients = 32; ops = 250 }
  | "ring_wal" -> Some { wal = true; clients = 32; ops = 30 }
  | _ -> None

let mains = [ 0; 1 ]

let auxes = [ 2 ]

let client_base = 1000

let probe_id = 1999

let is_client id = id >= client_base && id < probe_id

let build_replica id ctx =
  let ctx = Probe.wrap_ctx ~node:id ctx in
  let role = if List.mem id mains then Replica.Main else Replica.Aux in
  let r =
    Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy ~params:Cp_engine.Params.default
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~universe_mains:mains ~universe_auxes:auxes ~app:(module Probe.Timed_kv)
  in
  (r, Probe.wrap_handlers ~node:id (Replica.handlers r))

(* Wall-clock latency of closed-loop clients: from a request's first send
   to the response for it; and the longest gap between responses. *)
type lat = {
  sent_at : (int, int * int) Hashtbl.t; (* client -> (seq, first send ns) *)
  samples : Hist.Exact.t;
  mutable last_reply : int;
  mutable max_gap : int;
}

let new_lat () =
  { sent_at = Hashtbl.create 64; samples = Hist.Exact.create (); last_reply = 0; max_gap = 0 }

let add_client ring lat ~id ~ops =
  let cell = ref None in
  Ring.add_node ring ~id ~build:(fun ctx ->
      let ctx = Probe.wrap_ctx ~node:id ctx in
      let send dst (msg : Types.msg) =
        (match msg with
        | Types.ClientReq c | Types.ClientRead c -> (
          match Hashtbl.find_opt lat.sent_at id with
          | Some (seq, _) when seq = c.Types.seq -> ()
          | _ -> Hashtbl.replace lat.sent_at id (c.Types.seq, Probe.now_ns ()))
        | _ -> ());
        ctx.Engine.send dst msg
      in
      let c =
        Client.create { ctx with Engine.send } ~mains
          ~timeout:Cp_engine.Params.default.Cp_engine.Params.client_timeout ~ops ()
      in
      cell := Some c;
      let h = Probe.wrap_handlers ~node:id (Client.handlers c) in
      let on_message ~src (msg : Types.msg) =
        (match msg with
        | Types.ClientResp { seq; _ } -> (
          match Hashtbl.find_opt lat.sent_at id with
          | Some (s, t) when s = seq ->
            let now = Probe.now_ns () in
            Hist.Exact.add lat.samples (now - t);
            if lat.last_reply > 0 then lat.max_gap <- max lat.max_gap (now - lat.last_reply);
            lat.last_reply <- now;
            Hashtbl.replace lat.sent_at id (-1, 0)
          | _ -> ())
        | _ -> ());
        h.Engine.on_message ~src msg
      in
      { h with Engine.on_message });
  Option.get !cell

(* Slices of 2 ms of virtual time until [finished], with a 60 s guard. *)
let drive ring finished =
  while (not (finished ())) && Ring.now ring < 60. do
    Probe.slice (fun () -> Ring.run ~until:(Ring.now ring +. 2e-3) ring)
  done;
  finished ()

(* Metric and storage counters, summed over [ids]. *)
let counters ring ids =
  Report.sum_counters
    (List.concat_map
       (fun id -> [ Metrics.counters (Ring.metrics ring id); Cp_sim.Stable.counter_list (Ring.stable ring id) ])
       ids)

(* A fresh fabric and its three replicas, up to the reply to a probe PUT:
   one [setup_s] sample. *)
type fabric = {
  ring : Ring.t;
  replicas : (int * Replica.t option ref) list;
  probe : Client.t;
  probe_ok : bool;
  setup_s : float;
  wal_dirs : string list;
}

let set_up ~cfg ~seed ~ix ~dir =
  let t0 = Probe.now_ns () in
  let wal_dir id = Filename.concat dir (Printf.sprintf "r%d-n%d" ix id) in
  (* The fabric asks every endpoint for a store; clients never write. *)
  let store id =
    Probe.timed_store
      (if cfg.wal && id < client_base then Cp_storage.Wal.store (wal_dir id)
       else Cp_storage.Mem.store ())
  in
  let ring = Ring.create ~seed:((seed * 7919) + ix) ~storage:store () in
  let replicas =
    List.map
      (fun id ->
        let cell = ref None in
        Ring.add_node ring ~id ~build:(fun ctx ->
            let r, h = build_replica id ctx in
            cell := Some r;
            h);
        (id, cell))
      (mains @ auxes)
  in
  let probe =
    add_client ring (new_lat ()) ~id:probe_id ~ops:(fun s ->
        if s = 1 then Some (Load.op ~seed ~client:probe_id ~read_ratio:0. ix) else None)
  in
  let probe_ok = drive ring (fun () -> Client.is_finished probe) in
  {
    ring;
    replicas;
    probe;
    probe_ok;
    setup_s = float_of_int (Probe.now_ns () - t0) *. 1e-9;
    wal_dirs = (if cfg.wal then List.map wal_dir (mains @ auxes) else []);
  }

let tear_down f =
  List.iter (fun id -> Cp_sim.Stable.close (Ring.stable f.ring id)) (mains @ auxes);
  List.iter Host.rm_rf f.wal_dirs

(* Extra set-ups per round, thrown away once timed. *)
let extra_setups = 4

type round = {
  setup_s : float list;
  ops : int;
  wall_s : float;
  lat : lat;
  delta : (string * int) list; (* replica counters over the load *)
  aux_recv : int;
  client_retries : int;
  checks : (string * bool) list;
}

let round ~cfg ~seed ~ix ~dir ~traced ~join =
  Probe.disable ();
  let extra =
    List.init extra_setups (fun k ->
        let f = set_up ~cfg ~seed ~ix:((ix * 100) + k + 1) ~dir in
        tear_down f;
        f.setup_s)
  in
  let f = set_up ~cfg ~seed ~ix:(ix * 100) ~dir in
  let ring = f.ring in
  let replica_ids = mains @ auxes in
  let before = counters ring replica_ids and aux_before = counters ring auxes in
  let lat = new_lat () in
  if traced then Probe.enable ();
  let t0 = Probe.now_ns () in
  let clients =
    List.init cfg.clients (fun i ->
        let id = client_base + i in
        add_client ring lat ~id ~ops:(fun s ->
            if s <= cfg.ops then Some (Load.op ~seed ~client:id ~read_ratio:0. ((ix * cfg.ops) + s))
            else None))
  in
  let finished = drive ring (fun () -> List.for_all Client.is_finished clients) in
  let wall_s = float_of_int (Probe.now_ns () - t0) *. 1e-9 in
  Probe.disable ();
  let delta =
    List.map (fun (n, a) -> (n, a - Report.get n before)) (counters ring replica_ids)
  in
  let histories = List.concat_map Client.history (f.probe :: clients) in
  let dumps =
    List.filter_map
      (fun (id, cell) ->
        match !cell with
        | Some r when List.mem id mains ->
          Some
            {
              Cp_checker.Consistency.node = id;
              base = Replica.log_base r;
              entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:(Replica.prefix r);
            }
        | _ -> None)
      f.replicas
  in
  let all_ids = replica_ids @ (probe_id :: List.init cfg.clients (( + ) client_base)) in
  let checks =
    [
      ("clients_finished", f.probe_ok && finished);
      ( "every_reply_valid",
        List.for_all (fun (_, _, op, result) -> Load.valid ~op ~result) histories );
      ("mains_agree", Cp_checker.Consistency.agreement dumps = Ok ());
      ( "no_handler_errors",
        List.for_all (fun id -> Metrics.get (Ring.metrics ring id) "handler_errors" = 0) all_ids );
    ]
  in
  let ops = List.fold_left (fun acc c -> acc + Client.done_count c) 0 clients in
  if traced then begin
    let reqs =
      Join.client_requests ~handlers:Probe.g.Probe.handlers ~sends:Probe.g.Probe.sends ~is_client
    in
    Join.add join ~handlers:Probe.g.Probe.handlers ~sends:Probe.g.Probe.sends reqs;
    Probe.Recs.clear Probe.g.Probe.handlers;
    Probe.Recs.clear Probe.g.Probe.sends
  end;
  let aux_recv = Report.get "msgs_recv" (counters ring auxes) - Report.get "msgs_recv" aux_before in
  let client_retries =
    List.fold_left (fun acc id -> acc + Metrics.get (Ring.metrics ring id) "client_retries") 0 all_ids
  in
  tear_down f;
  { setup_s = f.setup_s :: extra; ops; wall_s; lat; delta; aux_recv; client_retries; checks }

let run ~cfg ~workload ~seed ~seconds ~traced ~dir =
  Probe.reset ();
  let join = Join.create () in
  let start = Probe.now_ns () in
  let budget = seconds * 1_000_000_000 in
  let elapsed () = Probe.now_ns () - start in
  (* A traced run measures its first third untraced, for the overhead. *)
  let rounds = ref [] in
  let traced_done () = List.exists fst !rounds in
  while !rounds = [] || elapsed () < budget || (traced && not (traced_done ())) do
    let traced_round = traced && elapsed () >= budget / 3 && List.exists (fun (t, _) -> not t) !rounds in
    let r = round ~cfg ~seed ~ix:(List.length !rounds) ~dir ~traced:traced_round ~join in
    rounds := (traced_round, r) :: !rounds;
    Gc.full_major ()
  done;
  let rounds = List.rev !rounds in
  let all = List.map snd rounds in
  (* The first round grows the heap from nothing: a warm-up, not timed. *)
  let plain =
    match List.filter_map (fun (t, r) -> if t then None else Some r) rounds with
    | _ :: (_ :: _ as rest) -> rest
    | l -> l
  in
  let traced_rounds = List.filter_map (fun (t, r) -> if t then Some r else None) rounds in
  let tput r = float_of_int r.ops /. r.wall_s in
  let attempted = List.length all * cfg.clients * cfg.ops in
  let completed = List.fold_left (fun acc r -> acc + r.ops) 0 all in
  let checks =
    List.map
      (fun (name, _) -> (name, List.for_all (fun r -> List.assoc name r.checks) all))
      (List.hd all).checks
  in
  let pooled = Hist.Exact.create () in
  List.iter (fun r -> Hist.Exact.append pooled r.lat.samples) plain;
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let e2e =
    [
      ("setup_s", Report.median (List.concat_map (fun r -> r.setup_s) all));
      ("throughput_ops_s", Report.median (List.map tput plain));
      ("lat_p50_ms", Hist.Exact.quantile pooled 0.5 /. 1e6);
      ("lat_p99_ms", Hist.Exact.quantile pooled 0.99 /. 1e6);
      ("heap_mb", heap_mb);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 traced_rounds in
      let p = Probe.g in
      Report.layer_metrics
        {
          Report.join;
          put = p.Probe.put;
          flush = p.Probe.flush;
          apply = p.Probe.apply;
          send = p.Probe.send;
          counters = Report.sum_counters (List.map (fun r -> r.delta) traced_rounds);
          ops = sum (fun r -> r.ops);
          aux_recv = sum (fun r -> r.aux_recv);
          recv_ns = p.Probe.slice_ns - p.Probe.in_slice_ns;
          unavail_ns =
            int_of_float (Report.median (List.map (fun r -> float_of_int r.lat.max_gap) traced_rounds));
          late_share = 0.;
          gen_retries = sum (fun r -> r.client_retries);
          error_rate = float_of_int (attempted - completed) /. float_of_int attempted;
          trace_overhead =
            Report.median (List.map tput traced_rounds) /. Report.median (List.map tput plain);
        }
    end
  in
  let p = Probe.g in
  {
    Report.workload;
    seed;
    seconds;
    traced;
    checks;
    attempted;
    failed = attempted - completed;
    metrics = e2e @ layers;
    detail =
      [
        ("rounds", Report.int (List.length all));
        ("traced_rounds", Report.int (List.length traced_rounds));
        ("clients", Report.int cfg.clients);
        ("ops_per_client_per_round", Report.int cfg.ops);
        ("storage", Json.Str (if cfg.wal then "wal" else "mem"));
        ("lat_samples", Report.int (Hist.Exact.count pooled));
        ("round_throughput_ops_s", Json.Arr (List.map (fun r -> Report.num (tput r)) plain));
        ("setup_samples_s", Json.Arr (List.map Report.num (List.concat_map (fun r -> r.setup_s) all)));
        ( "span_coverage",
          Report.num
            (if p.Probe.slice_ns = 0 then 0.
             else float_of_int (p.Probe.in_slice_ns + p.Probe.gap_ns) /. float_of_int p.Probe.slice_ns)
        );
      ]
      @ Report.join_detail join;
  }
