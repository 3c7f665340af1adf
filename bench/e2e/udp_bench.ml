(* The UDP workloads: three bench_node processes on loopback and one load
   generator here, a Node with client id 1000 and one socket. The main
   thread sends (open loop: Poisson arrivals from the seed, each request
   timed from its due time) and the node's receive thread records replies;
   in a closed loop the receive thread sends the next request itself. No
   client timers run: the main thread resends a request unanswered for
   50 ms to the other main (then after 100, 200... up to 800 ms), keeping
   its due time. *)

module Node = Cp_netio.Node
module Types = Cp_proto.Types
module Engine = Cp_sim.Engine

let client_id = 1000

let resend_ns = 50_000_000

let ms x = int_of_float (x *. 1e6)

let secs x = int_of_float (x *. 1e9)

type gen = {
  mutable node : Node.t option;
  mutable ctx : Types.msg Engine.ctx option;
  seed : int;
  read_ratio : float;
  (* Per request, indexed by seq (1-based): *)
  mutable due : int array;
  mutable sent : int array; (* first send *)
  mutable last : int array; (* latest send *)
  mutable dst : int array; (* machine of the latest send *)
  mutable tries : int array; (* sends so far *)
  mutable reply : int array; (* 0 until answered *)
  mutable next : int; (* next seq to issue *)
  mutable oldest : int; (* every seq below it is answered *)
  mutable target : int; (* the main believed to lead *)
  mutable closed : bool; (* closed loop: each reply issues the next request *)
  mutable bad : int; (* replies that fail validation *)
  mutable retries : int;
}

let node g = Option.get g.node

let op g seq = Load.op ~seed:g.seed ~client:client_id ~read_ratio:g.read_ratio seq

(* Lock held from here to [on_message]. *)
let send g seq dst =
  let op = op g seq in
  let cmd = { Types.client = client_id; seq; op } in
  (Option.get g.ctx).Engine.send dst
    (if Load.is_read op then Types.ClientRead cmd else Types.ClientReq cmd)

let grow a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

let issue g ~due =
  let seq = g.next in
  if seq >= Array.length g.due then begin
    g.due <- grow g.due seq;
    g.sent <- grow g.sent seq;
    g.last <- grow g.last seq;
    g.dst <- grow g.dst seq;
    g.tries <- grow g.tries seq;
    g.reply <- grow g.reply seq
  end;
  g.next <- seq + 1;
  let now = Probe.now_ns () in
  g.due.(seq) <- due;
  g.sent.(seq) <- now;
  g.last.(seq) <- now;
  g.dst.(seq) <- g.target;
  g.tries.(seq) <- 1;
  g.reply.(seq) <- 0;
  send g seq g.target

let is_main id = id = 0 || id = 1

let on_message g ~src (msg : Types.msg) =
  match msg with
  | Types.ClientResp { seq; result; _ } when seq >= 1 && seq < g.next && g.reply.(seq) = 0 ->
    let now = Probe.now_ns () in
    g.reply.(seq) <- now;
    if not (Load.valid ~op:(op g seq) ~result) then g.bad <- g.bad + 1;
    if src <> g.target && is_main src then g.target <- src;
    if g.closed then issue g ~due:now
  | Types.Redirect { leader_hint } when src = g.target && leader_hint <> src && is_main leader_hint
    ->
    g.target <- leader_hint
  | _ -> ()

let create_gen ~seed ~read_ratio ~base_port =
  let n = 1 lsl 16 in
  let g =
    {
      node = None;
      ctx = None;
      seed;
      read_ratio;
      due = Array.make n 0;
      sent = Array.make n 0;
      last = Array.make n 0;
      dst = Array.make n 0;
      tries = Array.make n 0;
      reply = Array.make n 0;
      next = 1;
      oldest = 1;
      target = 0;
      closed = false;
      bad = 0;
      retries = 0;
    }
  in
  let node =
    Node.create
      ~port_of:(fun i -> base_port + i)
      ~id_of_port:(fun p -> p - base_port)
      ~id:client_id ~seed
      ~build:(fun ctx ->
        g.ctx <- Some ctx;
        { Engine.on_message = (fun ~src msg -> on_message g ~src msg); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
      ()
  in
  g.node <- Some node;
  g

(* Resend what has waited its backoff: to the believed leader if the last
   copy went elsewhere, else to the other main. *)
let scan g =
  Node.with_lock (node g) (fun () ->
      let now = Probe.now_ns () in
      while g.oldest < g.next && g.reply.(g.oldest) > 0 do
        g.oldest <- g.oldest + 1
      done;
      for seq = g.oldest to g.next - 1 do
        let backoff = resend_ns lsl min 4 (g.tries.(seq) - 1) in
        if g.reply.(seq) = 0 && now - g.last.(seq) >= backoff then begin
          let d = if g.dst.(seq) <> g.target then g.target else 1 - g.dst.(seq) in
          g.dst.(seq) <- d;
          g.last.(seq) <- now;
          g.tries.(seq) <- g.tries.(seq) + 1;
          g.retries <- g.retries + 1;
          send g seq d
        end
      done)

(* Sleeps, never spins: the generator shares its CPU with main 1 and the
   auxiliary. Oversleeping shows as generator lateness. *)
let sleep_until t =
  let wait = t - Probe.now_ns () in
  if wait > 0 then Thread.delay (float_of_int wait *. 1e-9)

(* Seqs issued in [lo, hi). *)
type span = { lo : int; hi : int; t0 : int; t1 : int }

(* Open loop at [rate]/s for [dur] ns; [at = (ns, f)] runs [f] once, [ns]
   into the loop. *)
let open_loop g ~rng ~rate ~dur ?at () =
  let t0 = Probe.now_ns () in
  let t1 = t0 + dur in
  let lo = g.next in
  let gap () = secs (Cp_util.Rng.exponential rng ~mean:(1. /. rate)) in
  let next_due = ref (t0 + gap ()) in
  let last_scan = ref t0 in
  let pending_at = ref at in
  while !next_due < t1 do
    sleep_until (min !next_due (!last_scan + ms 5.));
    let now = Probe.now_ns () in
    if !next_due <= now then
      Node.with_lock (node g) (fun () ->
          while !next_due <= now && !next_due < t1 do
            issue g ~due:!next_due;
            next_due := !next_due + gap ()
          done);
    if now - !last_scan >= ms 5. then begin
      scan g;
      last_scan := now
    end;
    match !pending_at with
    | Some (at_ns, f) when now - t0 >= at_ns ->
      pending_at := None;
      f ()
    | _ -> ()
  done;
  sleep_until t1;
  { lo; hi = g.next; t0; t1 }

let closed_loop g ~window ~dur =
  let lo = g.next in
  let t0 = Probe.now_ns () in
  Node.with_lock (node g) (fun () ->
      g.closed <- true;
      for _ = 1 to window do
        issue g ~due:t0
      done);
  let t1 = t0 + dur in
  while Probe.now_ns () < t1 do
    sleep_until (min t1 (Probe.now_ns () + ms 5.));
    scan g
  done;
  Node.with_lock (node g) (fun () -> g.closed <- false);
  { lo; hi = g.next; t0; t1 = Probe.now_ns () }

(* Wait until every request is answered, at most [max] ns. *)
let drain g ~max =
  let t1 = Probe.now_ns () + max in
  scan g;
  while g.oldest < g.next && Probe.now_ns () < t1 do
    Thread.delay 0.005;
    scan g
  done

let replies_between g t0 t1 =
  let n = ref 0 in
  for seq = 1 to g.next - 1 do
    let r = g.reply.(seq) in
    if r >= t0 && r <= t1 then incr n
  done;
  !n

(* Longest interval in [t0, t1] without a reply, from t0 on. *)
let longest_gap g t0 t1 =
  let times = ref [] in
  for seq = 1 to g.next - 1 do
    let r = g.reply.(seq) in
    if r >= t0 && r <= t1 then times := r :: !times
  done;
  let sorted = List.sort compare !times in
  let gap, last = List.fold_left (fun (gap, prev) r -> (max gap (r - prev), r)) (0, t0) sorted in
  max gap (t1 - last)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type plan = {
  lease : bool;
  read_ratio : float;
  rate : float; (* open-loop rate *)
  kill : bool; (* SIGKILL the leader 0.3 s into a 1 s open loop first *)
}

let plan_of = function
  | "udp_write" -> Some { lease = false; read_ratio = 0.; rate = 1000.; kill = false }
  | "udp_read_lease" -> Some { lease = true; read_ratio = 0.9; rate = 1000.; kill = false }
  | "udp_failover" -> Some { lease = false; read_ratio = 0.; rate = 1000.; kill = true }
  | _ -> None

(* Cycles per run, each on a fresh cluster: the program's memory grows with
   the requests it has served, so a long-lived cluster drifts. *)
let cycles = 8

let setups_per_cycle = 3

let window = 32

(* Latencies, from the due time, of the requests of [spans]. *)
let latencies g spans =
  let h = Hist.Exact.create () in
  List.iter
    (fun (s : span) ->
      for seq = s.lo to s.hi - 1 do
        if g.reply.(seq) > 0 then Hist.Exact.add h (g.reply.(seq) - g.due.(seq))
      done)
    spans;
  h

let throughput g (s : span) =
  float_of_int (replies_between g s.t0 s.t1) /. (float_of_int (s.t1 - s.t0) *. 1e-9)

(* Set-up: spawn the machines and wait for the first reply to a probe PUT,
   [setups_per_cycle] times; the last cluster carries the load. *)
let set_up g ~exe ~dir ~base_port ~seed ~lease =
  let once k =
    let sdir = Filename.concat dir (Printf.sprintf "setup%d" k) in
    let t0 = Probe.now_ns () in
    let cl = Cluster.spawn ~exe ~dir:sdir ~base_port ~seed:((seed * 10) + k) ~lease in
    let seq = g.next in
    Node.with_lock (node g) (fun () ->
        g.target <- 0;
        issue g ~due:t0);
    (* Poll every millisecond (a machine may not be listening yet), mostly
       main 0, which campaigns at boot. *)
    let deadline = t0 + secs 10. in
    let polls = ref 0 in
    while g.reply.(seq) = 0 && Probe.now_ns () < deadline do
      Thread.delay 0.001;
      incr polls;
      Node.with_lock (node g) (fun () ->
          if g.reply.(seq) = 0 then send g seq (if !polls mod 4 = 0 then 1 else 0))
    done;
    if g.reply.(seq) = 0 then failwith "cluster did not answer its first request within 10 s";
    g.oldest <- g.next;
    (cl, sdir, float_of_int (g.reply.(seq) - t0) *. 1e-9)
  in
  let rec go k acc =
    let cl, sdir, s = once k in
    if k + 1 < setups_per_cycle then begin
      Cluster.stop cl;
      go (k + 1) (s :: acc)
    end
    else (cl, sdir, List.rev (s :: acc))
  in
  go 0 []

type cycle = {
  traced : bool;
  setup : float list;
  opened : span; (* the measured open loop *)
  closed : span;
  killed : (int * span) option; (* kill time, and the open loop around it *)
  dumps : Cluster.dump array;
  leader : int;
  heap_words : int; (* the leader's peak heap when the open loop ended *)
  issued : int * int; (* seqs [lo, hi) sent after set-up *)
  traced_from : int; (* when tracing came on *)
  retries : int;
}

(* One cycle: set-up, a 0.5 s warm-up at 500/s (not measured), for
   failover the kill phase, then an open loop at the plan's rate and a
   closed loop with [window] outstanding, [block] ns each. *)
let cycle g ~exe ~dir ~base_port ~seed ~plan ~rng ~block ~traced =
  let cl, cdir, setup = set_up g ~exe ~dir ~base_port ~seed ~lease:plan.lease in
  let lo = g.next and retries0 = g.retries in
  ignore (open_loop g ~rng ~rate:500. ~dur:(secs 0.5) ());
  if traced then begin
    Cluster.signal_all cl Sys.sigusr1;
    (* the machines switch within their 20 ms write period *)
    Thread.delay 0.05
  end;
  let traced_from = Probe.now_ns () in
  let killed =
    if not plan.kill then None
    else begin
      let t_kill = ref 0 and victim = g.target in
      let kill () =
        (* a traced victim first writes the spans it holds *)
        if traced then Cluster.flush_traces cl victim;
        t_kill := Probe.now_ns ();
        Cluster.kill cl victim
      in
      let s = open_loop g ~rng ~rate:plan.rate ~dur:(secs 1.) ~at:(secs 0.3, kill) () in
      (* The pin map gives the leader a CPU of its own; the new leader takes
         the one the dead main leaves idle, outside the measured loops.
         Sharing the other CPU with the auxiliary and the generator, its
         closed-loop throughput swung by a quarter between runs. *)
      Cluster.pin cl (1 - victim) (Host.cpu_for `Leader);
      Some (!t_kill, s)
    end
  in
  let opened = open_loop g ~rng ~rate:plan.rate ~dur:block () in
  let closed = closed_loop g ~window ~dur:block in
  drain g ~max:(secs 1.);
  Cluster.stop cl;
  let dumps = Array.init 3 (Cluster.read_dump cdir) in
  let leader =
    match List.find_opt (fun i -> dumps.(i).Cluster.leader) [ 0; 1 ] with Some i -> i | None -> 0
  in
  {
    traced;
    setup;
    opened;
    closed;
    killed;
    dumps;
    leader;
    heap_words = Cluster.heap_at dumps.(leader) opened.t1;
    issued = (lo, g.next);
    traced_from;
    retries = g.retries - retries0;
  }

(* Per-layer metrics from the traced cycles, and the join's detail. *)
let layers g ~cycles:(cs : cycle list) ~failed ~attempted ~overhead =
  let join = Join.create () in
  let hists = List.map (fun n -> (n, Hist.create ())) [ "put"; "flush"; "apply"; "send" ] in
  let ops = ref 0 and aux_recv = ref 0 and late = ref 0 and opened = ref 0 and unavail = ref [] in
  List.iter
    (fun c ->
      let handlers = Probe.Recs.create 8 and sends = Probe.Recs.create 8 in
      Array.iter
        (fun (d : Cluster.dump) ->
          Probe.Recs.append handlers d.Cluster.handlers;
          Probe.Recs.append sends d.Cluster.sends;
          List.iter
            (fun (n, h) -> Option.iter (Hist.merge_into ~dst:h) (List.assoc_opt n d.Cluster.hists))
            hists)
        c.dumps;
      let spans = Option.to_list (Option.map snd c.killed) @ [ c.opened ] in
      let seqs = List.concat_map (fun s -> List.init (s.hi - s.lo) (( + ) s.lo)) spans in
      Join.add join ~handlers ~sends
        (List.filter_map
           (fun seq ->
             if g.reply.(seq) = 0 then None
             else
               Some
                 {
                   Join.client = client_id;
                   seq;
                   due = g.due.(seq);
                   sent = g.sent.(seq);
                   reply = g.reply.(seq);
                   read = Load.is_read (op g seq);
                 })
           seqs);
      ops := !ops + replies_between g c.traced_from c.closed.t1;
      aux_recv := !aux_recv + Report.get "msgs_recv" c.dumps.(2).Cluster.tcounters;
      opened := !opened + List.length seqs;
      late := !late + List.length (List.filter (fun seq -> g.sent.(seq) - g.due.(seq) > ms 1.) seqs);
      unavail :=
        float_of_int
          (match c.killed with
          | Some (t_kill, s) -> longest_gap g t_kill s.t1
          | None -> longest_gap g c.opened.t0 c.opened.t1)
        :: !unavail)
    cs;
  let hist n = List.assoc n hists in
  let counters =
    Report.sum_counters
      (List.concat_map (fun c -> List.map (fun (d : Cluster.dump) -> d.Cluster.tcounters) (Array.to_list c.dumps)) cs)
  in
  ( Report.layer_metrics
    {
      Report.join;
      put = hist "put";
      flush = hist "flush";
      apply = hist "apply";
      send = hist "send";
      counters;
      ops = !ops;
      aux_recv = !aux_recv;
      recv_ns = Report.get "prof.decode.ns" counters;
      unavail_ns = int_of_float (Report.median !unavail);
      late_share = float_of_int !late /. float_of_int (max 1 !opened);
      gen_retries = List.fold_left (fun acc c -> acc + c.retries) 0 cs;
      error_rate = float_of_int failed /. float_of_int (max 1 attempted);
      trace_overhead = overhead;
    },
    Report.join_detail join )

let run ~plan ~workload ~seed ~seconds ~traced ~dir ~exe =
  let base_port = Cluster.pick_base_port ~seed in
  let g = create_gen ~seed ~read_ratio:plan.read_ratio ~base_port in
  let rng = Cp_util.Rng.create seed in
  let block = secs (float_of_int seconds) / (2 * cycles) in
  (* A traced run traces every other cycle; the others give the overhead. *)
  let cs =
    List.init cycles (fun k ->
        cycle g ~exe ~dir:(Filename.concat dir (Printf.sprintf "cycle%d" k)) ~base_port
          ~seed:((seed * 100) + k) ~plan ~rng ~block ~traced:(traced && k mod 2 = 1))
  in
  Node.shutdown (node g);
  let attempted = List.fold_left (fun acc c -> acc + (snd c.issued - fst c.issued)) 0 cs in
  let failed = ref 0 in
  List.iter
    (fun c ->
      for seq = fst c.issued to snd c.issued - 1 do
        if g.reply.(seq) = 0 then incr failed
      done)
    cs;
  let failed = !failed in
  let plain = List.filter (fun c -> not c.traced) cs and on = List.filter (fun c -> c.traced) cs in
  (* Percentiles over every untraced cycle's samples pooled: a rare stall
     then moves p99 by its share of the samples, not by a whole cycle. *)
  let lats = latencies g (List.map (fun c -> c.opened) plain) in
  let per_cycle = List.map (fun c -> latencies g [ c.opened ]) plain in
  let tputs l = List.map (fun c -> throughput g c.closed) l in
  let heap_mb c = float_of_int (c.heap_words * (Sys.word_size / 8)) /. 1e6 in
  let e2e =
    [
      ("setup_s", Report.median (List.concat_map (fun c -> c.setup) cs));
      ("throughput_ops_s", Report.median (tputs plain));
      ("lat_p50_ms", Hist.Exact.quantile lats 0.5 /. 1e6);
      ("lat_p99_ms", Hist.Exact.quantile lats 0.99 /. 1e6);
      ("heap_mb", Report.median (List.map heap_mb plain));
    ]
  in
  let layers, join_detail =
    if not traced then ([], [])
    else
      layers g ~cycles:on ~failed ~attempted
        ~overhead:(Report.median (tputs on) /. Report.median (tputs plain))
  in
  let counter c name =
    Array.fold_left (fun acc (d : Cluster.dump) -> acc + Report.get name d.Cluster.counters) 0 c.dumps
  in
  let survivors = if plan.kill then [ 1; 2 ] else [ 0; 1; 2 ] in
  let every f = List.for_all f cs in
  let checks =
    [
      ("every_reply_valid", g.bad = 0);
      ("mains_agree", every (fun c -> Cluster.logs_agree c.dumps.(0) c.dumps.(1)));
      ( "machines_exited_cleanly",
        every (fun c -> List.for_all (fun i -> c.dumps.(i).Cluster.complete) survivors) );
    ]
    @
    if plan.kill then [ ("main1_leads_after_failover", every (fun c -> c.leader = 1)) ]
    else [ ("no_handler_errors", every (fun c -> counter c "handler_errors" = 0)) ]
  in
  let lag = Hist.Exact.create () in
  List.iter
    (fun c ->
      for seq = c.opened.lo to c.opened.hi - 1 do
        Hist.Exact.add lag (g.sent.(seq) - g.due.(seq))
      done)
    plain;
  let nums f l = Json.Arr (List.map (fun x -> Report.num (f x)) l) in
  let ints f l = Json.Arr (List.map (fun x -> Report.int (f x)) l) in
  {
    Report.workload;
    seed;
    seconds;
    traced;
    checks;
    attempted;
    failed;
    metrics = e2e @ layers;
    detail =
      [
        ("open_loop_rate", Report.num plan.rate);
        ("closed_loop_window", Report.int window);
        ("cycles", Report.int cycles);
        ("lat_samples", Report.int (Hist.Exact.count lats));
        ("cycle_p50_ms", nums (fun h -> Hist.Exact.quantile h 0.5 /. 1e6) per_cycle);
        ("cycle_p99_ms", nums (fun h -> Hist.Exact.quantile h 0.99 /. 1e6) per_cycle);
        ("cycle_throughput_ops_s", nums Fun.id (tputs plain));
        ("cycle_heap_mb", nums heap_mb plain);
        ("setup_samples_s", nums Fun.id (List.concat_map (fun c -> c.setup) cs));
        ("gen_late_p50_ms", Report.num (Hist.Exact.quantile lag 0.5 /. 1e6));
        ("gen_late_p99_ms", Report.num (Hist.Exact.quantile lag 0.99 /. 1e6));
        ("gen_retries", Report.int g.retries);
        ( "unavail_ms_after_kill",
          nums
            (fun (t, (s : span)) -> float_of_int (longest_gap g t s.t1) /. 1e6)
            (List.filter_map (fun c -> c.killed) cs) );
        ("aux_engagements", ints (fun c -> counter c "aux_engagements") cs);
        ("elections_started", ints (fun c -> counter c "elections_started") cs);
        ("reconfigs", ints (fun c -> counter c "remove_proposed" + counter c "add_proposed") cs);
      ]
      @ join_detail;
  }
