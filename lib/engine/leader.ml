(* Leader role: elections (phase 1), proposal pipelining and batching
   (phase 2), the mains-only fast path with widening to the auxiliaries,
   commit-floor management for aux vote compaction, the failure detector,
   reconfiguration proposals, and the client-facing submit/read paths.

   Sans-IO: every handler only mutates {!State.t} and queues effects. *)

open Cp_proto
open State

(* ------------------------------------------------------------------ *)
(* Choosing, floors, pumping                                           *)
(* ------------------------------------------------------------------ *)

let active_auxes_for t i = Config.active_auxes (Configs.config_for t.configs i)

(* The timer tag of the step an idle leader asks for at the end of a
   delivery burst ({!Effect.At_burst_end}). *)
let burst_end_tag = "burst_end"

(* Mark the leadership aux-engaged through [instance], emitting the
   engagement event only on the idle→engaged flip. *)
let engage t lead ~instance =
  if not lead.l_engaged then begin
    lead.l_engaged <- true;
    event t (Obs.Event.Aux_engaged { instance })
  end;
  lead.l_aux_high <- max lead.l_aux_high (instance + 1)

(* The floor the leader may announce to auxiliaries: the minimum chosen
   prefix across the mains of the latest config (so every compacted instance
   is durably logged by every main). *)
let mains_floor t lead =
  let cfg = Configs.latest t.configs in
  List.fold_left
    (fun acc m ->
      if m = t.self then min acc (Log.prefix t.log)
      else
        match Hashtbl.find_opt lead.l_acks m with
        | Some p -> min acc p
        | None -> 0)
    max_int cfg.Config.mains

let update_aux_floor t lead =
  if lead.l_engaged then begin
    let floor = mains_floor t lead in
    if floor > lead.l_aux_floor_sent then begin
      lead.l_aux_floor_sent <- floor;
      (* All auxiliary machines, not just the currently active ones: the
         reconfiguration that ends an engagement typically deactivates the
         very auxiliary that still holds the votes. *)
      List.iter (fun a -> send t a (Types.CommitFloor { upto = floor })) t.universe_auxes;
      (* The engagement ends only when the auxiliaries can have compacted
         every vote they might hold; until then keep pushing floors. *)
      if floor >= lead.l_aux_high then begin
        lead.l_engaged <- false;
        event t (Obs.Event.Aux_quiesced { floor })
      end
    end
  end

let phase2_targets t cfg ~widened =
  let base =
    if t.policy.Policy.narrow_phase2 && not widened then cfg.Config.mains
    else Config.acceptors cfg
  in
  List.filter (fun id -> id <> t.self) base

(* Deferred reads (see {!Lease.read_fenced}): if the lease holds, serve from
   local state every parked read whose fence has cleared and leave the rest
   parked; if it has lapsed, leave the parked reads to [lapsed]. Called
   where a fence clears — [check_chosen], once the newly chosen prefix has
   executed, so a read leaves in the same step as the write it waited on
   (the write's reply first) — and by the tick, which sends the parked reads
   down the ordered path if the lease lapsed. The commit path passes
   [ignore]: the ordered path re-enters [check_chosen]. *)
let drain_deferred_reads t lead ~lapsed =
  if not (Queue.is_empty lead.l_reads) then
    if Lease.refresh_lease t lead ~reason:"expired" then begin
      let pending = Queue.create () in
      Queue.transfer lead.l_reads pending;
      Queue.iter
        (fun (cmd : Types.command) ->
          if Lease.read_fenced t lead cmd then Queue.push cmd lead.l_reads
          else Lease.serve_lease_read t cmd)
        pending
    end
    else lapsed ()

let rec check_chosen t lead i =
  match Hashtbl.find_opt lead.l_pending i with
  | None -> ()
  | Some p ->
    let cfg = Configs.config_for t.configs i in
    if Config.is_quorum cfg p.p_acks then begin
      Hashtbl.remove lead.l_pending i;
      observe t "commit_latency" (now t -. p.p_started);
      metric t "chosen";
      let auxes = active_auxes_for t i in
      if List.exists (fun a -> List.mem a p.p_acks) auxes then engage t lead ~instance:i;
      let cmd_keys =
        match p.p_entry with
        | Types.App c -> [ (c.Types.client, c.Types.seq) ]
        | Types.Batch cs -> List.map (fun c -> (c.Types.client, c.Types.seq)) cs
        | Types.Noop | Types.Reconfig _ -> []
      in
      event t (Obs.Event.Command_chosen { instance = i; batch = List.length cmd_keys });
      push t (Effect.Span_chosen { instance = i; cmds = cmd_keys; at = now t });
      if Learner.learn t i p.p_entry then drain_deferred_reads t lead ~lapsed:ignore;
      List.iter
        (fun m -> if m <> t.self then send t m (Types.Commit { instance = i; entry = p.p_entry }))
        cfg.Config.mains;
      update_aux_floor t lead;
      (* The prefix may have advanced: slide the proposal window. *)
      pump t lead
    end

and propose_at t lead i entry =
  let cfg = Configs.config_for t.configs i in
  let acks = if Acceptor_core.self_accept t lead.l_ballot i entry then [ t.self ] else [] in
  (* If the failure detector already suspects a main, don't wait out the
     widen timeout on every proposal: engage the auxiliaries from the start. *)
  let widened = t.policy.Policy.widen_on_timeout && Hashtbl.length lead.l_suspected > 0 in
  let p =
    {
      p_entry = entry;
      p_acks = acks;
      p_widened = widened;
      p_started = now t;
      p_last_send = now t;
    }
  in
  if widened then engage t lead ~instance:i;
  Hashtbl.replace lead.l_pending i p;
  metric t "proposed";
  (match entry with
  | Types.Reconfig r -> event t (Obs.Event.Reconfig_proposed (obs_change r))
  | Types.Noop | Types.App _ | Types.Batch _ -> ());
  List.iter
    (fun dst -> send t dst (Types.P2a { ballot = lead.l_ballot; instance = i; entry }))
    (phase2_targets t cfg ~widened);
  check_chosen t lead i

(* Advance the proposal front: first re-propose phase-1 recovered entries
   (Noop for gaps), then client commands — always strictly inside the
   α-window, so the configuration of every proposed instance is already
   fixed by the executed prefix. Re-entrant calls (a proposal choosing
   instantly and re-triggering) are flattened by the guard. [burst_end]
   is set only by [on_burst_end]: a partial batch may leave. *)
and pump ?(burst_end = false) t lead =
  if (not lead.l_pumping) && not lead.l_abdicate then begin
    lead.l_pumping <- true;
    let progress = ref true in
    while !progress do
      progress := false;
      let window_end = Log.prefix t.log + Configs.alpha t.configs in
      if lead.l_next < window_end then begin
        if lead.l_next < lead.l_recover_hi then begin
          let i = lead.l_next in
          lead.l_next <- i + 1;
          if not (Log.is_chosen t.log i) then begin
            let entry =
              Option.value ~default:Types.Noop (Hashtbl.find_opt lead.l_backlog i)
            in
            propose_at t lead i entry
          end;
          progress := true
        end
        else if Hashtbl.length lead.l_pending < t.params.Params.pipeline_window then begin
          (* Drain fresh commands into one instance, bounded by both the
             command count and the byte budget (the first command always
             fits, so an oversized command ships alone). *)
          let max_cmds = max 1 t.params.Params.batch_max_cmds in
          let max_bytes = t.params.Params.batch_max_bytes in
          let fresh cmd =
            match Hashtbl.find_opt t.sessions cmd.Types.client with
            | Some sess -> Session.status sess cmd.Types.seq = `New
            | None -> true
          in
          let rec take n bytes acc =
            if n = 0 || bytes >= max_bytes then List.rev acc
            else
              match Queue.take_opt lead.l_queue with
              | None -> List.rev acc
              | Some cmd ->
                let size = Types.command_size cmd in
                lead.l_queued_bytes <- lead.l_queued_bytes - size;
                if fresh cmd then begin
                  Hashtbl.replace lead.l_inflight_cmds (cmd.Types.client, cmd.Types.seq) ();
                  take (n - 1) (bytes + size) (cmd :: acc)
                end
                else begin
                  progress := true;
                  take n bytes acc
                end
          in
          (* Self-clocking (Nagle's rule for proposals): a full batch leaves
             as soon as the window has room, but a partial one waits while
             any instance is in flight ([check_chosen] re-runs [pump] when
             the last one is chosen). A leader whose own vote is a quorum
             (the lone main [Remove_main] leaves at f = 1) chooses each
             instance in the step that proposes it, so it never has one in
             flight: it holds a partial batch until the end of the delivery
             burst instead, asking once for [on_burst_end], which runs after
             the burst's last input, so every command the burst brought
             joins the batch. (Holding there with two mains too cost
             udp_write throughput.) Linger: an idle leader may also hold a
             partial batch open briefly; the periodic tick re-runs [pump],
             so a lingering batch flushes within [batch_linger + tick]. *)
          let full =
            Queue.length lead.l_queue >= max_cmds || lead.l_queued_bytes >= max_bytes
          in
          let idle = Hashtbl.length lead.l_pending = 0 in
          let hold_to_burst_end =
            idle && (not full) && (not burst_end)
            && (not (Queue.is_empty lead.l_queue))
            && Config.is_quorum (Configs.config_for t.configs lead.l_next) [ t.self ]
          in
          if hold_to_burst_end && not lead.l_burst_asked then begin
            lead.l_burst_asked <- true;
            push t (Effect.At_burst_end burst_end_tag)
          end;
          let flush_now =
            full
            || idle && (not hold_to_burst_end)
               && (t.params.Params.batch_linger <= 0.
                  || now t -. lead.l_queue_since >= t.params.Params.batch_linger)
          in
          if flush_now then begin
            let cmds = take max_cmds 0 [] in
            if Queue.is_empty lead.l_queue then lead.l_queue_since <- infinity
            else lead.l_queue_since <- now t;
            match cmds with
            | [] -> ()
            | [ cmd ] ->
              let i = lead.l_next in
              lead.l_next <- i + 1;
              propose_at t lead i (Types.App cmd);
              progress := true
            | cmds ->
              let i = lead.l_next in
              lead.l_next <- i + 1;
              observe t "batch_size" (float_of_int (List.length cmds));
              propose_at t lead i (Types.Batch cmds);
              progress := true
          end
        end
      end
    done;
    lead.l_pumping <- false
  end

(* The step [pump] asked for at the end of a delivery burst. *)
let on_burst_end t =
  match t.state with
  | Leader lead ->
    lead.l_burst_asked <- false;
    pump ~burst_end:true t lead
  | Candidate _ | Follower -> ()

(* Propose a protocol-generated entry (reconfig) at the next free slot, if
   the window allows; returns whether it was proposed. *)
let propose_entry t lead entry =
  if (not lead.l_abdicate) && lead.l_next < Log.prefix t.log + Configs.alpha t.configs
  then begin
    let i = lead.l_next in
    lead.l_next <- i + 1;
    propose_at t lead i entry;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Elections                                                           *)
(* ------------------------------------------------------------------ *)

let send_p1a t (c : candidate) =
  c.c_last_send <- now t;
  let cfgs = Configs.covering t.configs ~low:c.c_low in
  (* Like phase 2, phase 1 first targets the mains only (a majority); the
     auxiliaries are brought in when the narrow attempt times out. *)
  let pick cfg =
    if t.policy.Policy.narrow_phase2 && not c.c_widened then cfg.Config.mains
    else Config.acceptors cfg
  in
  let targets =
    List.concat_map pick cfgs
    |> List.sort_uniq compare
    |> List.filter (fun id -> id <> t.self)
  in
  List.iter (fun dst -> send t dst (Types.P1a { ballot = c.c_ballot; low = c.c_low })) targets

let merge_vote (c : candidate) i (v : Types.vote) =
  match Hashtbl.find_opt c.c_votes i with
  | Some best when Ballot.(v.Types.vballot <= best.Types.vballot) -> ()
  | Some _ | None -> Hashtbl.replace c.c_votes i v

let become_candidate t =
  let ballot = Ballot.succ_for t.max_seen ~leader:t.self in
  t.max_seen <- ballot;
  let c =
    {
      c_ballot = ballot;
      c_low = Log.prefix t.log;
      c_promises = Hashtbl.create 8;
      c_votes = Hashtbl.create 16;
      c_started = now t;
      c_last_send = now t;
      c_max_compacted = 0;
      c_widened = false;
    }
  in
  t.state <- Candidate c;
  metric t "elections_started";
  event t
    (Obs.Event.Ballot_started
       { round = ballot.Ballot.round; leader = ballot.Ballot.leader; low = c.c_low });
  tracef t "candidate %a low=%d" Ballot.pp ballot c.c_low;
  (* Self-promise. *)
  let acc, res = Acceptor.handle_p1a t.acceptor ~ballot ~low:c.c_low in
  set_acceptor t acc;
  (match res with
  | Acceptor.Promise (votes, floor) ->
    Hashtbl.replace c.c_promises t.self floor;
    c.c_max_compacted <- max c.c_max_compacted floor;
    List.iter (fun (i, v) -> merge_vote c i v) votes
  | Acceptor.P1_nack _ -> ());
  send_p1a t c

(* Hearing from main [m] at our ballot proves it alive: restart its
   failure-detector clock and heartbeat count. *)
let heard t lead m = Hashtbl.replace lead.l_heard m (now t, 0)

let send_heartbeats t lead =
  lead.l_last_hb <- now t;
  List.iter
    (fun m ->
      if m <> t.self then begin
        let at, unanswered =
          Option.value (Hashtbl.find_opt lead.l_heard m) ~default:(lead.l_since, 0)
        in
        Hashtbl.replace lead.l_heard m (at, unanswered + 1);
        send t m
          (Types.Heartbeat
             { ballot = lead.l_ballot; commit_floor = Log.prefix t.log; sent_at = now t })
      end)
    t.universe_mains

let become_leader t (c : candidate) =
  let start = Log.prefix t.log in
  let max_vote = Hashtbl.fold (fun i _ acc -> max acc (i + 1)) c.c_votes 0 in
  let stop = max (max start max_vote) (Log.max_chosen t.log) in
  let lead =
    {
      l_ballot = c.c_ballot;
      l_pending = Hashtbl.create 32;
      l_next = start;
      l_queue = Queue.create ();
      l_queue_since = infinity;
      l_queued_bytes = 0;
      l_burst_asked = false;
      l_inflight_cmds = Hashtbl.create 32;
      l_backlog = Hashtbl.create 32;
      l_recover_hi = stop;
      l_pumping = false;
      l_reconfig_inflight = false;
      l_last_hb = now t;
      l_acks = Hashtbl.create 8;
      l_heard = Hashtbl.create 8;
      l_echo = Hashtbl.create 8;
      l_lease_held = false;
      l_reads = Queue.create ();
      l_suspected = Hashtbl.create 4;
      l_aux_floor_sent = 0;
      (* If phase 1 reached the auxiliaries they may hold votes up to any
         recovered instance (possibly left by the previous leader's
         engagement): keep pushing commit floors until past [stop]. *)
      l_aux_high = (if c.c_widened then stop else 0);
      l_engaged = c.c_widened;
      l_promised =
        (Hashtbl.copy c.c_promises |> fun h ->
         let out = Hashtbl.create (Hashtbl.length h) in
         Hashtbl.iter (fun id _ -> Hashtbl.replace out id ()) h;
         out);
      l_abdicate = false;
      l_since = now t;
    }
  in
  Hashtbl.iter
    (fun i (v : Types.vote) -> if i >= start then Hashtbl.replace lead.l_backlog i v.Types.ventry)
    c.c_votes;
  Queue.iter
    (fun cmd -> lead.l_queued_bytes <- lead.l_queued_bytes + Types.command_size cmd)
    t.pre_queue;
  Queue.transfer t.pre_queue lead.l_queue;
  if not (Queue.is_empty lead.l_queue) then lead.l_queue_since <- now t;
  t.state <- Leader lead;
  if t.leader_hint_ <> t.self then begin
    t.leader_hint_ <- t.self;
    event t (Obs.Event.Leader_changed { leader = t.self })
  end;
  metric t "elections_won";
  push t Effect.Span_reset;
  event t
    (Obs.Event.Ballot_won { round = c.c_ballot.Ballot.round; leader = c.c_ballot.Ballot.leader });
  if c.c_widened then event t (Obs.Event.Aux_engaged { instance = max 0 (stop - 1) });
  (* Requests held in [pre_queue] during the campaign were never recorded as
     submitted; stamp them now so their latency spans start at acceptance. *)
  Queue.iter
    (fun (cmd : Types.command) ->
      event t (Obs.Event.Command_submitted { client = cmd.Types.client; seq = cmd.Types.seq });
      push t
        (Effect.Span_submitted { client = cmd.Types.client; seq = cmd.Types.seq; at = now t }))
    lead.l_queue;
  tracef t "leader %a" Ballot.pp c.c_ballot;
  (* Re-propose recovered votes (gaps become Noop) — via [pump], which
     respects the α-window; anything beyond it drains as the prefix moves. *)
  pump t lead;
  send_heartbeats t lead

let try_finish_phase1 t (c : candidate) =
  let responders = Hashtbl.fold (fun id _ acc -> id :: acc) c.c_promises [] in
  let cfgs = Configs.covering t.configs ~low:c.c_low in
  let have_quorums = List.for_all (fun cfg -> Config.is_quorum cfg responders) cfgs in
  if have_quorums then begin
    if c.c_max_compacted > Log.prefix t.log then begin
      (* Some acceptor compacted instances we have not chosen yet; they are
         durably chosen on the mains — fetch them before leading. *)
      metric t "catchup_before_lead";
      Catchup.request_catchup t (Configs.latest t.configs).Config.mains
    end
    else become_leader t c
  end

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)
(* ------------------------------------------------------------------ *)

let on_p1b t ~from ~ballot ~votes ~compacted =
  match t.state with
  | Candidate c when Ballot.equal ballot c.c_ballot ->
    Hashtbl.replace c.c_promises from compacted;
    c.c_max_compacted <- max c.c_max_compacted compacted;
    List.iter (fun (i, v) -> if i >= Log.prefix t.log then merge_vote c i v) votes;
    try_finish_phase1 t c
  | Leader lead when Ballot.equal ballot lead.l_ballot -> heard t lead from
  | Candidate _ | Leader _ | Follower -> ()

let on_p2b t ~from ~ballot ~instance =
  match t.state with
  | Leader lead when Ballot.equal ballot lead.l_ballot -> begin
    heard t lead from;
    match Hashtbl.find_opt lead.l_pending instance with
    | None -> ()
    | Some p ->
      if not (List.mem from p.p_acks) then begin
        p.p_acks <- from :: p.p_acks;
        check_chosen t lead instance
      end
  end
  | Leader _ | Candidate _ | Follower -> ()

let on_nack t ~promised =
  if Ballot.(promised > t.max_seen) then begin
    match t.state with
    | Leader l when Ballot.(l.l_ballot < promised) -> step_down t promised
    | Candidate c when Ballot.(c.c_ballot < promised) -> step_down t promised
    | Leader _ | Candidate _ | Follower -> t.max_seen <- promised
  end

let on_heartbeat_ack t ~from ~ballot ~prefix ~echo =
  match t.state with
  | Leader lead when Ballot.equal ballot lead.l_ballot ->
    heard t lead from;
    Hashtbl.replace lead.l_acks from prefix;
    let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt lead.l_echo from) in
    if echo > prev then Hashtbl.replace lead.l_echo from echo;
    ignore (Lease.refresh_lease t lead ~reason:"expired");
    update_aux_floor t lead
  | Leader _ | Candidate _ | Follower -> ()

let on_join_req t ~from =
  match t.state with
  | Leader lead
    when t.policy.Policy.reconfigure
         && (not lead.l_reconfig_inflight)
         && (not (Config.is_main (Configs.latest t.configs) from))
         && List.length (Configs.latest t.configs).Config.mains < t.target_mains
         && List.mem from t.universe_mains ->
    if propose_entry t lead (Types.Reconfig (Types.Add_main from)) then begin
      lead.l_reconfig_inflight <- true;
      metric t "add_proposed"
    end
  | Leader _ | Candidate _ | Follower -> ()

(* ------------------------------------------------------------------ *)
(* Client paths                                                        *)
(* ------------------------------------------------------------------ *)

let on_client_req t (cmd : Types.command) =
  match t.state with
  | Leader lead -> begin
    let status =
      match Hashtbl.find_opt t.sessions cmd.client with
      | Some sess -> Session.status sess cmd.seq
      | None -> `New
    in
    match status with
    | `Cached result ->
      send t cmd.client (Types.ClientResp { client = cmd.client; seq = cmd.seq; result })
    | `Evicted -> () (* ancient duplicate: reply evicted, nothing to say *)
    | `New ->
      if
        t.params.Params.enable_leases
        && t.app.Appi.read_only cmd.op
        && (not (Hashtbl.mem lead.l_inflight_cmds (cmd.client, cmd.seq)))
        && Lease.refresh_lease t lead ~reason:"expired"
        && not (Lease.read_fenced t lead cmd)
      then
        (* Read-only and unfenced: answer locally even though the client used
           the ordered submit path — ordering it would buy nothing. *)
        Lease.serve_lease_read t cmd
      else if not (Hashtbl.mem lead.l_inflight_cmds (cmd.client, cmd.seq)) then begin
        if Queue.length lead.l_queue >= t.params.Params.queue_limit then
          (* Backpressure: the pipeline window is full and the queue is at
             capacity. Drop; the client's backoff retry re-offers it later. *)
          metric t "backpressure_drops"
        else begin
          event t (Obs.Event.Command_submitted { client = cmd.client; seq = cmd.seq });
          push t (Effect.Span_submitted { client = cmd.client; seq = cmd.seq; at = now t });
          if Queue.is_empty lead.l_queue then lead.l_queue_since <- now t;
          Queue.push cmd lead.l_queue;
          lead.l_queued_bytes <- lead.l_queued_bytes + Types.command_size cmd;
          pump t lead
        end
      end
  end
  | Candidate _ ->
    (* We may be about to win: hold the request instead of bouncing the
       client through a redirect-to-self cycle. *)
    if Queue.length t.pre_queue >= t.params.Params.queue_limit then
      metric t "backpressure_drops"
    else Queue.push cmd t.pre_queue
  | Follower -> send t cmd.client (Types.Redirect { leader_hint = t.leader_hint_ })

let on_client_read t (cmd : Types.command) =
  match t.state with
  | Leader lead ->
    if not (t.app.Appi.read_only cmd.op) then begin
      (* A mutating op on the read path would apply off-log and silently
         diverge this replica from the rest; force it through ordering. *)
      metric t "lease_rejects";
      on_client_req t cmd
    end
    else if Lease.refresh_lease t lead ~reason:"expired" then begin
      (* Local linearizable read: our applied state reflects every committed
         write, and no new leader can commit until the lease expires — but a
         fenced read must wait for the apply point it could observe. *)
      if Lease.read_fenced t lead cmd then begin
        metric t "lease_reads_deferred";
        Queue.push cmd lead.l_reads
      end
      else Lease.serve_lease_read t cmd
    end
    else begin
      metric t "lease_read_fallbacks";
      on_client_req t cmd
    end
  | Candidate _ ->
    if Queue.length t.pre_queue >= t.params.Params.queue_limit then
      metric t "backpressure_drops"
    else Queue.push cmd t.pre_queue
  | Follower -> send t cmd.client (Types.Redirect { leader_hint = t.leader_hint_ })

(* The tick's share of the deferred reads: with the lease lapsed, every
   parked read (fenced or not) goes through the ordered path. *)
let fall_back_deferred_reads t lead =
  let pending = Queue.create () in
  Queue.transfer lead.l_reads pending;
  Queue.iter
    (fun (cmd : Types.command) ->
      metric t "lease_read_fallbacks";
      on_client_req t cmd)
    pending

(* ------------------------------------------------------------------ *)
(* Tick: timeouts, retransmission, failure detection                   *)
(* ------------------------------------------------------------------ *)

let widen t lead i p =
  if not p.p_widened then begin
    p.p_widened <- true;
    event t (Obs.Event.Phase2_widened { instance = i });
    engage t lead ~instance:i;
    metric t "aux_engagements";
    observe t "aux_engaged_at" (now t);
    let auxes = active_auxes_for t i in
    List.iter
      (fun a ->
        if not (List.mem a p.p_acks) then
          send t a (Types.P2a { ballot = lead.l_ballot; instance = i; entry = p.p_entry }))
      auxes
  end

let retransmit_pending t lead =
  let t_now = now t in
  Hashtbl.iter
    (fun i p ->
      if
        t.policy.Policy.widen_on_timeout
        && (not p.p_widened)
        && t_now -. p.p_started > t.params.Params.widen_timeout
      then widen t lead i p;
      if t_now -. p.p_last_send > t.params.Params.retransmit then begin
        p.p_last_send <- t_now;
        let cfg = Configs.config_for t.configs i in
        let targets = phase2_targets t cfg ~widened:p.p_widened in
        List.iter
          (fun dst ->
            if not (List.mem dst p.p_acks) then
              send t dst (Types.P2a { ballot = lead.l_ballot; instance = i; entry = p.p_entry }))
          targets
      end)
    lead.l_pending

(* Refresh the leader's failure detector over the current mains. A main
   is suspected once we have not heard from it for [suspect_timeout] {e and}
   it has left that many heartbeat intervals' worth of our heartbeats
   unanswered. Heartbeats go out at the first tick [hb_interval] after the
   last, so at most [hb_interval + tick] apart: under regular ticks the
   count always holds once the time has passed, and the rule decides as
   the timeout alone would. After a stall of the leader's own (one late
   tick, one heartbeat sent) the count does not hold, so the leader's
   silence is not blamed on the peer. *)
let suspect_after_heartbeats (p : Params.t) =
  int_of_float ((p.Params.suspect_timeout /. (p.Params.hb_interval +. p.Params.tick)) +. 1e-9)

let update_suspects t lead =
  let cfg = Configs.latest t.configs in
  let t_now = now t in
  let needed = suspect_after_heartbeats t.params in
  Hashtbl.reset lead.l_suspected;
  List.iter
    (fun m ->
      if m <> t.self then begin
        let last, unanswered =
          Option.value (Hashtbl.find_opt lead.l_heard m) ~default:(lead.l_since, 0)
        in
        if t_now -. last > t.params.Params.suspect_timeout && unanswered >= needed then
          Hashtbl.replace lead.l_suspected m ()
      end)
    cfg.Config.mains

let suspect_mains t lead =
  update_suspects t lead;
  if t.policy.Policy.reconfigure && not lead.l_reconfig_inflight then begin
    let cfg = Configs.latest t.configs in
    let suspects = Hashtbl.fold (fun m () acc -> m :: acc) lead.l_suspected [] in
    match List.sort compare suspects with
    | m :: _ when List.length cfg.Config.mains > 1 ->
      if propose_entry t lead (Types.Reconfig (Types.Remove_main m)) then begin
        lead.l_reconfig_inflight <- true;
        metric t "remove_proposed";
        tracef t "suspect main %d -> propose removal" m
      end
    | _ :: _ | [] -> ()
  end

let maybe_join t =
  let cfg = Configs.latest t.configs in
  if
    t.role_ = Main
    && (not (Config.is_main cfg t.self))
    && List.length cfg.Config.mains < t.target_mains
    && now t -. t.last_join_sent >= t.params.Params.join_interval
  then begin
    t.last_join_sent <- now t;
    List.iter
      (fun m -> if m <> t.self then send t m (Types.JoinReq { from = t.self }))
      cfg.Config.mains
  end

(* Book the part of the gap since the last tick beyond two tick periods as
   this node's own stall. Regular ticks (at most two periods apart, as in
   the simulator and the UDP runtime's 1 ms wheel) book nothing, so the
   follower's election clock below is exactly the plain timeout; a 40 ms
   stall followed by one tick advances it by two periods, not 40 ms. *)
let note_tick t t_now =
  let gap = t_now -. t.last_tick in
  let regular = 2. *. t.params.Params.tick in
  if gap > regular then t.stalled <- t.stalled +. (gap -. regular);
  t.last_tick <- t_now

let on_tick t =
  let t_now = now t in
  note_tick t t_now;
  match t.state with
  | Leader lead ->
    if lead.l_abdicate then begin
      (* Re-campaign with a fresh ballot: the covering configurations now
         include the one our old phase 1 did not reach. If the executed
         reconfiguration removed us, we are not eligible — stay a follower. *)
      if lead.l_lease_held then begin
        lead.l_lease_held <- false;
        event t (Obs.Event.Lease_lost { reason = "abdicated" })
      end;
      t.state <- Follower;
      draw_fuzz t;
      touch_contact t;
      if Config.is_main (Configs.latest t.configs) t.self then become_candidate t
    end
    else begin
      if t_now -. lead.l_last_hb >= t.params.Params.hb_interval then send_heartbeats t lead;
      retransmit_pending t lead;
      suspect_mains t lead;
      pump t lead;
      ignore (Lease.refresh_lease t lead ~reason:"expired");
      drain_deferred_reads t lead ~lapsed:(fun () -> fall_back_deferred_reads t lead)
    end
  | Candidate c ->
    if t_now -. c.c_started > t.params.Params.leader_timeout then begin
      (* Candidacy stalled (competition or losses): retry with a higher ballot. *)
      t.state <- Follower;
      become_candidate t
    end
    else begin
      if
        t.policy.Policy.widen_on_timeout && (not c.c_widened)
        && t_now -. c.c_started > t.params.Params.widen_timeout
      then begin
        c.c_widened <- true;
        send_p1a t c
      end
      else if t_now -. c.c_last_send > t.params.Params.retransmit then send_p1a t c;
      try_finish_phase1 t c
    end
  | Follower ->
    let cfg = Configs.latest t.configs in
    if Config.is_main cfg t.self then begin
      if
        t_now -. t.last_leader_contact -. t.stalled
        > t.params.Params.leader_timeout +. t.election_fuzz
      then begin
        draw_fuzz t;
        become_candidate t
      end
    end
    else maybe_join t
