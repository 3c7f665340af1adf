(* Lease role: the leader-lease lifecycle and the local-read fast path.
   Granting side: heartbeat echoes and the promise-refusal gate (the gate
   check itself sits in {!Acceptor_core.on_p1a}, armed via
   [State.note_leader_contact]). Holding side: validity over heartbeat
   echoes, the acquired/lost edge, read fencing, and local serving.

   Sans-IO: every handler only mutates {!State.t} and queues effects. *)

open Cp_proto
open State

(* The lease holds while every main of every configuration still governing
   instances ≥ our prefix has echoed a heartbeat sent within the last
   (1 - lease_margin) * guard. Any usurper that could commit a write is a
   main of one of those configurations (its own quorums each contain such a
   main, and the candidate itself is one), and a main only cooperates with a
   usurper — or campaigns — once its own leader contact is older than the
   full guard; the lease_margin * guard difference is the clock-skew safety
   margin. Using only the *latest* config here would be unsound: during a
   reconfiguration window a removed (but possibly alive) main still belongs
   to the governing config and could win an election through the
   auxiliaries. *)
let lease_valid t lead =
  t.params.Params.enable_leases
  &&
  let deadline =
    now t -. ((1. -. t.params.Params.lease_margin) *. t.params.Params.lease_guard)
  in
  let fresh m =
    m = t.self
    ||
    match Hashtbl.find_opt lead.l_echo m with
    | Some echoed -> echoed >= deadline
    | None -> false
  in
  (* Runs on every lease read: walk the covering configs in place rather
     than collect their mains (a main in two configs is checked twice). *)
  Configs.for_all_covering t.configs ~low:(Log.prefix t.log) (fun c ->
      List.for_all fresh c.Config.mains)

(* Re-evaluate the lease and report the edge; returns its current validity. *)
let refresh_lease t lead ~reason =
  let valid = lease_valid t lead in
  if valid && not lead.l_lease_held then begin
    lead.l_lease_held <- true;
    event t (Obs.Event.Lease_acquired { round = lead.l_ballot.Ballot.round })
  end
  else if (not valid) && lead.l_lease_held then begin
    lead.l_lease_held <- false;
    event t (Obs.Event.Lease_lost { reason })
  end;
  valid

(* Fence: a lease read must not be served ahead of the apply point of any
   write it could have observed. Two cases: (a) a fresh leadership whose
   phase-1 recovered instances are not all executed yet — local state may
   miss writes completed under the predecessor; (b) an earlier command from
   the same client still queued or in flight — the client issued it first,
   so program order requires the read to see it. Writes from *other* clients
   still in flight are concurrent with this read, so serving before they
   apply is a legal linearization (they only reply after execution).
   A fenced read parks in [l_reads]; the leader serves it in the step that
   executes the write it waits on ({!Leader.drain_deferred_reads}), and
   only if the lease has lapsed by then does the tick send it down the
   ordered path. *)
exception Fenced

let read_fenced t lead (cmd : Types.command) =
  t.executed_ < lead.l_recover_hi
  ||
  (* Stop at the first earlier command of the client's, queued or in flight. *)
  let earlier client seq =
    if client = cmd.client && seq < cmd.seq then raise_notrace Fenced
  in
  match
    Hashtbl.iter (fun (c, s) () -> earlier c s) lead.l_inflight_cmds;
    Queue.iter (fun (q : Types.command) -> earlier q.client q.seq) lead.l_queue
  with
  | () -> false
  | exception Fenced -> true

let serve_lease_read t (cmd : Types.command) =
  metric t "lease_reads";
  event t
    (Obs.Event.Lease_read_served { client = cmd.client; seq = cmd.seq; upto = t.executed_ });
  let result = t.app.Appi.apply cmd.op in
  send t cmd.client (Types.ClientResp { client = cmd.client; seq = cmd.seq; result })

(* Follower side of the heartbeat: acknowledge (echoing the send timestamp,
   which is what makes the leader's lease clock skew-tolerant), note the
   contact, and use the commit floor to detect gaps. *)
let on_heartbeat t ~src ~ballot ~commit_floor ~sent_at =
  if Ballot.(ballot >= t.max_seen) then begin
    (match t.state with
    | Leader l when Ballot.(l.l_ballot < ballot) -> step_down t ballot
    | Candidate c when Ballot.(c.c_ballot < ballot) -> step_down t ballot
    | Leader _ | Candidate _ | Follower -> ());
    note_leader_contact t ballot src;
    send t src
      (Types.HeartbeatAck
         { ballot; from = t.self; prefix = Log.prefix t.log; echo = sent_at });
    Catchup.maybe_catchup t ~their_floor:commit_floor
  end
