(* Acceptor role: phase-1 promises, phase-2 accepts, and vote compaction,
   lifted from the pure single-machine {!Acceptor} onto the replica state
   (persistence effects, lease gating, step-down on higher ballots).

   Sans-IO: every handler only mutates {!State.t} and queues effects. *)

open Cp_proto
open State

let on_p1a t ~src ~ballot ~low =
  if Ballot.(ballot < t.max_seen) then
    send t src (Types.P1Nack { ballot; promised = t.max_seen })
  else if
    (* Lease gate: a leader may be serving reads on the strength of our
       recent silence-compliance; refuse to enable a usurper until the
       guard has elapsed. Our own candidacy never reaches here (self-promise
       is local), and a crashed main re-arms the gate on recovery. *)
    t.params.Params.enable_leases
    && src <> t.leader_hint_
    && now t < t.lease_gate_until
  then begin
    metric t "lease_gated_p1a";
    send t src (Types.P1Nack { ballot; promised = t.max_seen })
  end
  else begin
    (match t.state with
    | Leader l when Ballot.(l.l_ballot < ballot) -> step_down t ballot
    | Candidate c when Ballot.(c.c_ballot < ballot) -> step_down t ballot
    | Leader _ | Candidate _ | Follower -> ());
    let acc, res = Acceptor.handle_p1a t.acceptor ~ballot ~low in
    set_acceptor t acc;
    match res with
    | Acceptor.Promise (votes, floor) ->
      if Ballot.(t.max_seen < ballot) then t.max_seen <- ballot;
      touch_contact t;
      send t src (Types.P1b { ballot; from = t.self; votes; compacted_upto = floor })
    | Acceptor.P1_nack promised -> send t src (Types.P1Nack { ballot; promised })
  end

let on_p2a t ~src ~ballot ~instance ~entry =
  note_leader_contact t ballot ballot.Ballot.leader;
  let acc, res = Acceptor.handle_p2a t.acceptor ~ballot ~instance ~entry in
  set_acceptor t acc;
  match res with
  | Acceptor.Accepted ->
    persist_vote t instance;
    (match t.state with
    | (Leader _ | Candidate _) when Ballot.(ballot > t.max_seen) -> step_down t ballot
    | Leader _ | Candidate _ | Follower -> ());
    send t src (Types.P2b { ballot; instance; from = t.self })
  | Acceptor.P2_nack promised -> send t src (Types.P2Nack { ballot; instance; promised })
  | Acceptor.Stale -> (
    (* Below our compaction floor: it is already chosen; a main can answer
       with the chosen entry to help the sender converge. *)
    match Log.get t.log instance with
    | Some chosen when t.role_ = Main -> send t src (Types.Commit { instance; entry = chosen })
    | Some _ | None -> ())

let on_commit_floor t ~upto =
  (* Auxiliaries compact up to the announced floor; mains cap it at their own
     chosen prefix (their log must keep covering their votes). *)
  let upto = if t.role_ = Main then min upto (Log.prefix t.log) else upto in
  if upto > Acceptor.compacted_upto t.acceptor then begin
    set_acceptor t (Acceptor.compact t.acceptor ~upto);
    metric t "compactions"
  end

(* The leader's local vote: it is its own first phase-2 acceptor whenever it
   is part of the instance's acceptor set. *)
let self_accept t ballot instance entry =
  let cfg = Configs.config_for t.configs instance in
  if Config.is_acceptor cfg t.self then begin
    let acc, res = Acceptor.handle_p2a t.acceptor ~ballot ~instance ~entry in
    set_acceptor t acc;
    match res with
    | Acceptor.Accepted ->
      persist_vote t instance;
      true
    | Acceptor.P2_nack _ | Acceptor.Stale -> false
  end
  else false
