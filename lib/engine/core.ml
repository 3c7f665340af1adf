(* The composed sans-IO replica: routes every protocol input to its role
   module ({!Acceptor_core}, {!Leader}, {!Learner}, {!Catchup}, {!Lease})
   and owns construction/recovery. The core never performs IO — an
   interpreter (see {!Replica} for the runtime one) feeds it [Deliver] and
   [Timer] inputs and executes the returned {!Effect.t} list. *)

open Cp_proto
open State

type input =
  | Deliver of { src : int; msg : Types.msg }
  | Timer of { tag : string }

let rx_names = Array.map (fun kind -> "rx." ^ kind) Types.kinds

let dispatch t ~src (msg : Types.msg) =
  metric t (Array.unsafe_get rx_names (Types.kind_index msg));
  if t.role_ = Aux then observe t "aux_msg_at" (now t);
  match msg with
  | Types.P1a { ballot; low } -> Acceptor_core.on_p1a t ~src ~ballot ~low
  | Types.P1b { ballot; from; votes; compacted_upto } ->
    Leader.on_p1b t ~from ~ballot ~votes ~compacted:compacted_upto
  | Types.P1Nack { promised; _ } -> Leader.on_nack t ~promised
  | Types.P2a { ballot; instance; entry } -> Acceptor_core.on_p2a t ~src ~ballot ~instance ~entry
  | Types.P2b { ballot; instance; from } -> Leader.on_p2b t ~from ~ballot ~instance
  | Types.P2Nack { promised; _ } -> Leader.on_nack t ~promised
  | Types.Commit { instance; entry } -> Catchup.on_commit t ~instance ~entry
  | Types.CommitFloor { upto } -> Acceptor_core.on_commit_floor t ~upto
  | Types.Heartbeat { ballot; commit_floor; sent_at } ->
    Lease.on_heartbeat t ~src ~ballot ~commit_floor ~sent_at
  | Types.HeartbeatAck { ballot; from; prefix; echo } ->
    Leader.on_heartbeat_ack t ~from ~ballot ~prefix ~echo
  | Types.CatchupReq { from; from_instance } -> Catchup.on_catchup_req t ~src:from ~from_instance
  | Types.CatchupResp { entries; snapshot } ->
    Catchup.on_catchup_resp t ~entries ~snapshot;
    (* Re-evaluate a blocked candidacy now that the prefix may have moved.
       (Lives here, not in {!Catchup}, because the leader role sits above
       catch-up in the module stack.) *)
    if t.role_ = Main then begin
      match t.state with
      | Candidate c -> Leader.try_finish_phase1 t c
      | Leader _ | Follower -> ()
    end
  | Types.JoinReq { from } -> Leader.on_join_req t ~from
  | Types.ClientReq cmd -> Leader.on_client_req t cmd
  | Types.ClientRead cmd -> Leader.on_client_read t cmd
  | Types.ClientResp _ | Types.Redirect _ -> () (* client-bound; ignore *)

let on_timer t ~tag =
  match tag with
  | "tick" ->
    if t.role_ = Main then begin
      push t (Effect.Set_timer ("tick", t.params.Params.tick));
      Leader.on_tick t
    end
  | _ -> ()

let handle t = function
  | Deliver { src; msg } -> dispatch t ~src msg
  | Timer { tag } -> on_timer t ~tag

(* [step state ~now input] advances the whole replica and returns the state
   together with every effect the transition produced, in emission order. *)
let step t ~now:clock input =
  t.clock <- clock;
  handle t input;
  (t, drain t)

(* ------------------------------------------------------------------ *)
(* Construction and recovery                                           *)
(* ------------------------------------------------------------------ *)

(* Rebuild volatile state from the recovery image the interpreter read out
   of stable storage (the core itself never touches storage). *)
let recover t (recovery : recovery) =
  (match recovery.r_acceptor with
  | Some (promised, floor) ->
    (* Votes below the floor outlived a batch torn between the header and
       its drops: they are compacted, so drop them again. *)
    let live, stale = List.partition (fun (i, _) -> i >= floor) recovery.r_votes in
    t.acceptor <- Acceptor.import (promised, live, floor);
    List.iter (fun (i, _) -> push t (Effect.Drop_vote i)) stale
  | None -> ());
  if t.role_ = Main then begin
    (match recovery.r_snapshot with
    | Some stored ->
      let snap = Lazy.force stored.snap in
      t.app.Appi.restore snap.app_state;
      List.iter
        (fun (c, (floor, replies)) ->
          Hashtbl.replace t.sessions c (Session.import { Session.floor; replies }))
        snap.sessions;
      Configs.import t.configs ~base:snap.base_config ~at:snap.next_instance
        ~pending:snap.pending_configs;
      Log.reset_to t.log snap.next_instance;
      t.executed_ <- snap.next_instance;
      t.last_snapshot <- Some stored
    | None -> ());
    let entries =
      recovery.r_log
      |> List.filter (fun (i, _) -> i >= Log.base t.log)
      |> List.sort compare
    in
    List.iter (fun (i, e) -> ignore (Log.add_chosen t.log i e)) entries;
    Learner.execute_ready t
  end

let create ~self ~now ~rng ~role ~policy ~params ~initial ~universe_mains ~universe_auxes
    ~app:(module A : Appi.S) ~recovery =
  let t =
    {
      self;
      rng;
      clock = now;
      effects = Queue.create ();
      role_ = role;
      policy;
      params;
      universe_mains;
      universe_auxes;
      target_mains = List.length initial.Config.mains;
      app = Appi.instantiate (module A);
      app_module = (module A : Appi.S);
      acceptor = Acceptor.create ();
      log = Log.create ();
      configs = Configs.create ~alpha:params.Params.alpha ~initial;
      executed_ = 0;
      sessions = Hashtbl.create 16;
      state = Follower;
      pre_queue = Queue.create ();
      max_seen = Ballot.bottom;
      leader_hint_ = (match initial.Config.mains with m :: _ -> m | [] -> self);
      last_leader_contact = now;
      last_tick = now;
      stalled = 0.;
      election_fuzz = 0.;
      last_join_sent = neg_infinity;
      last_catchup_sent = neg_infinity;
      lease_gate_until = 0.;
      last_snapshot = None;
    }
  in
  draw_fuzz t;
  let had_state = recovery.r_had_state in
  (* A restarting main cannot know how recently it complied with a lease:
     re-arm the gate for a full guard period. *)
  if had_state && params.Params.enable_leases then
    t.lease_gate_until <- now +. params.Params.lease_guard;
  recover t recovery;
  if role = Main then begin
    push t (Effect.Set_timer ("tick", t.params.Params.tick));
    (* First boot: the smallest initial main campaigns immediately so that
       experiments start with a leader instead of a timeout. *)
    if (not had_state) && (match initial.Config.mains with m :: _ -> m = self | [] -> false)
    then Leader.become_candidate t
  end;
  (t, drain t)
