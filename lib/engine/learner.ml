(* Learner role: recording chosen entries, executing the contiguous prefix
   through the application, session-based at-most-once replies, snapshots,
   and snapshot installation during state transfer.

   Sans-IO: every handler only mutates {!State.t} and queues effects. *)

open Cp_proto
open State

(* The stable bytes of a snapshot at [t.executed_], in one pass: the app
   state is copied in and every session's kept reply bytes are copied in
   ({!Session.write_image}); nothing is decoded or re-encoded. Sessions go
   in the order of the [Hashtbl.fold] below, so the bytes match what
   encoding the [Types.snapshot] built by that fold would give. *)
let encode_snapshot t =
  let next = t.executed_ in
  let base_config, pending_configs = Configs.export t.configs ~next in
  Codec.encode_stable_snapshot_with ~next_instance:next ~app_state:(t.app.Appi.snapshot ())
    ~sessions:(Hashtbl.fold (fun c sess acc -> (c, sess) :: acc) t.sessions [])
    ~session_size:Session.image_size ~write_session:Session.write_image ~base_config
    ~pending_configs

let maybe_snapshot t =
  if t.role_ = Main && t.executed_ - Log.base t.log >= t.params.Params.snapshot_every
  then begin
    let at = t.executed_ in
    let bytes = encode_snapshot t in
    t.last_snapshot <- Some (stored_of_bytes bytes);
    push t (Effect.Persist_snapshot { at; bytes });
    for i = Log.base t.log to t.executed_ - 1 do
      push t (Effect.Drop_log i)
    done;
    Log.truncate_below t.log t.executed_;
    (* A main may compact its own votes below its chosen prefix: the log and
       snapshot durably cover those instances. *)
    set_acceptor t (Acceptor.compact t.acceptor ~upto:(Log.prefix t.log));
    metric t "snapshots"
  end

(* Execute one chosen command with at-most-once semantics: a new seq is
   applied and its reply recorded, a replay whose reply is still cached
   gets it again, and a replay evicted from the session window gets none.
   Only the leader answers the client. *)
let exec_cmd t (cmd : Types.command) =
  let sess = session_for t cmd.client in
  let reply =
    match Session.status sess cmd.seq with
    | `New ->
      let result = t.app.Appi.apply cmd.op in
      Session.record sess ~window:t.params.Params.session_window cmd.seq result;
      metric t "applied";
      Some result
    | `Cached result -> Some result
    | `Evicted -> None (* ancient duplicate; the reply is gone *)
  in
  match t.state with
  | Leader lead -> (
    Hashtbl.remove lead.l_inflight_cmds (cmd.client, cmd.seq);
    match reply with
    | Some result ->
      send t cmd.client (Types.ClientResp { client = cmd.client; seq = cmd.seq; result })
    | None -> ())
  | Follower | Candidate _ -> ()

let exec_reconfig t r =
  match Configs.apply_at t.configs ~at:t.executed_ r with
  | None -> metric t "reconfig_rejected"
  | Some cfg -> (
    tracef t "reconfig at %d -> %a" t.executed_ Config.pp cfg;
    metric t
      (match r with
      | Types.Remove_main _ -> "reconfig_remove"
      | Types.Add_main _ -> "reconfig_add");
    observe t "reconfig_at" (now t);
    event t (Obs.Event.Reconfig_committed { change = obs_change r; at = t.executed_ });
    match t.state with
    | Leader lead ->
      lead.l_reconfig_inflight <- false;
      (* Safety: we may only propose at instances governed by [cfg] if our
         phase-1 responders cover it; otherwise re-campaign so phase 1 is
         redone over the union of configurations. *)
      let responders = Hashtbl.fold (fun id () acc -> id :: acc) lead.l_promised [] in
      if not (Config.is_quorum cfg responders) then begin
        lead.l_abdicate <- true;
        metric t "abdications";
        tracef t "abdicating: phase-1 coverage lost for %a" Config.pp cfg
      end
    | Follower | Candidate _ -> ())

let execute_ready t =
  if t.role_ = Main then begin
    while t.executed_ < Log.prefix t.log do
      (match Log.get t.log t.executed_ with
      | None -> assert false
      | Some (Types.App cmd) -> exec_cmd t cmd
      | Some (Types.Batch cmds) -> List.iter (exec_cmd t) cmds
      | Some Types.Noop -> ()
      | Some (Types.Reconfig r) -> exec_reconfig t r);
      event t (Obs.Event.Command_executed { instance = t.executed_ });
      push t (Effect.Span_executed { instance = t.executed_; at = now t });
      t.executed_ <- t.executed_ + 1
    done;
    maybe_snapshot t
  end

(* Record an entry as chosen; returns true if it was news. *)
let learn t i entry =
  if t.role_ <> Main then false
  else begin
    let fresh = Log.add_chosen t.log i entry in
    if fresh then begin
      persist_log_entry t i entry;
      metric t "learned";
      execute_ready t
    end;
    fresh
  end

let install_snapshot t (snap : Types.snapshot) =
  if snap.next_instance > t.executed_ then begin
    tracef t "install snapshot at %d" snap.next_instance;
    t.app.Appi.restore snap.app_state;
    Hashtbl.reset t.sessions;
    List.iter
      (fun (c, (floor, replies)) ->
        Hashtbl.replace t.sessions c (Session.import { Session.floor; replies }))
      snap.sessions;
    Configs.import t.configs ~base:snap.base_config ~at:snap.next_instance
      ~pending:snap.pending_configs;
    (* Drop persisted log entries below the snapshot. *)
    for i = Log.base t.log to Log.max_chosen t.log do
      if i < snap.next_instance then push t (Effect.Drop_log i)
    done;
    Log.reset_to t.log snap.next_instance;
    t.executed_ <- snap.next_instance;
    let stored = stored_of_snapshot snap in
    t.last_snapshot <- Some stored;
    push t (Effect.Persist_snapshot { at = snap.next_instance; bytes = stored.snap_bytes });
    metric t "snapshot_installs"
  end
