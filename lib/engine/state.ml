(* Shared mutable state of the sans-IO replica core, plus the tiny helper
   vocabulary every role module writes against.

   This module performs no IO: [send]/[event]/[metric]/[persist_*] all just
   queue an {!Effect.t}. A role module mutates the state in place and pushes
   effects; the enclosing [step] (see {!Core} and the role modules) drains
   the queue at the step boundary and returns it to the interpreter. "Pure"
   here means IO-free and deterministic, not persistent: hashtables and
   queues inside [t] are mutated directly, exactly as the pre-split replica
   did, so behaviour (including hash iteration order) is preserved. *)

open Cp_proto
module Rng = Cp_util.Rng
module Obs = Cp_obs

type role = Main | Aux

(* ------------------------------------------------------------------ *)
(* Role-specific state                                                 *)
(* ------------------------------------------------------------------ *)

type candidate = {
  c_ballot : Ballot.t;
  c_low : int; (* phase 1 asks for votes at instances >= c_low *)
  c_promises : (int, int) Hashtbl.t; (* responder -> its compaction floor *)
  c_votes : (int, Types.vote) Hashtbl.t; (* best vote seen per instance *)
  mutable c_started : float;
  mutable c_last_send : float;
  mutable c_max_compacted : int;
  mutable c_widened : bool; (* phase 1 extended to the auxiliaries *)
}

type pending = {
  p_entry : Types.entry;
  mutable p_acks : int list;
  mutable p_widened : bool;
  p_started : float;
  mutable p_last_send : float;
}

type lead = {
  l_ballot : Ballot.t;
  l_pending : (int, pending) Hashtbl.t;
  mutable l_next : int;
  l_queue : Types.command Queue.t;
  mutable l_queue_since : float;
      (* when the oldest currently-queued command arrived ([infinity] while
         the queue is empty); the batch-linger clock *)
  mutable l_queued_bytes : int;
      (* sum of [Types.command_size] over [l_queue]: whether the queue holds
         a full batch, in O(1) *)
  mutable l_burst_asked : bool;
      (* a burst-end step is asked for and has not run yet
         ([Leader.on_burst_end]): ask once per burst *)
  l_inflight_cmds : (int * int, unit) Hashtbl.t; (* (client, seq) proposed, unexecuted *)
  l_backlog : (int, Types.entry) Hashtbl.t;
      (* phase-1 recovered votes not yet re-proposed: they must wait for the
         α-window so that every proposal's configuration is determined *)
  mutable l_recover_hi : int; (* instances < this need recovery re-proposal *)
  mutable l_pumping : bool; (* re-entrancy guard for [Leader.pump] *)
  mutable l_reconfig_inflight : bool;
  mutable l_last_hb : float;
  l_acks : (int, int) Hashtbl.t; (* main -> its prefix at its last heartbeat ack *)
  l_heard : (int, float * int) Hashtbl.t;
      (* main -> (when this leadership last heard from it — any P1b, P2b or
         heartbeat ack at our ballot —, heartbeats sent to it since): the
         failure detector's input (see [Leader.update_suspects]) *)
  l_echo : (int, float) Hashtbl.t;
      (* main -> latest heartbeat send-time it has echoed; the basis of the
         read lease (send times, never receipt times) *)
  mutable l_lease_held : bool;
      (* last reported lease_valid edge; drives Lease_acquired/Lease_lost *)
  l_reads : Types.command Queue.t;
      (* read-only commands fenced behind the apply point of writes they
         could observe; served when those writes execute, or sent down the
         ordered path by the tick if the lease lapsed *)
  l_suspected : (int, unit) Hashtbl.t;
      (* mains currently failing the leader's failure detector; while any
         main is suspected, new proposals are widened to the auxiliaries
         immediately rather than after [widen_timeout] *)
  mutable l_aux_floor_sent : int;
  mutable l_aux_high : int;
      (* one past the highest instance ever pushed to an auxiliary; the
         engagement is over once the announced floor passes it *)
  mutable l_engaged : bool; (* auxiliaries hold uncompacted votes *)
  l_promised : (int, unit) Hashtbl.t;
      (* acceptors whose phase-1 promise this leadership holds. A leader may
         only propose at an instance whose configuration these responders
         cover: its phase-1 quorum (taken under the configs it knew as a
         candidate) need not intersect the quorums of a configuration it
         discovers later, so proposing there could overwrite chosen values. *)
  mutable l_abdicate : bool;
      (* set when an executed reconfiguration yields a config [l_promised]
         does not cover: stop proposing and re-campaign at the next tick, so
         phase 1 is redone with the new config in scope *)
  l_since : float;
}

type rstate =
  | Follower
  | Candidate of candidate
  | Leader of lead

(* ------------------------------------------------------------------ *)
(* Stored snapshot and recovery image                                  *)
(* ------------------------------------------------------------------ *)

(* A main's snapshot as it went to stable storage: the stable bytes, and
   the snapshot they encode, decoded only when a catch-up needs it. *)
type stored_snapshot = {
  snap_bytes : string; (* [Codec.encode_stable_snapshot] of [snap] *)
  snap : Types.snapshot Lazy.t;
}

let stored_of_bytes bytes =
  {
    snap_bytes = bytes;
    snap =
      lazy
        (match Codec.decode_stable_snapshot bytes with
        | Ok s -> s
        | Error e -> invalid_arg ("State.stored_of_bytes: " ^ e));
  }

(* [bytes], when given, are the snapshot's encoding as read back from
   storage; otherwise the snapshot is encoded here, once. *)
let stored_of_snapshot ?bytes (s : Types.snapshot) =
  {
    snap_bytes = (match bytes with Some b -> b | None -> Codec.encode_stable_snapshot s);
    snap = Lazy.from_val s;
  }

(* What the interpreter read from stable storage before building the core:
   the core itself never touches storage, it is handed this image once. *)
type recovery = {
  r_acceptor : (Ballot.t * int) option; (* acceptor header: (promise, floor) *)
  r_votes : (int * Types.vote) list; (* every persisted vote, any order *)
  r_snapshot : stored_snapshot option; (* decoded by the interpreter *)
  r_log : (int * Types.entry) list; (* every persisted chosen entry, any order *)
  r_had_state : bool; (* acceptor header existed: this is a restart *)
}

let fresh_boot =
  { r_acceptor = None; r_votes = []; r_snapshot = None; r_log = []; r_had_state = false }

(* ------------------------------------------------------------------ *)
(* The replica core                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  self : int;
  rng : Rng.t; (* node-local randomness (election fuzz only) *)
  mutable clock : float; (* set by the interpreter before every step *)
  effects : Effect.t Queue.t; (* accumulated this step; drained at the boundary *)
  role_ : role;
  policy : Policy.t;
  params : Params.t;
  universe_mains : int list;
  universe_auxes : int list;
  target_mains : int;
      (* size of the initial main set: machines outside the configuration
         volunteer (JoinReq) only while the config is below this strength,
         so spares stand by until a failure actually degrades the system *)
  app : Appi.instance;
  app_module : (module Appi.S); (* kept so {!clone} can re-instantiate *)
  mutable acceptor : Acceptor.t;
  log : Log.t;
  configs : Configs.t;
  mutable executed_ : int;
  sessions : (int, Session.t) Hashtbl.t;
  mutable state : rstate;
  pre_queue : Types.command Queue.t;
      (* client requests received while campaigning; drained into the leader
         queue on victory, discarded on defeat (clients retry) *)
  mutable max_seen : Ballot.t;
  mutable leader_hint_ : int;
  mutable last_leader_contact : float;
  mutable last_tick : float; (* the later of the last tick and [last_leader_contact] *)
  mutable stalled : float;
      (* time since [last_leader_contact] lost to this node's own stalls:
         each gap between its ticks beyond two tick periods. A follower's
         election clock leaves it out, so its own stall is not mistaken for
         the leader's silence *)
  mutable election_fuzz : float;
  mutable last_join_sent : float;
  mutable last_catchup_sent : float;
  mutable lease_gate_until : float;
      (* while [clock < lease_gate_until] a main refuses phase-1 promises:
         some leader may be serving lease reads on our silence. Advanced on
         every leader contact and on recovery; 0 on a fresh boot. *)
  mutable last_snapshot : stored_snapshot option;
      (* in-memory mirror of the durably stored snapshot, so serving catchup
         does not need a storage read inside the pure core *)
}

(* ------------------------------------------------------------------ *)
(* Effect plumbing and small helpers                                   *)
(* ------------------------------------------------------------------ *)

let push t eff = Queue.push eff t.effects

let drain t =
  let effs = List.rev (Queue.fold (fun acc eff -> eff :: acc) [] t.effects) in
  Queue.clear t.effects;
  effs

let now t = t.clock

let send t dst msg = push t (Effect.Send (dst, msg))

let event t ev = push t (Effect.Emit ev)

let tracef t fmt = Format.kasprintf (fun s -> event t (Obs.Event.Debug s)) fmt

let obs_change = function
  | Types.Remove_main m -> Obs.Event.Remove_main m
  | Types.Add_main m -> Obs.Event.Add_main m

let metric t ?(by = 1) name = push t (Effect.Metric (name, by))

let observe t name v = push t (Effect.Observe (name, v))

let is_leader t = match t.state with Leader _ -> true | Follower | Candidate _ -> false

let draw_fuzz t = t.election_fuzz <- Rng.float t.rng t.params.Params.election_fuzz

(* Heard from a leader (or granted a promise): restart the election clock. *)
let touch_contact t =
  t.last_leader_contact <- now t;
  t.last_tick <- now t;
  t.stalled <- 0.

(* ------------------------------------------------------------------ *)
(* Persistence (as effects)                                            *)
(* ------------------------------------------------------------------ *)

(* Acceptor persistence is incremental, so the bytes written per accept do
   not grow with the votes held. [set_acceptor] installs a new acceptor
   value and queues its durable delta: the header (promise, floor) if either
   moved, then one [Drop_vote] per vote the floor discarded. The header goes
   first, so a batch torn between the two never loses a vote at or above
   the durable floor (recovery ignores leftover votes below it). *)
let set_acceptor t acc =
  let old = t.acceptor in
  t.acceptor <- acc;
  let promised = Acceptor.promised acc and floor = Acceptor.compacted_upto acc in
  if
    (not (Ballot.equal promised (Acceptor.promised old)))
    || floor <> Acceptor.compacted_upto old
  then begin
    push t (Effect.Persist_header (promised, floor));
    List.iter (fun i -> push t (Effect.Drop_vote i)) (Acceptor.instances_below old ~upto:floor)
  end

(* One accepted vote, after the header [set_acceptor] queued for it. *)
let persist_vote t instance =
  Option.iter
    (fun v -> push t (Effect.Persist_vote (instance, v)))
    (Acceptor.vote_at t.acceptor instance)

let persist_log_entry t i entry = push t (Effect.Persist_log (i, entry))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let session_for t client =
  match Hashtbl.find_opt t.sessions client with
  | Some s -> s
  | None ->
    let s = Session.create () in
    Hashtbl.add t.sessions client s;
    s

(* ------------------------------------------------------------------ *)
(* Leadership transitions shared by every role module                  *)
(* ------------------------------------------------------------------ *)

let step_down t ballot =
  if Ballot.(t.max_seen < ballot) then t.max_seen <- ballot;
  (match t.state with
  | Leader _ | Candidate _ ->
    (match t.state with
    | Leader lead when lead.l_lease_held ->
      lead.l_lease_held <- false;
      event t (Obs.Event.Lease_lost { reason = "stepped_down" })
      (* Deferred reads die with the leadership ([l_reads] is unreachable
         once the state changes); clients time out and retry elsewhere. *)
    | Leader _ | Candidate _ | Follower -> ());
    tracef t "step down for %a" Ballot.pp ballot;
    event t
      (Obs.Event.Stepped_down { round = ballot.Ballot.round; leader = ballot.Ballot.leader });
    push t Effect.Span_reset;
    t.state <- Follower;
    Queue.clear t.pre_queue;
    draw_fuzz t
  | Follower -> ());
  touch_contact t

let note_leader_contact t ballot src =
  if Ballot.(t.max_seen <= ballot) then begin
    t.max_seen <- ballot;
    if t.leader_hint_ <> src then begin
      t.leader_hint_ <- src;
      event t (Obs.Event.Leader_changed { leader = src })
    end;
    touch_contact t;
    if t.params.Params.enable_leases then
      t.lease_gate_until <- now t +. t.params.Params.lease_guard
  end

(* ------------------------------------------------------------------ *)
(* Deep copy and canonical fingerprint (model checking)                *)
(* ------------------------------------------------------------------ *)

let clone_candidate c =
  { c with c_promises = Hashtbl.copy c.c_promises; c_votes = Hashtbl.copy c.c_votes }

let clone_pending p = { p with p_acks = p.p_acks }

let clone_lead l =
  let pending = Hashtbl.create (max 1 (Hashtbl.length l.l_pending)) in
  Hashtbl.iter (fun i p -> Hashtbl.replace pending i (clone_pending p)) l.l_pending;
  {
    l with
    l_pending = pending;
    l_queue = Queue.copy l.l_queue;
    l_inflight_cmds = Hashtbl.copy l.l_inflight_cmds;
    l_backlog = Hashtbl.copy l.l_backlog;
    l_acks = Hashtbl.copy l.l_acks;
    l_heard = Hashtbl.copy l.l_heard;
    l_echo = Hashtbl.copy l.l_echo;
    l_reads = Queue.copy l.l_reads;
    l_suspected = Hashtbl.copy l.l_suspected;
    l_promised = Hashtbl.copy l.l_promised;
  }

let clone_rstate = function
  | Follower -> Follower
  | Candidate c -> Candidate (clone_candidate c)
  | Leader l -> Leader (clone_lead l)

(* An independent deep copy: stepping the clone never affects the original.
   Used by the deep model checker to branch the state space. The application
   is cloned through its own snapshot/restore pair. *)
let clone t =
  let app = Appi.instantiate t.app_module in
  app.Appi.restore (t.app.Appi.snapshot ());
  let sessions = Hashtbl.create (max 1 (Hashtbl.length t.sessions)) in
  Hashtbl.iter (fun c s -> Hashtbl.replace sessions c (Session.copy s)) t.sessions;
  {
    self = t.self;
    rng = Rng.copy t.rng;
    clock = t.clock;
    effects = Queue.copy t.effects;
    role_ = t.role_;
    policy = t.policy;
    params = t.params;
    universe_mains = t.universe_mains;
    universe_auxes = t.universe_auxes;
    target_mains = t.target_mains;
    app;
    app_module = t.app_module;
    acceptor = t.acceptor;
    log = Log.copy t.log;
    configs = Configs.copy t.configs;
    executed_ = t.executed_;
    sessions;
    state = clone_rstate t.state;
    pre_queue = Queue.copy t.pre_queue;
    max_seen = t.max_seen;
    leader_hint_ = t.leader_hint_;
    last_leader_contact = t.last_leader_contact;
    last_tick = t.last_tick;
    stalled = t.stalled;
    election_fuzz = t.election_fuzz;
    last_join_sent = t.last_join_sent;
    last_catchup_sent = t.last_catchup_sent;
    lease_gate_until = t.lease_gate_until;
    last_snapshot = t.last_snapshot;
  }

let sorted_bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let queue_list q = List.of_seq (Queue.to_seq q)

(* Canonical byte string of everything behaviour-relevant, independent of
   hashtable layout (bindings are sorted first). The RNG is excluded: the
   checker zeroes [election_fuzz], making behaviour RNG-independent. *)
let fingerprint t =
  let buf = Buffer.create 512 in
  let add v = Buffer.add_string buf (Marshal.to_string v []) in
  add (Acceptor.export t.acceptor);
  add
    ( Log.base t.log,
      Log.prefix t.log,
      Log.range t.log ~lo:(Log.base t.log) ~hi:(Log.max_chosen t.log) );
  add (Configs.timeline t.configs);
  add t.executed_;
  add
    (Hashtbl.fold (fun c s acc -> (c, Session.export s) :: acc) t.sessions []
    |> List.sort compare);
  (match t.state with
  | Follower -> add 0
  | Candidate c ->
    add 1;
    add
      ( c.c_ballot,
        c.c_low,
        sorted_bindings c.c_promises,
        sorted_bindings c.c_votes,
        c.c_started,
        c.c_last_send,
        c.c_max_compacted,
        c.c_widened )
  | Leader l ->
    add 2;
    add
      ( l.l_ballot,
        sorted_bindings l.l_pending
        |> List.map (fun (i, p) ->
               (i, p.p_entry, List.sort compare p.p_acks, p.p_widened, p.p_started,
                p.p_last_send)),
        l.l_next,
        queue_list l.l_queue,
        l.l_queue_since,
        l.l_burst_asked,
        sorted_bindings l.l_inflight_cmds,
        sorted_bindings l.l_backlog,
        l.l_recover_hi );
    add
      ( l.l_reconfig_inflight,
        l.l_last_hb,
        sorted_bindings l.l_acks,
        sorted_bindings l.l_heard,
        sorted_bindings l.l_echo,
        l.l_lease_held,
        queue_list l.l_reads,
        sorted_bindings l.l_suspected );
    add
      ( l.l_aux_floor_sent,
        l.l_aux_high,
        l.l_engaged,
        sorted_bindings l.l_promised,
        l.l_abdicate,
        l.l_since ));
  add (queue_list t.pre_queue);
  add
    ( t.max_seen,
      t.leader_hint_,
      t.last_leader_contact,
      t.last_tick,
      t.stalled,
      t.election_fuzz,
      t.last_join_sent,
      t.last_catchup_sent,
      t.lease_gate_until,
      t.clock );
  add (t.app.Appi.snapshot ());
  add (Option.map (fun s -> s.snap_bytes) t.last_snapshot);
  Buffer.contents buf
