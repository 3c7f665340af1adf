(* Unit tests for the sans-IO role modules: each case builds a pure core via
   [Core.create] (no engine, no IO), calls one role's handler through [step]
   with crafted arguments, and asserts on the returned effect list and the
   mutated state. *)

open Cp_proto
module State = Cp_engine.State
module Core = Cp_engine.Core
module Effect = Cp_engine.Effect
module Acceptor_core = Cp_engine.Acceptor_core
module Leader = Cp_engine.Leader
module Learner = Cp_engine.Learner
module Catchup = Cp_engine.Catchup
module Lease = Cp_engine.Lease
module Policy = Cp_engine.Policy
module Params = Cp_engine.Params
module Log = Cp_engine.Log
module Rng = Cp_util.Rng

module Toy = struct
  type state = string ref

  let name = "toy"

  let init () = ref ""

  let apply st op =
    st := !st ^ op;
    "r:" ^ op

  let read_only op = String.length op > 0 && op.[0] = '?'

  let snapshot st = !st

  let restore s = ref s
end

let policy =
  { Policy.name = "test"; narrow_phase2 = true; widen_on_timeout = true; reconfigure = false }

(* f = 1: mains {0, 1}, auxiliary {2}. Node 0 campaigns at creation (fresh
   boot, smallest main); node 1 boots a follower; node 2 boots an aux. *)
let mk ?(self = 0) ?(role = State.Main) ?(params = Params.default) ?(policy = policy)
    ?(app = (module Toy : Appi.S)) () =
  let initial = Config.cheap ~f:1 in
  Core.create ~self ~now:0. ~rng:(Rng.create (self + 7)) ~role ~policy ~params ~initial
    ~universe_mains:initial.Config.mains ~universe_auxes:initial.Config.aux_pool ~app
    ~recovery:State.fresh_boot

(* Run one role handler at [now], the way [Core.step] runs a whole input:
   returns the state and every effect the handler produced, in emission
   order. *)
let step t ~now f =
  t.State.clock <- now;
  f t;
  (t, State.drain t)

let sends_to dst effects =
  Effect.sends effects |> List.filter_map (fun (d, m) -> if d = dst then Some m else None)

(* The stable-storage effects of a step, in emission order. *)
let persists effects =
  List.filter
    (function
      | Effect.Persist_header _ | Effect.Persist_vote _ | Effect.Drop_vote _
      | Effect.Persist_log _ | Effect.Persist_snapshot _ | Effect.Drop_log _ ->
        true
      | _ -> false)
    effects

let pp_persists effects = Format.asprintf "[%a]" (Format.pp_print_list Effect.pp) effects

let ballot0 = Ballot.succ_for Ballot.bottom ~leader:0

let entry_n n = Types.App { Types.client = 9; seq = n + 1; op = "x" }

(* A core that has accepted votes at [ballot0] for instances 0..n-1; by
   default the auxiliary (node 2). *)
let with_votes ?(self = 2) ?(role = State.Aux) ?params n =
  let t, _ = mk ~self ~role ?params () in
  let t = ref t in
  for i = 0 to n - 1 do
    let t', _ =
      step !t ~now:0.1 (fun t ->
          Acceptor_core.on_p2a t ~src:0 ~ballot:ballot0 ~instance:i ~entry:(entry_n i))
    in
    t := t'
  done;
  !t

(* --- acceptor ----------------------------------------------------------- *)

let test_acceptor_promise () =
  let t, _ = mk ~self:1 () in
  let t, effs =
    step t ~now:0.1 (fun t -> Acceptor_core.on_p1a t ~src:0 ~ballot:ballot0 ~low:0)
  in
  (match sends_to 0 effs with
  | [ Types.P1b { ballot; from; votes; compacted_upto } ] ->
    Alcotest.(check bool) "same ballot" true (Ballot.equal ballot ballot0);
    Alcotest.(check int) "from self" 1 from;
    Alcotest.(check int) "no votes yet" 0 (List.length votes);
    Alcotest.(check int) "floor 0" 0 compacted_upto
  | _ -> Alcotest.fail "expected exactly one P1b to src");
  (match persists effs with
  | [ Effect.Persist_header (b, 0) ] when Ballot.equal b ballot0 -> ()
  | p -> Alcotest.fail ("expected only the header: " ^ pp_persists p));
  Alcotest.(check bool) "promise recorded" true (Ballot.equal t.State.max_seen ballot0)

let test_acceptor_stale_nack () =
  let t, _ = mk ~self:1 () in
  let high = Ballot.succ_for ballot0 ~leader:1 in
  let t, _ = step t ~now:0.1 (fun t -> Acceptor_core.on_p1a t ~src:1 ~ballot:high ~low:0) in
  let _, effs =
    step t ~now:0.2 (fun t -> Acceptor_core.on_p1a t ~src:0 ~ballot:ballot0 ~low:0)
  in
  match sends_to 0 effs with
  | [ Types.P1Nack { promised; _ } ] ->
    Alcotest.(check bool) "nack carries the higher promise" true (Ballot.equal promised high)
  | _ -> Alcotest.fail "expected exactly one P1Nack"

let test_acceptor_p2a_accept () =
  (* A P2a above the promise raises it: the header, then the vote. *)
  let t, _ = mk ~self:2 ~role:State.Aux () in
  let entry = entry_n 0 in
  let _, effs =
    step t ~now:0.1 (fun t ->
        Acceptor_core.on_p2a t ~src:0 ~ballot:ballot0 ~instance:0 ~entry)
  in
  (match sends_to 0 effs with
  | [ Types.P2b { instance = 0; from = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one P2b to the proposer");
  match persists effs with
  | [ Effect.Persist_header (b, 0); Effect.Persist_vote (0, v) ]
    when Ballot.equal b ballot0 && Ballot.equal v.Types.vballot ballot0 && v.Types.ventry = entry
    ->
    ()
  | p -> Alcotest.fail ("expected the header, then the vote: " ^ pp_persists p)

let test_acceptor_p2a_vote_only () =
  (* At the already-promised ballot only the one vote is written, however
     many votes the acceptor holds. *)
  let t = with_votes 5 in
  let _, effs =
    step t ~now:0.2 (fun t ->
        Acceptor_core.on_p2a t ~src:0 ~ballot:ballot0 ~instance:5 ~entry:(entry_n 5))
  in
  match persists effs with
  | [ Effect.Persist_vote (5, _) ] -> ()
  | p -> Alcotest.fail ("expected exactly one vote record: " ^ pp_persists p)

let test_acceptor_compaction_drops () =
  let t = with_votes 4 in
  let t, effs = step t ~now:0.2 (fun t -> Acceptor_core.on_commit_floor t ~upto:2) in
  (match persists effs with
  | [ Effect.Persist_header (b, 2); Effect.Drop_vote 0; Effect.Drop_vote 1 ]
    when Ballot.equal b ballot0 ->
    ()
  | p -> Alcotest.fail ("expected the header, then one drop per vote: " ^ pp_persists p));
  Alcotest.(check int) "votes at and above the floor kept" 2
    (Cp_engine.Acceptor.vote_count t.State.acceptor);
  let _, effs = step t ~now:0.3 (fun t -> Acceptor_core.on_commit_floor t ~upto:2) in
  Alcotest.(check int) "a repeated floor writes nothing" 0 (List.length (persists effs))

let test_learner_snapshot_drops_votes () =
  (* A main's snapshot compacts its own votes: the snapshot and log drops,
     then the acceptor header, then one drop per compacted vote. *)
  let params = { Params.default with Params.snapshot_every = 3 } in
  let t = ref (with_votes ~self:1 ~role:State.Main ~params 3) in
  for i = 0 to 1 do
    let t', _ = step !t ~now:0.2 (fun t -> ignore (Learner.learn t i (entry_n i))) in
    t := t'
  done;
  let t, effs = step !t ~now:0.2 (fun t -> ignore (Learner.learn t 2 (entry_n 2))) in
  (match persists effs with
  | [
   Effect.Persist_log (2, _);
   Effect.Persist_snapshot _;
   Effect.Drop_log 0;
   Effect.Drop_log 1;
   Effect.Drop_log 2;
   Effect.Persist_header (b, 3);
   Effect.Drop_vote 0;
   Effect.Drop_vote 1;
   Effect.Drop_vote 2;
  ]
    when Ballot.equal b ballot0 ->
    ()
  | p -> Alcotest.fail ("unexpected snapshot persistence: " ^ pp_persists p));
  Alcotest.(check int) "every vote compacted" 0
    (Cp_engine.Acceptor.vote_count t.State.acceptor)

(* --- leader ------------------------------------------------------------- *)

let elect ?params ?app () =
  (* Node 0 boots as candidate; one promise from node 1 completes phase 1. *)
  let t, boot_effs = mk ~self:0 ?params ?app () in
  (match t.State.state with
  | State.Candidate _ -> ()
  | _ -> Alcotest.fail "node 0 should campaign on first boot");
  Alcotest.(check bool)
    "campaign sent P1a to the other main" true
    (List.exists (function Types.P1a _ -> true | _ -> false) (sends_to 1 boot_effs));
  let ballot =
    match t.State.state with
    | State.Candidate c -> c.State.c_ballot
    | _ -> assert false
  in
  let t, effs =
    step t ~now:0.1 (fun t -> Leader.on_p1b t ~from:1 ~ballot ~votes:[] ~compacted:0)
  in
  (t, ballot, effs)

let test_leader_election () =
  let t, _, effs = elect () in
  Alcotest.(check bool) "became leader" true (State.is_leader t);
  Alcotest.(check bool)
    "heartbeat to the other main" true
    (List.exists (function Types.Heartbeat _ -> true | _ -> false) (sends_to 1 effs));
  Alcotest.(check bool)
    "ballot_won emitted" true
    (List.exists
       (function Effect.Emit (Cp_obs.Event.Ballot_won _) -> true | _ -> false)
       effs)

let test_leader_propose_and_choose () =
  let t, ballot, _ = elect () in
  let cmd = { Types.client = 1000; seq = 1; op = "w" } in
  let t, effs = step t ~now:0.2 (fun t -> Leader.on_client_req t cmd) in
  (match sends_to 1 effs with
  | sends ->
    Alcotest.(check bool)
      "P2a to the other main (narrow phase 2)" true
      (List.exists (function Types.P2a { instance = 0; _ } -> true | _ -> false) sends));
  Alcotest.(check bool)
    "nothing to the auxiliary on the fast path" true
    (sends_to 2 effs |> List.for_all (function Types.P2a _ -> false | _ -> true));
  let t, effs = step t ~now:0.3 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance:0) in
  Alcotest.(check int) "chosen and executed" 1 t.State.executed_;
  Alcotest.(check bool)
    "commit broadcast to the other main" true
    (List.exists (function Types.Commit { instance = 0; _ } -> true | _ -> false) (sends_to 1 effs));
  match sends_to 1000 effs with
  | [ Types.ClientResp { seq = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly one ClientResp to the client"

let test_leader_redirect_when_follower () =
  let t, _ = mk ~self:1 () in
  let cmd = { Types.client = 1000; seq = 1; op = "w" } in
  let _, effs = step t ~now:0.1 (fun t -> Leader.on_client_req t cmd) in
  match sends_to 1000 effs with
  | [ Types.Redirect { leader_hint = 0 } ] -> ()
  | _ -> Alcotest.fail "follower should redirect to its leader hint"

(* --- learner ------------------------------------------------------------ *)

let test_learner_learn_executes () =
  let t, _ = mk ~self:1 () in
  let entry = Types.App { Types.client = 9; seq = 1; op = "a" } in
  let t, effs = step t ~now:0.1 (fun t -> ignore (Learner.learn t 0 entry)) in
  Alcotest.(check int) "executed through the entry" 1 t.State.executed_;
  Alcotest.(check bool)
    "chosen entry persisted" true
    (List.exists (function Effect.Persist_log (0, _) -> true | _ -> false) effs);
  Alcotest.(check bool)
    "execution event emitted" true
    (List.exists
       (function
         | Effect.Emit (Cp_obs.Event.Command_executed { instance = 0 }) -> true
         | _ -> false)
       effs)

let test_learner_gap_blocks_execution () =
  let t, _ = mk ~self:1 () in
  let entry = Types.App { Types.client = 9; seq = 1; op = "a" } in
  let t, _ = step t ~now:0.1 (fun t -> ignore (Learner.learn t 1 entry)) in
  Alcotest.(check int) "gap at 0 blocks execution" 0 t.State.executed_;
  let t, _ = step t ~now:0.2 (fun t -> ignore (Learner.learn t 0 Types.Noop)) in
  Alcotest.(check int) "filling the gap executes both" 2 t.State.executed_

(* A leader's learner executing a chosen prefix of KV commands under
   [session_window = 2]: an in-batch duplicate, a retry whose reply is
   still cached, a retry evicted by a later record (no reply), and a
   second client interleaved with the first. The effect stream must not
   depend on how the prefix reaches the learner: one instance at a time,
   or held back by a gap at instance 0 and then executed in one go. *)
let test_learner_session_dedup () =
  let a = 100 and b = 200 in
  let cmd client seq op = { Types.client; seq; op } in
  let prefix =
    [|
      Types.App (cmd a 1 (Cp_smr.Kv.put "a" "1"));
      Types.Batch
        [ cmd a 2 (Cp_smr.Kv.put "a" "2"); cmd b 1 (Cp_smr.Kv.get "a"); cmd a 2 (Cp_smr.Kv.put "a" "2") ];
      Types.App (cmd a 1 (Cp_smr.Kv.put "a" "1"));
      Types.Batch [ cmd a 3 (Cp_smr.Kv.get "a"); cmd b 2 (Cp_smr.Kv.put "a" "3") ];
      Types.App (cmd a 1 (Cp_smr.Kv.put "a" "1"));
      Types.Batch
        [ cmd b 1 (Cp_smr.Kv.get "a"); cmd a 4 (Cp_smr.Kv.get "a"); cmd a 2 (Cp_smr.Kv.put "a" "2") ];
    |]
  in
  let expected =
    [
      "applied"; "resp 100/1 OK"; "executed 0";
      "applied"; "resp 100/2 OK"; "applied"; "resp 200/1 2"; "resp 100/2 OK"; "executed 1";
      "resp 100/1 OK"; "executed 2";
      "applied"; "resp 100/3 2"; "applied"; "resp 200/2 OK"; "executed 3";
      (* 100/1 was evicted when 100/3 was recorded: no reply, no apply *)
      "executed 4";
      (* 100/2 was evicted by 100/4 inside the same batch *)
      "resp 200/1 2"; "applied"; "resp 100/4 3"; "executed 5";
    ]
  in
  let trace effs =
    List.filter_map
      (function
        | Effect.Metric ("applied", 1) -> Some "applied"
        | Effect.Send (_, Types.ClientResp { client; seq; result }) ->
          Some (Printf.sprintf "resp %d/%d %s" client seq result)
        | Effect.Emit (Cp_obs.Event.Command_executed { instance }) ->
          Some (Printf.sprintf "executed %d" instance)
        | _ -> None)
      effs
  in
  let params = { Params.default with Params.session_window = 2 } in
  let run order =
    let t, _, _ = elect ~params ~app:(module Cp_smr.Kv : Appi.S) () in
    Alcotest.(check bool) "leader" true (State.is_leader t);
    Alcotest.(check int) "nothing executed at election" 0 t.State.executed_;
    let t, effs =
      List.fold_left
        (fun (t, acc) i ->
          let t, effs = step t ~now:0.2 (fun t -> ignore (Learner.learn t i prefix.(i))) in
          (t, acc @ effs))
        (t, []) order
    in
    Alcotest.(check int) "prefix executed" (Array.length prefix) t.State.executed_;
    Alcotest.(check (list string)) "replies, applies and executions" expected (trace effs);
    Alcotest.(check string) "final KV value" "3" (t.State.app.Appi.apply (Cp_smr.Kv.get "a"))
  in
  run [ 0; 1; 2; 3; 4; 5 ];
  run [ 1; 2; 3; 4; 5; 0 ]

(* --- catchup ------------------------------------------------------------ *)

let learn_n t n =
  let t = ref t in
  for i = 0 to n - 1 do
    let t', _ =
      step !t ~now:0.1 (fun t ->
          ignore (Learner.learn t i (Types.App { Types.client = 9; seq = i + 1; op = "a" })))
    in
    t := t'
  done;
  !t

let test_catchup_serves_range () =
  let t = learn_n (fst (mk ~self:1 ())) 3 in
  let _, effs =
    step t ~now:0.5 (fun t -> Catchup.on_catchup_req t ~src:0 ~from_instance:0)
  in
  match sends_to 0 effs with
  | [ Types.CatchupResp { entries; snapshot = None } ] ->
    Alcotest.(check int) "all three chosen entries served" 3 (List.length entries)
  | _ -> Alcotest.fail "expected exactly one CatchupResp"

(* 300 chosen batches at the default byte cap come to ~300 KB, far past one
   datagram, though [catchup_batch] would allow 256 of them. Each response
   stops short of a datagram, and successive requests still reach the end. *)
let test_catchup_bounded_by_datagram () =
  let t = ref (fst (mk ~self:1 ~app:(module Cp_smr.Kv : Appi.S) ())) in
  let n = 300 in
  for i = 0 to n - 1 do
    let entry = Test_codec.full_batch ~seq:(1 + (64 * i)) in
    t := fst (step !t ~now:0.1 (fun t -> ignore (Learner.learn t i entry)))
  done;
  let rec serve from responses =
    if from >= n then responses
    else
      let _, effs =
        step !t ~now:0.5 (fun t -> Catchup.on_catchup_req t ~src:0 ~from_instance:from)
      in
      match sends_to 0 effs with
      | [
       (Types.CatchupResp { entries = (first, _) :: _ as entries; snapshot = None } as resp);
      ] ->
        Alcotest.(check int) "starts at the requested instance" from first;
        Alcotest.(check bool)
          (Printf.sprintf "response from %d fits one datagram" from)
          true (Test_codec.fits_datagram resp);
        serve (from + List.length entries) (responses + 1)
      | _ -> Alcotest.fail "expected exactly one non-empty CatchupResp"
  in
  let responses = serve 0 0 in
  Alcotest.(check bool)
    (Printf.sprintf "split across responses (%d)" responses)
    true (responses > 1);
  (* An entry larger than any datagram is still served, alone. *)
  let huge = Types.App { Types.client = 7; seq = 1; op = String.make 70_000 'x' } in
  t := fst (step !t ~now:0.1 (fun t -> ignore (Learner.learn t n huge)));
  t := fst (step !t ~now:0.1 (fun t -> ignore (Learner.learn t (n + 1) huge)));
  let _, effs =
    step !t ~now:0.5 (fun t -> Catchup.on_catchup_req t ~src:0 ~from_instance:n)
  in
  match sends_to 0 effs with
  | [ Types.CatchupResp { entries = [ (i, _) ]; snapshot = None } ] ->
    Alcotest.(check int) "the oversized entry alone" n i
  | _ -> Alcotest.fail "expected one CatchupResp carrying one entry"

let test_catchup_commit_learns () =
  let t, _ = mk ~self:1 () in
  let t, _ =
    step t ~now:0.1 (fun t -> Catchup.on_commit t ~instance:0 ~entry:Types.Noop)
  in
  Alcotest.(check int) "commit advanced the prefix" 1 (Log.prefix t.State.log)

let test_catchup_gap_triggers_request () =
  let params = { Params.default with Params.gap_threshold = 2 } in
  let t, _ = mk ~self:1 ~params () in
  (* A commit far beyond the prefix overruns gap_threshold = 2. *)
  let _, effs =
    step t ~now:0.1 (fun t -> Catchup.on_commit t ~instance:10 ~entry:Types.Noop)
  in
  Alcotest.(check bool)
    "catch-up requested from the other main" true
    (List.exists (function Types.CatchupReq _ -> true | _ -> false) (sends_to 0 effs))

let test_catchup_respects_gap_threshold () =
  let params = { Params.default with Params.gap_threshold = 50 } in
  let t, _ = mk ~self:1 ~params () in
  let _, effs =
    step t ~now:0.1 (fun t -> Catchup.on_commit t ~instance:10 ~entry:Types.Noop)
  in
  Alcotest.(check bool)
    "no catch-up inside the threshold" true
    (sends_to 0 effs |> List.for_all (function Types.CatchupReq _ -> false | _ -> true))

(* --- lease -------------------------------------------------------------- *)

let test_lease_heartbeat_acked () =
  let t, _ = mk ~self:1 () in
  let t, effs =
    step t ~now:0.4 (fun t ->
        Lease.on_heartbeat t ~src:0 ~ballot:ballot0 ~commit_floor:0 ~sent_at:0.35)
  in
  (match sends_to 0 effs with
  | [ Types.HeartbeatAck { from = 1; echo; _ } ] ->
    Alcotest.(check (float 1e-9)) "echoes the send time, not receipt" 0.35 echo
  | _ -> Alcotest.fail "expected exactly one HeartbeatAck");
  Alcotest.(check (float 1e-9)) "leader contact noted" 0.4 t.State.last_leader_contact

let test_lease_stale_heartbeat_ignored () =
  let t, _ = mk ~self:1 () in
  let high = Ballot.succ_for ballot0 ~leader:1 in
  let t, _ = step t ~now:0.1 (fun t -> Acceptor_core.on_p1a t ~src:1 ~ballot:high ~low:0) in
  let _, effs =
    step t ~now:0.2 (fun t ->
        Lease.on_heartbeat t ~src:0 ~ballot:ballot0 ~commit_floor:0 ~sent_at:0.15)
  in
  Alcotest.(check int) "stale heartbeat produces nothing" 0 (List.length (Effect.sends effs))

(* --- core composition ---------------------------------------------------- *)

let test_core_tick_rearms_timer () =
  let t, _ = mk ~self:1 () in
  let _, effs = Core.step t ~now:0.1 (Core.Timer { tag = "tick" }) in
  match effs with
  | Effect.Set_timer ("tick", _) :: _ -> ()
  | _ -> Alcotest.fail "tick must re-arm the timer before any handler work"

let test_core_aux_ignores_tick () =
  let t, _ = mk ~self:2 ~role:State.Aux () in
  let _, effs = Core.step t ~now:0.1 (Core.Timer { tag = "tick" }) in
  Alcotest.(check int) "aux is reactive: no timer, no sends" 0 (List.length effs)

let test_clone_independent () =
  let t, _, _ = elect () in
  let before = State.fingerprint t in
  let c = State.clone t in
  let _ =
    Core.step c ~now:1.0
      (Core.Deliver { src = 1000; msg = Types.ClientReq { client = 1000; seq = 5; op = "z" } })
  in
  Alcotest.(check bool) "stepping a clone never touches the original" true
    (String.equal before (State.fingerprint t));
  Alcotest.(check bool) "the clone itself diverged" false
    (String.equal before (State.fingerprint c))

(* --- failure detection across the node's own stalls ------------------- *)

let tick t ~now = Core.step t ~now (Core.Timer { tag = "tick" })

let removal_proposed effs =
  List.exists (function Effect.Metric ("remove_proposed", _) -> true | _ -> false) effs

(* Node 0 elected at 0.1 under a reconfiguring policy, main 1 having just
   answered its first heartbeat. *)
let reconfiguring_leader () =
  let t, _ = mk ~self:0 ~policy:{ policy with Policy.reconfigure = true } () in
  let ballot =
    match t.State.state with State.Candidate c -> c.State.c_ballot | _ -> assert false
  in
  let deliver t msg = fst (Core.step t ~now:0.1 (Core.Deliver { src = 1; msg })) in
  let t = deliver t (Types.P1b { ballot; from = 1; votes = []; compacted_upto = 0 }) in
  let t = deliver t (Types.HeartbeatAck { ballot; from = 1; prefix = 0; echo = 0.1 }) in
  Alcotest.(check bool) "leading" true (State.is_leader t);
  t

(* The first of [ticks] regular ticks, [spacing] (default [tick]) apart
   from [start], after which [fired] holds of the effects; [None] if it
   never does. *)
let first_firing ?(spacing = Params.default.Params.tick) t ~start ~ticks ~fired =
  let rec go t k =
    if k > ticks then None
    else
      let now = start +. (float_of_int k *. spacing) in
      let t, effs = tick t ~now in
      if fired t effs then Some k else go t (k + 1)
  in
  go t 1

(* The first tick at which the plain timeout rule ([now - since > timeout])
   holds: what the detector decided before it discounted stalls. *)
let timeout_tick ?(spacing = Params.default.Params.tick) ~start ~timeout () =
  let rec go k =
    if start +. (float_of_int k *. spacing) -. start > timeout then k else go (k + 1)
  in
  go 1

let test_leader_stall_is_not_peer_failure () =
  let t = reconfiguring_leader () in
  let t, effs = tick t ~now:0.140 in
  Alcotest.(check bool) "a 40 ms jump then one tick proposes no removal" false
    (removal_proposed effs);
  Alcotest.(check bool) "nor suspects main 1" true
    (match t.State.state with
    | State.Leader l -> Hashtbl.length l.State.l_suspected = 0
    | _ -> false);
  let t = reconfiguring_leader () in
  Alcotest.(check (option int))
    "regular ticks without acks propose removal exactly when the timeout alone would"
    (Some (timeout_tick ~start:0.1 ~timeout:Params.default.Params.suspect_timeout ()))
    (first_firing t ~start:0.1 ~ticks:40 ~fired:(fun _ effs -> removal_proposed effs))

let test_follower_stall_is_not_leader_failure () =
  let params = { Params.default with Params.election_fuzz = 0. } in
  let follower () =
    let t, _ = mk ~self:1 ~params () in
    fst
      (Core.step t ~now:0.1
         (Core.Deliver
            { src = 0; msg = Types.Heartbeat { ballot = ballot0; commit_floor = 0; sent_at = 0.1 } }))
  in
  let campaigning t = match t.State.state with State.Candidate _ -> true | _ -> false in
  let t, effs = tick (follower ()) ~now:0.140 in
  Alcotest.(check bool) "a 40 ms jump then one tick starts no election" false (campaigning t);
  Alcotest.(check bool) "and sends no P1a" false
    (List.exists (function Effect.Send (_, Types.P1a _) -> true | _ -> false) effs);
  Alcotest.(check (option int))
    "regular ticks without contact campaign exactly when the timeout alone would"
    (Some (timeout_tick ~start:0.1 ~timeout:params.Params.leader_timeout ()))
    (first_firing (follower ()) ~start:0.1 ~ticks:40 ~fired:(fun t _ -> campaigning t));
  (* A 1 ms timer re-armed from its own handler on a 1 ms wheel fires
     about every 2 ms: such ticks are regular too, and the follower still
     campaigns after [leader_timeout], not after twice as long. *)
  let spacing = 2. *. params.Params.tick in
  Alcotest.(check (option int)) "ticks 2 ms apart campaign when the timeout alone would"
    (Some (timeout_tick ~spacing ~start:0.1 ~timeout:params.Params.leader_timeout ()))
    (first_firing ~spacing (follower ()) ~start:0.1 ~ticks:40 ~fired:(fun t _ -> campaigning t));
  (* Stalls are left out, not forgotten: after the 40 ms jump the clock
     stands at two periods, and regular ticks carry it on from there. *)
  let t, _ = tick (follower ()) ~now:0.140 in
  Alcotest.(check (option int)) "after a stall, the rest of the timeout in regular ticks"
    (Some
       (timeout_tick ~start:0.
          ~timeout:(params.Params.leader_timeout -. (2. *. params.Params.tick))
          ()))
    (first_firing t ~start:0.140 ~ticks:40 ~fired:(fun t _ -> campaigning t))

(* --- deferred lease reads ---------------------------------------------- *)

let lease_on = { Params.default with Params.enable_leases = true }

(* Node 0 leading after main 1's promise at 0.1, without the checks of
   [elect]. *)
let leading ?params ?app () =
  let t, _ = mk ~self:0 ?params ?app () in
  let ballot =
    match t.State.state with State.Candidate c -> c.State.c_ballot | _ -> assert false
  in
  let t, _ =
    step t ~now:0.1 (fun t -> Leader.on_p1b t ~from:1 ~ballot ~votes:[] ~compacted:0)
  in
  match t.State.state with
  | State.Leader lead -> (t, lead, ballot)
  | _ -> Alcotest.fail "node 0 should lead after one promise"

let client = 1000

let replies effs =
  List.filter_map
    (function
      | Types.ClientResp { client = c; seq; result } when c = client -> Some (seq, result)
      | _ -> None)
    (sends_to client effs)

let has_metric name effs =
  List.exists (function Effect.Metric (n, _) -> n = name | _ -> false) effs

(* A KV leader holding the lease (main 1 echoed the heartbeat sent at 0.1),
   with PUT (client, 1) proposed at instance 0 and GET (client, 2) parked
   behind it. *)
let leader_with_parked_read () =
  let t, lead, ballot = leading ~params:lease_on ~app:(module Cp_smr.Kv : Appi.S) () in
  let t, _ =
    step t ~now:0.1 (fun t -> Leader.on_heartbeat_ack t ~from:1 ~ballot ~prefix:0 ~echo:0.1)
  in
  Alcotest.(check bool) "lease held" true lead.State.l_lease_held;
  let put = { Types.client; seq = 1; op = Cp_smr.Kv.put "k" "v1" } in
  let t, _ = step t ~now:0.101 (fun t -> Leader.on_client_req t put) in
  let get = { Types.client; seq = 2; op = Cp_smr.Kv.get "k" } in
  let t, effs = step t ~now:0.102 (fun t -> Leader.on_client_read t get) in
  Alcotest.(check bool) "the read is deferred" true (has_metric "lease_reads_deferred" effs);
  Alcotest.(check int) "and not answered" 0 (List.length (replies effs));
  Alcotest.(check int) "one parked read" 1 (Queue.length lead.State.l_reads);
  (t, lead, ballot)

let test_deferred_read_served_at_apply () =
  let t, lead, ballot = leader_with_parked_read () in
  let _, effs = step t ~now:0.103 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance:0) in
  Alcotest.(check (list (pair int string)))
    "the write's reply, then the read's, which sees the write" [ (1, "OK"); (2, "v1") ]
    (replies effs);
  Alcotest.(check int) "nothing left parked" 0 (Queue.length lead.State.l_reads)

let test_deferred_read_lapsed_lease_falls_back () =
  let t, lead, ballot = leader_with_parked_read () in
  (* The echo of 0.1 is older than (1 - lease_margin) * lease_guard at 0.125. *)
  let t, effs = step t ~now:0.125 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance:0) in
  Alcotest.(check (list (pair int string))) "only the write is answered" [ (1, "OK") ]
    (replies effs);
  Alcotest.(check int) "the read stays parked" 1 (Queue.length lead.State.l_reads);
  let _, effs = step t ~now:0.126 Leader.on_tick in
  Alcotest.(check bool) "the tick counts a fallback" true
    (has_metric "lease_read_fallbacks" effs);
  Alcotest.(check int) "nothing left parked" 0 (Queue.length lead.State.l_reads);
  Alcotest.(check int) "no reply yet" 0 (List.length (replies effs));
  Alcotest.(check bool) "the read is proposed through the log" true
    (List.exists
       (function
         | Types.P2a { instance = 1; entry = Types.App { Types.client = c; seq = 2; _ }; _ } ->
           c = client
         | _ -> false)
       (sends_to 1 effs))

let test_deferred_read_waits_for_every_earlier_write () =
  let t, lead, ballot = leader_with_parked_read () in
  (* A second PUT (client, 3) lands at instance 1; the GET (client, 2) is
     not behind it, but a GET (client, 4) is behind both. *)
  let put = { Types.client; seq = 3; op = Cp_smr.Kv.put "k" "v3" } in
  let t, _ = step t ~now:0.1025 (fun t -> Leader.on_client_req t put) in
  let get = { Types.client; seq = 4; op = Cp_smr.Kv.get "k" } in
  let t, _ = step t ~now:0.1026 (fun t -> Leader.on_client_read t get) in
  Alcotest.(check int) "two parked reads" 2 (Queue.length lead.State.l_reads);
  let t, effs = step t ~now:0.103 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance:0) in
  Alcotest.(check (list (pair int string)))
    "instance 0 releases only the read behind it" [ (1, "OK"); (2, "v1") ] (replies effs);
  Alcotest.(check int) "the read behind instance 1 stays parked" 1
    (Queue.length lead.State.l_reads);
  let _, effs = step t ~now:0.104 (fun t -> Leader.on_p2b t ~from:1 ~ballot ~instance:1) in
  Alcotest.(check (list (pair int string))) "instance 1 releases it" [ (3, "OK"); (4, "v3") ]
    (replies effs)

(* The per-read predicates against the folds they replaced. *)

let reference_read_fenced (t : State.t) (lead : State.lead) (cmd : Types.command) =
  t.State.executed_ < lead.State.l_recover_hi
  || Hashtbl.fold
       (fun (c, s) () acc -> acc || (c = cmd.Types.client && s < cmd.Types.seq))
       lead.State.l_inflight_cmds false
  || Queue.fold
       (fun acc (q : Types.command) ->
         acc || (q.Types.client = cmd.Types.client && q.Types.seq < cmd.Types.seq))
       false lead.State.l_queue

let prop_read_fenced =
  let leader = lazy (leading ()) in
  let key = QCheck.(pair (int_range 0 3) (int_range 0 8)) in
  QCheck.Test.make ~name:"lease: read_fenced equals the reference fold" ~count:500
    QCheck.(quad (small_list key) (small_list key) key bool)
    (fun (inflight, queued, (client, seq), recovering) ->
      let t, lead, _ = Lazy.force leader in
      Hashtbl.reset lead.State.l_inflight_cmds;
      List.iter (fun k -> Hashtbl.replace lead.State.l_inflight_cmds k ()) inflight;
      Queue.clear lead.State.l_queue;
      List.iter
        (fun (client, seq) -> Queue.push { Types.client; seq; op = "w" } lead.State.l_queue)
        queued;
      lead.State.l_recover_hi <- (t.State.executed_ + if recovering then 1 else 0);
      let cmd = { Types.client; seq; op = "?r" } in
      Lease.read_fenced t lead cmd = reference_read_fenced t lead cmd)

let reference_lease_valid (t : State.t) (lead : State.lead) =
  t.State.params.Params.enable_leases
  &&
  let cfgs = Cp_engine.Configs.covering t.State.configs ~low:(Log.prefix t.State.log) in
  let mains = List.concat_map (fun c -> c.Config.mains) cfgs |> List.sort_uniq compare in
  let deadline =
    t.State.clock -. ((1. -. t.State.params.Params.lease_margin) *. t.State.params.Params.lease_guard)
  in
  List.for_all
    (fun m ->
      m = t.State.self
      ||
      match Hashtbl.find_opt lead.State.l_echo m with
      | Some echoed -> echoed >= deadline
      | None -> false)
    mains

(* Random configuration timelines (adds and removals of mains 0..4 taking
   effect at instances 3..3+k), a random executed prefix, and each main's
   echo either missing or a random age around the lease deadline. *)
let prop_lease_valid =
  let change = QCheck.(pair bool (int_range 0 4)) in
  let age = QCheck.(option (float_range 0. 0.03)) in
  QCheck.Test.make ~name:"lease: lease_valid equals the reference over covering mains"
    ~count:300
    QCheck.(triple (int_range 0 6) (small_list change) (list_of_size (Gen.return 5) age))
    (fun (learned, changes, ages) ->
      let t, lead, _ = leading ~params:lease_on () in
      let t = ref t in
      for i = 0 to learned - 1 do
        t := fst (step !t ~now:0.1 (fun t -> ignore (Learner.learn t i Types.Noop)))
      done;
      let t = !t in
      List.iteri
        (fun at (add, m) ->
          ignore
            (Cp_engine.Configs.apply_at t.State.configs ~at
               (if add then Types.Add_main m else Types.Remove_main m)))
        changes;
      t.State.clock <- 0.2;
      List.iteri
        (fun m -> function
          | Some a -> Hashtbl.replace lead.State.l_echo m (0.2 -. a)
          | None -> Hashtbl.remove lead.State.l_echo m)
        ages;
      Lease.lease_valid t lead = reference_lease_valid t lead)

let suite =
  [
    Alcotest.test_case "acceptor: p1a promise" `Quick test_acceptor_promise;
    Alcotest.test_case "acceptor: stale p1a nacked" `Quick test_acceptor_stale_nack;
    Alcotest.test_case "acceptor: p2a accept" `Quick test_acceptor_p2a_accept;
    Alcotest.test_case "acceptor: p2a at promise writes one vote" `Quick
      test_acceptor_p2a_vote_only;
    Alcotest.test_case "acceptor: compaction header then drops" `Quick
      test_acceptor_compaction_drops;
    Alcotest.test_case "learner: snapshot header then vote drops" `Quick
      test_learner_snapshot_drops_votes;
    Alcotest.test_case "leader: election" `Quick test_leader_election;
    Alcotest.test_case "leader: propose and choose" `Quick test_leader_propose_and_choose;
    Alcotest.test_case "leader: follower redirects" `Quick test_leader_redirect_when_follower;
    Alcotest.test_case "learner: learn executes" `Quick test_learner_learn_executes;
    Alcotest.test_case "learner: gap blocks execution" `Quick test_learner_gap_blocks_execution;
    Alcotest.test_case "learner: session dedup over a chosen prefix" `Quick
      test_learner_session_dedup;
    Alcotest.test_case "catchup: serves range" `Quick test_catchup_serves_range;
    Alcotest.test_case "catchup: commit learns" `Quick test_catchup_commit_learns;
    Alcotest.test_case "catchup: gap triggers request" `Quick test_catchup_gap_triggers_request;
    Alcotest.test_case "catchup: respects gap_threshold" `Quick test_catchup_respects_gap_threshold;
    Alcotest.test_case "lease: heartbeat acked" `Quick test_lease_heartbeat_acked;
    Alcotest.test_case "lease: stale heartbeat ignored" `Quick test_lease_stale_heartbeat_ignored;
    Alcotest.test_case "core: tick re-arms timer" `Quick test_core_tick_rearms_timer;
    Alcotest.test_case "core: aux ignores tick" `Quick test_core_aux_ignores_tick;
    Alcotest.test_case "state: clone independence" `Quick test_clone_independent;
    Alcotest.test_case "detector: leader stall is no peer failure" `Quick
      test_leader_stall_is_not_peer_failure;
    Alcotest.test_case "detector: follower stall is no leader failure" `Quick
      test_follower_stall_is_not_leader_failure;
    Alcotest.test_case "catchup: bounded by one datagram" `Quick
      test_catchup_bounded_by_datagram;
    Alcotest.test_case "lease: deferred read served at the write's apply point" `Quick
      test_deferred_read_served_at_apply;
    Alcotest.test_case "lease: a lapsed lease leaves the parked read to the tick" `Quick
      test_deferred_read_lapsed_lease_falls_back;
    Alcotest.test_case "lease: deferred read waits for every earlier write" `Quick
      test_deferred_read_waits_for_every_earlier_write;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_read_fenced; prop_lease_valid ]
