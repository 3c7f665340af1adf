(* The runtime replica: a thin interpreter wrapping the sans-IO {!Core}.
   All protocol logic lives in the pure role modules ({!Acceptor_core},
   {!Leader}, {!Learner}, {!Catchup}, {!Lease}) composed by {!Core}; this
   module is the only place the engine capability record ({!Engine.ctx}) is
   touched. Every handler invocation is: read the clock, [Core.step], then
   execute the returned effects against the ctx in emission order — so the
   observable behaviour (sends, events, metrics, storage writes) is exactly
   the effect stream of the pure core. *)

open Cp_proto
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage
module Metrics = Cp_sim.Metrics
module Obs = Cp_obs

type role = State.role = Main | Aux

type t = {
  core : State.t;
  ctx : Types.msg Engine.ctx;
  spans : Obs.Span.t; (* leader-side submit→chosen→executed latency spans *)
  prof : Obs.Prof.t; (* pipeline profiler: step + per-effect-class timings *)
  span_ttl : float; (* expire open spans older than this (shed/dedup leaks) *)
}

(* ------------------------------------------------------------------ *)
(* The effect interpreter                                              *)
(* ------------------------------------------------------------------ *)

(* Stable key layout: "acceptor" (header), "vote.<i>", "log.<i>",
   "snapshot". *)
let log_prefix = "log."

let vote_prefix = "vote."

let log_key i = log_prefix ^ string_of_int i

let vote_key i = vote_prefix ^ string_of_int i

(* Persistence goes through the typed stable-record codecs, not [Marshal]:
   the store sees only bytes with a defined, versioned layout. A snapshot
   arrives already encoded by the core, which keeps the same bytes. *)
let interpret_one t (eff : Effect.t) =
  match eff with
  | Effect.Send (dst, msg) -> t.ctx.Engine.send dst msg
  | Effect.Persist_header (promised, floor) ->
    Storage.put t.ctx.Engine.stable "acceptor"
      (Codec.encode_acceptor_header (promised, floor))
  | Effect.Persist_vote (i, vote) ->
    Storage.put t.ctx.Engine.stable (vote_key i) (Codec.encode_stable_vote vote)
  | Effect.Drop_vote i -> Storage.remove t.ctx.Engine.stable (vote_key i)
  | Effect.Persist_log (i, entry) ->
    Storage.put t.ctx.Engine.stable (log_key i) (Codec.encode_stable_entry entry)
  | Effect.Persist_snapshot { bytes; _ } -> Storage.put t.ctx.Engine.stable "snapshot" bytes
  | Effect.Drop_log i -> Storage.remove t.ctx.Engine.stable (log_key i)
  | Effect.Set_timer (tag, delay) -> ignore (t.ctx.Engine.set_timer ~tag delay)
  | Effect.Emit ev -> t.ctx.Engine.emit ev
  | Effect.Metric (name, by) -> Metrics.incr t.ctx.Engine.metrics ~by name
  | Effect.Observe (name, v) -> Metrics.observe t.ctx.Engine.metrics name v
  | Effect.Span_submitted { client; seq; at } -> Obs.Span.submitted t.spans ~client ~seq ~at
  | Effect.Span_chosen { instance; cmds; at } -> Obs.Span.chosen t.spans ~instance ~cmds ~at
  | Effect.Span_executed { instance; at } -> Obs.Span.executed t.spans ~instance ~at
  | Effect.Span_reset -> Obs.Span.reset t.spans

(* No flush here: the runtime makes the store durable once per delivery
   burst, before any send from that burst can be observed (the
   {!Engine.ctx} contract), so every step in the burst shares one fsync. *)
let rec interpret t = function
  | [] -> ()
  | eff :: rest ->
    let t0 = Obs.Prof.start t.prof in
    interpret_one t eff;
    Obs.Prof.record_since t.prof (Effect.stage eff) t0;
    interpret t rest

(* ------------------------------------------------------------------ *)
(* Construction: read the recovery image, build the core               *)
(* ------------------------------------------------------------------ *)

(* Recovery decodes through the same Result-returning codecs: a record that
   fails to parse (foreign bytes, an unversioned legacy blob) is treated as
   absent rather than crashing the replica — the protocol then behaves as
   if that write never became durable, which is the safe direction. *)
let get_decoded stable key decode =
  match Storage.get stable key with
  | None -> None
  | Some bytes -> ( match decode bytes with Ok v -> Some v | Error _ -> None)

(* Every decodable record under "<prefix><i>", as (i, value), in no
   particular order; the core filters and sorts against its floor or
   post-snapshot log base. *)
let scan stable ~prefix decode =
  let n = String.length prefix in
  Storage.keys stable
  |> List.filter_map (fun k ->
         if String.length k > n && String.sub k 0 n = prefix then
           match int_of_string_opt (String.sub k n (String.length k - n)) with
           | Some i -> get_decoded stable k decode |> Option.map (fun v -> (i, v))
           | None -> None
         else None)

let create ctx ~role ~policy ~params ~initial ~universe_mains ~universe_auxes
    ~app =
  let stable = ctx.Engine.stable in
  let recovery =
    {
      State.r_acceptor = get_decoded stable "acceptor" Codec.decode_acceptor_header;
      r_votes = scan stable ~prefix:vote_prefix Codec.decode_stable_vote;
      r_snapshot =
        (if role = Main then
           Option.bind (Storage.get stable "snapshot") (fun bytes ->
               match Codec.decode_stable_snapshot bytes with
               | Ok snap -> Some (State.stored_of_snapshot ~bytes snap)
               | Error _ -> None)
         else None);
      r_log =
        (if role = Main then scan stable ~prefix:log_prefix Codec.decode_stable_entry else []);
      r_had_state = Storage.mem stable "acceptor";
    }
  in
  let core, effects =
    Core.create ~self:ctx.Engine.self ~now:(ctx.Engine.now ()) ~rng:ctx.Engine.rng ~role
      ~policy ~params ~initial ~universe_mains ~universe_auxes ~app ~recovery
  in
  let prof =
    Obs.Prof.create ~clock:ctx.Engine.now ~count:(fun name ->
        Metrics.add (Metrics.counter ctx.Engine.metrics name))
  in
  let t =
    {
      core;
      ctx;
      spans =
        Obs.Span.create ~observe:(fun name v -> Metrics.observe ctx.Engine.metrics name v);
      prof;
      span_ttl = params.Params.span_ttl;
    }
  in
  interpret t effects;
  t

let stage_step = Obs.Prof.stage "step"

let handlers t =
  let on_message ~src msg =
    let now = t.ctx.Engine.now () in
    let t0 = Obs.Prof.start t.prof in
    let _, effects = Core.step t.core ~now (Core.Deliver { src; msg }) in
    Obs.Prof.record_since t.prof stage_step t0;
    interpret t effects
  in
  let on_timer ~tid:_ ~tag =
    let now = t.ctx.Engine.now () in
    let t0 = Obs.Prof.start t.prof in
    let _, effects = Core.step t.core ~now (Core.Timer { tag }) in
    Obs.Prof.record_since t.prof stage_step t0;
    interpret t effects;
    (* Age out latency spans whose command was shed or deduplicated and so
       will never close; rate-limited inside [expire]. *)
    let dropped = Obs.Span.expire t.spans ~now ~ttl:t.span_ttl in
    if dropped > 0 then Metrics.incr t.ctx.Engine.metrics ~by:dropped "span_dropped"
  in
  { Engine.on_message; on_timer }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let role t = t.core.State.role_

let is_leader t = State.is_leader t.core

let current_ballot t =
  match t.core.State.state with
  | State.Leader l -> Some l.State.l_ballot
  | State.Candidate c -> Some c.State.c_ballot
  | State.Follower -> None

let leader_hint t = t.core.State.leader_hint_

let prefix t = Log.prefix t.core.State.log

let executed t = t.core.State.executed_

let latest_config t = Configs.latest t.core.State.configs

let config_timeline t = Configs.timeline t.core.State.configs

let log_range t ~lo ~hi = Log.range t.core.State.log ~lo ~hi

let log_base t = Log.base t.core.State.log

let session_of t client =
  match Hashtbl.find_opt t.core.State.sessions client with
  | None -> None
  | Some sess ->
    let seq = Session.max_seq sess in
    let reply = match Session.status sess seq with `Cached r -> r | _ -> "" in
    Some (seq, reply)

let sessions t =
  Hashtbl.fold (fun c s acc -> (c, Session.export s) :: acc) t.core.State.sessions []
  |> List.sort compare

let acceptor_vote_count t = Acceptor.vote_count t.core.State.acceptor

let acceptor_floor t = Acceptor.compacted_upto t.core.State.acceptor

let acceptor_promised t = Acceptor.promised t.core.State.acceptor

let fingerprint t = State.fingerprint t.core
