(* N replica groups behind one engine node.

   Each group is an independent {!Cp_engine.Replica} (its own sans-IO core,
   storage namespace, metrics, RNG stream, and trace-id origin); the mux
   fabricates a per-group [Engine.ctx] over the node's real one, so the
   replica code is byte-for-byte the one a dedicated node runs:

   - sends wrap the message as [(gid, msg)] — one shared transport; on the
     wire the group id rides every frame's header ({!Cp_proto.Codec});
   - timers go into one shared {!Wheel}; the mux keeps at most ONE timer
     registered with the engine (armed at the wheel's next deadline), so
     engine-side timer load is O(1) in the group count instead of O(N);
   - stable storage is a {!Cp_storage.Storage.sub} view ("g<gid>"), so all
     groups share the machine's disk and its crash/restart lifetime;
   - timer-driven causal chains are minted from a per-group namespaced
     origin ({!Cp_obs.Traceid.namespace}) and re-pointed onto the node's
     ambient context, so {!Cp_obs.Timeline} joins distinguish co-hosted
     groups. Message-driven chains already carry the sender's id.

   Delivery of a grouped message is a table lookup plus the group's own
   handler; unknown group ids are counted and dropped (a rebalanced or
   misrouted frame must not kill the node). *)

open Cp_proto
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage
module Metrics = Cp_sim.Metrics
module Replica = Cp_engine.Replica
module Rng = Cp_util.Rng
module Obs = Cp_obs

type group = {
  replica : Replica.t;
  handlers : Types.msg Engine.handlers;
  g_metrics : Metrics.t;
  g_mux_recv : Metrics.counter;
  g_recv : Metrics.counter array; (* "recv.<kind>", by {!Types.kind_index} *)
  g_tctx : Obs.Traceid.t; (* namespaced minting context for timer chains *)
}

type t = {
  ctx : (int * Types.msg) Engine.ctx;
  wheel : (int * string) Wheel.t;
  mutable armed : (int * float) option; (* engine timer id and its deadline *)
  mutable groups : group array;
}

let replica t gid = t.groups.(gid).replica

let group_metrics t gid = t.groups.(gid).g_metrics

(* Keep exactly one engine timer armed, at the wheel's next quantized fire
   time. Arming strictly earlier than needed is only a spurious wake (the
   wheel fires nothing and we re-arm), so an armed-earlier timer is left
   alone; armed-later timers are replaced. *)
let rearm t =
  let now = t.ctx.Engine.now () in
  match Wheel.next_deadline t.wheel with
  | None -> (
    match t.armed with
    | Some (tid, _) ->
      t.ctx.Engine.cancel_timer tid;
      t.armed <- None
    | None -> ())
  | Some d -> (
    let d = Float.max d now in
    match t.armed with
    | Some (_, ad) when ad <= d -> ()
    | prev ->
      (match prev with
      | Some (tid, _) -> t.ctx.Engine.cancel_timer tid
      | None -> ());
      t.armed <- Some (t.ctx.Engine.set_timer ~tag:"mux" (d -. now), d))

let fire t wid (gid, tag) =
  let g = t.groups.(gid) in
  (* A timer step starts a fresh causal chain — minted from the group's
     namespaced origin and made the node's ambient id, so every emission
     and send it causes is attributable to this group. *)
  Obs.Traceid.set t.ctx.Engine.tctx (Obs.Traceid.mint g.g_tctx);
  g.handlers.Engine.on_timer ~tid:wid ~tag

(* The per-group capability record: same shape the replica would get on a
   dedicated node, routed through the shared node underneath. *)
let make_group_ctx t ~gid =
  let outer = t.ctx in
  {
    Engine.self = outer.Engine.self;
    now = outer.Engine.now;
    send = (fun dst msg -> outer.Engine.send dst (gid, msg));
    set_timer =
      (fun ?(tag = "") delay ->
        let at = outer.Engine.now () +. Float.max 0. delay in
        let wid = Wheel.add t.wheel ~at (gid, tag) in
        rearm t;
        wid);
    cancel_timer = (fun wid -> Wheel.cancel t.wheel wid);
    rng = Rng.split outer.Engine.rng;
    (* One machine disk, one namespace per hosted group. The view's write
       counters live in the backend keyed by resolved prefix, so re-deriving
       "g<gid>" (e.g. on a rebuild) keeps the group's storage accounting. *)
    stable = Storage.sub outer.Engine.stable ~name:("g" ^ string_of_int gid);
    metrics = Metrics.create ();
    emit = outer.Engine.emit;
    tctx = Obs.Traceid.create ~origin:(Obs.Traceid.namespace ~node:outer.Engine.self ~group:gid);
  }

(* The timer wheel's quantum: how late a protocol timer can fire. *)
let wheel_tick = 2.5e-4

let create ctx ~groups ~role ~policy ~params
    ~initial ~universe_mains ~universe_auxes ~app () =
  if groups <= 0 then invalid_arg "Group_mux.create: need at least one group";
  let t =
    {
      ctx;
      wheel = Wheel.create ~tick:wheel_tick ~now:(ctx.Engine.now ()) ();
      armed = None;
      groups = [||];
    }
  in
  t.groups <-
    Array.init groups (fun gid ->
        let gctx = make_group_ctx t ~gid in
        let replica =
          Replica.create gctx ~role ~policy ~params ~initial ~universe_mains
            ~universe_auxes ~app
        in
        {
          replica;
          handlers = Replica.handlers replica;
          g_metrics = gctx.Engine.metrics;
          g_mux_recv = Metrics.counter gctx.Engine.metrics "mux_recv";
          g_recv =
            Array.map (fun k -> Metrics.counter gctx.Engine.metrics ("recv." ^ k)) Types.kinds;
          g_tctx = gctx.Engine.tctx;
        });
  t

let handlers t =
  let on_message ~src (gid, msg) =
    if gid < 0 || gid >= Array.length t.groups then
      Metrics.incr t.ctx.Engine.metrics "mux_unknown_group"
    else begin
      let g = t.groups.(gid) in
      Metrics.bump g.g_mux_recv;
      Metrics.bump (Array.unsafe_get g.g_recv (Types.kind_index msg));
      g.handlers.Engine.on_message ~src msg
    end
  in
  let on_timer ~tid:_ ~tag:_ =
    t.armed <- None;
    Wheel.advance t.wheel ~now:(t.ctx.Engine.now ()) ~fire:(fun wid payload ->
        fire t wid payload);
    rearm t
  in
  { Engine.on_message; on_timer }
