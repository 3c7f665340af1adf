(* The simulated fleet: a key-sharded set of Cheap Paxos groups on one set
   of machines.

   Same machine universe as {!Cp_runtime.Cluster} — f+1 mains, f
   auxiliaries — but each machine hosts a {!Group_mux} of N independent
   replica groups, and clients route every command to its key's group
   through the {!Router}. The wire type is [(gid, msg)], the simulator
   analogue of the group id every {!Cp_proto.Codec} frame carries on UDP;
   [size_of] charges for it on top of the message.

   This is the fleet's economy argument made runnable: the auxiliaries —
   already idle in steady state for one group — are shared by all N groups,
   and the per-group metrics of the mux let the bench check quiescence in
   every group separately. *)

open Cp_proto
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client

type t = {
  eng : (int * Types.msg) Engine.t;
  router_ : Router.t;
  params : Cp_engine.Params.t;
  groups_ : int;
  universe_mains : int list;
  config_mains_ : int list;
  universe_auxes : int list;
  muxes : (int, Group_mux.t) Hashtbl.t;
  mutable next_client : int;
}

(* Bytes charged for the group id on top of [Types.size_of]: one plus the
   zig-zag varint of gid. Unchanged since first calibrated, so fleet byte
   metrics stay comparable across releases. *)
let group_overhead gid =
  let rec digits n acc = if n < 0x80 then acc else digits (n lsr 7) (acc + 1) in
  1 + digits (gid lsl 1) 1

let create ?(seed = 1) ?(net = Cp_sim.Netmodel.lan) ?(params = Cp_engine.Params.default)
    ?proc_time ?(spare_mains = 0) ?(obs = true) ?router ?storage
    ~groups ~policy ~initial ~app () =
  if groups <= 0 then invalid_arg "Fleet.create: need at least one group";
  let router_ =
    match router with
    | Some r ->
      if Router.groups r > groups then
        invalid_arg "Fleet.create: router maps slots to nonexistent groups";
      r
    | None -> Router.create ~groups ()
  in
  let proc_time = Option.map (fun cost _msg -> cost) proc_time in
  let fresh_trace = function
    | _, (Types.ClientReq _ | Types.ClientRead _) -> true
    | _ -> false
  in
  let eng =
    Engine.create ~seed ~net ?proc_time ~obs ~fresh_trace ?storage
      ~size_of:(fun (gid, msg) -> group_overhead gid + Types.size_of msg)
      ~kinds:Types.kinds
      ~kind_index:(fun (_, msg) -> Types.kind_index msg)
      ()
  in
  let universe_mains, universe_auxes = Config.machine_ids initial ~spare_mains in
  let t =
    {
      eng;
      router_;
      params;
      groups_ = groups;
      universe_mains;
      config_mains_ = initial.Config.mains;
      universe_auxes;
      muxes = Hashtbl.create 16;
      next_client = 1000;
    }
  in
  let add_machine role id =
    Engine.add_node eng ~id (fun ctx ->
        let m =
          Group_mux.create ctx ~groups ~role ~policy
            ~params ~initial ~universe_mains ~universe_auxes ~app ()
        in
        Hashtbl.replace t.muxes id m;
        Group_mux.handlers m)
  in
  List.iter (add_machine Replica.Main) universe_mains;
  List.iter (add_machine Replica.Aux) universe_auxes;
  t

let engine t = t.eng

let router t = t.router_

let groups t = t.groups_

let mux t id =
  match Hashtbl.find_opt t.muxes id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Fleet.mux: unknown machine %d" id)

let replica t id ~gid = Group_mux.replica (mux t id) gid

let mains t = t.universe_mains

let auxes t = t.universe_auxes

(* A client's capability record over the shared transport: sends inspect
   the command and tag it with its key's group, so the one closed-loop
   {!Cp_smr.Client} drives the whole fleet unchanged. Non-command messages
   (a client sends none today) default to group 0. *)
let client_ctx router_ (outer : (int * Types.msg) Engine.ctx) : Types.msg Engine.ctx =
  {
    Engine.self = outer.Engine.self;
    now = outer.Engine.now;
    send =
      (fun dst msg ->
        let gid =
          match (msg : Types.msg) with
          | Types.ClientReq { op; _ } | Types.ClientRead { op; _ } ->
            Router.group_of_op router_ op
          | _ -> 0
        in
        outer.Engine.send dst (gid, msg));
    set_timer = outer.Engine.set_timer;
    cancel_timer = outer.Engine.cancel_timer;
    rng = outer.Engine.rng;
    stable = outer.Engine.stable;
    metrics = outer.Engine.metrics;
    emit = outer.Engine.emit;
    tctx = outer.Engine.tctx;
  }

let wrap_client_handlers (h : Types.msg Engine.handlers) :
    (int * Types.msg) Engine.handlers =
  {
    Engine.on_message = (fun ~src (_gid, msg) -> h.Engine.on_message ~src msg);
    on_timer = h.Engine.on_timer;
  }

let add_client t ?timeout ?(think = 0.) ?contacts ?is_read ~ops () =
  let timeout =
    match timeout with Some x -> x | None -> t.params.Cp_engine.Params.client_timeout
  in
  let mains = match contacts with Some c -> c | None -> t.config_mains_ in
  let id = t.next_client in
  t.next_client <- id + 1;
  let cell = ref None in
  Engine.add_node t.eng ~id (fun ctx ->
      let c =
        Client.create (client_ctx t.router_ ctx) ~mains ~timeout ~think ?is_read ~ops ()
      in
      cell := Some c;
      wrap_client_handlers (Client.handlers c));
  Engine.run ~until:(Engine.now t.eng) t.eng;
  match !cell with
  | Some c -> (id, c)
  | None -> failwith "Fleet.add_client: client failed to start"

let crash t id = Engine.crash t.eng id

let restart t ?(wipe = false) id = Engine.restart t.eng ~wipe_stable:wipe id

let run ?until t = Engine.run ?until t.eng

let now t = Engine.now t.eng

let run_until t ?(step = 0.01) ~deadline cond =
  let rec go () =
    if cond () then true
    else if Engine.now t.eng >= deadline then false
    else begin
      Engine.run ~until:(Engine.now t.eng +. step) t.eng;
      go ()
    end
  in
  go ()

let leader t ~gid =
  List.find_opt
    (fun id ->
      Engine.is_up t.eng id
      &&
      match Hashtbl.find_opt t.muxes id with
      | Some m -> Replica.is_leader (Group_mux.replica m gid)
      | None -> false)
    t.universe_mains

let metric t id name = Metrics.get (Engine.metrics t.eng id) name

let group_metric t id ~gid name =
  match Hashtbl.find_opt t.muxes id with
  | None -> 0
  | Some m -> Metrics.get (Group_mux.group_metrics m gid) name

let sum_group_metric t ~ids ~gid name =
  List.fold_left (fun acc id -> acc + group_metric t id ~gid name) 0 ids

(* Per-group messages received by each auxiliary — the fleet's quiescence
   evidence: in a steady failure-free run every count stays at the handful
   of frames the group's initial election cost, for every group. *)
let aux_group_recv t =
  List.concat_map
    (fun aux ->
      List.init t.groups_ (fun gid -> (aux, gid, group_metric t aux ~gid "mux_recv")))
    t.universe_auxes
