open Cp_proto
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client

type t = {
  eng : Types.msg Engine.t;
  params : Cp_engine.Params.t;
  universe_mains : int list;
  config_mains_ : int list;
  universe_auxes : int list;
  replicas : (int, Replica.t) Hashtbl.t;
  mutable next_client : int;
}

let machine_ids (initial : Config.t) ~spare_mains =
  let base = initial.Config.mains @ initial.Config.aux_pool in
  let top = List.fold_left max (-1) base in
  let spares = List.init spare_mains (fun i -> top + 1 + i) in
  (initial.Config.mains @ spares, initial.Config.aux_pool, spares)

let create ?(seed = 1) ?(net = Cp_sim.Netmodel.lan) ?(params = Cp_engine.Params.default)
    ?proc_time ?(spare_mains = 0) ?(obs = true) ?conflict_keys ?storage ~policy
    ~initial ~app () =
  let proc_time = Option.map (fun cost _msg -> cost) proc_time in
  (* Client submissions start a fresh causal chain: each command gets its
     own cross-node trace id. *)
  let fresh_trace msg =
    match Types.classify msg with
    | "client_req" | "client_read" -> true
    | _ -> false
  in
  let eng =
    Engine.create ~seed ~net ?proc_time ~obs ~fresh_trace ?storage
      ~size_of:Types.size_of ~classify:Types.classify ()
  in
  let universe_mains, universe_auxes, _ = machine_ids initial ~spare_mains in
  let t =
    {
      eng;
      params;
      universe_mains;
      config_mains_ = initial.Config.mains;
      universe_auxes;
      replicas = Hashtbl.create 16;
      next_client = 1000;
    }
  in
  let add_machine role id =
    Engine.add_node eng ~id (fun ctx ->
        (* Opt-in parallel applier (params.exec_domains > 1): per-machine so
           its counters land in the machine's metrics. *)
        let exec =
          if role = Replica.Main && params.Cp_engine.Params.exec_domains > 1 then
            Some
              (Cp_exec.Applier.create ~workers:params.Cp_engine.Params.exec_domains
                 ~count:(fun name by -> Metrics.incr ctx.Engine.metrics ~by name)
                 ~conflict_keys:
                   (Option.value conflict_keys ~default:Appi.all_conflict)
                 ())
          else None
        in
        let r =
          Replica.create ?exec ctx ~role ~policy ~params ~initial ~universe_mains
            ~universe_auxes ~app
        in
        Hashtbl.replace t.replicas id r;
        Replica.handlers r)
  in
  List.iter (add_machine Replica.Main) universe_mains;
  List.iter (add_machine Replica.Aux) universe_auxes;
  t

let engine t = t.eng

let replica t id =
  match Hashtbl.find_opt t.replicas id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Cluster.replica: unknown machine %d" id)

let mains t = t.universe_mains

let config_mains t = t.config_mains_

let auxes t = t.universe_auxes

let add_client t ?timeout ?(think = 0.) ?contacts ?is_read ~ops () =
  let timeout = match timeout with Some x -> x | None -> t.params.Cp_engine.Params.client_timeout in
  let mains = match contacts with Some c -> c | None -> t.config_mains_ in
  let id = t.next_client in
  t.next_client <- id + 1;
  let cell = ref None in
  Engine.add_node t.eng ~id (fun ctx ->
      let c = Client.create ctx ~mains ~timeout ~think ?is_read ~ops () in
      cell := Some c;
      Client.handlers c);
  (* The builder runs inside the event loop; force it now so the caller gets
     a handle immediately. *)
  Engine.run ~until:(Engine.now t.eng) t.eng;
  match !cell with
  | Some c -> (id, c)
  | None -> failwith "Cluster.add_client: client failed to start"

let add_open_client t ?timeout ~rate ?max_outstanding ~ops () =
  let timeout =
    match timeout with Some x -> x | None -> t.params.Cp_engine.Params.client_timeout
  in
  let id = t.next_client in
  t.next_client <- id + 1;
  let cell = ref None in
  Engine.add_node t.eng ~id (fun ctx ->
      let c =
        Cp_smr.Open_client.create ctx ~mains:t.config_mains_ ~timeout ~rate
          ?max_outstanding ~ops ()
      in
      cell := Some c;
      Cp_smr.Open_client.handlers c);
  Engine.run ~until:(Engine.now t.eng) t.eng;
  match !cell with
  | Some c -> (id, c)
  | None -> failwith "Cluster.add_open_client: client failed to start"

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

let leader t =
  List.find_opt
    (fun id ->
      Engine.is_up t.eng id
      &&
      match Hashtbl.find_opt t.replicas id with
      | Some r -> Replica.is_leader r
      | None -> false)
    t.universe_mains

let metric t id name = Metrics.get (Engine.metrics t.eng id) name

let sum_metric t ~ids name = List.fold_left (fun acc id -> acc + metric t id name) 0 ids

let series t id name = Metrics.series (Engine.metrics t.eng id) name
