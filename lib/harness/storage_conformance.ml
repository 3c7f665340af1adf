(* Storage conformance: one seeded cluster schedule — client workload plus a
   mid-run crash/restart of a main — replayed over different storage
   backends must leave every replica in the SAME protocol state.

   The replica never sees the backend: the effect interpreter writes typed
   stable records through {!Cp_storage.Storage} and recovery decodes them back,
   so swapping the in-memory table for the group-commit WAL must change
   nothing observable. The check is {!Cp_engine.Replica.fingerprint} — a
   canonical digest of acceptor, log, executed state, sessions, and config
   timeline — compared per machine across backends, plus a raw dump of each
   machine's store so a WAL directory can be reopened cold (fresh handles,
   real replay) and checked against what the live run left behind. *)

module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage
module Replica = Cp_engine.Replica
module Cluster = Cp_runtime.Cluster

let default_seed = 4242

let default_ops = 60

type outcome = {
  completed : bool;  (** the client finished its ops before the deadline *)
  fingerprints : (int * string) list;  (** machine id -> replica fingerprint *)
  dumps : (int * (string * string) list) list;
      (** machine id -> full store contents (sorted by key) *)
}

let dump stable =
  Storage.keys stable
  |> List.map (fun k ->
         match Storage.get stable k with
         | Some v -> (k, v)
         | None -> (k, "") (* unreachable: keys only lists live keys *))

(* Drive the seeded schedule: a closed-loop client against a Cheap Paxos
   f=1 cluster, with one main crashed at 0.6 s and restarted at 1.2 s of
   virtual time, so recovery (codec decode, WAL replay on the live handle)
   is on the measured path. Deterministic in [seed] for a fixed backend,
   and the backend cannot perturb the schedule — storage does not touch
   virtual time or the RNG. *)
let run ?(seed = default_seed) ?(ops = default_ops) ?storage () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed ?storage ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Kv) ()
  in
  let rng = Cp_util.Rng.create (seed lxor 0x5f5f) in
  let ops =
    Cp_workload.Workload.kv_ops ~rng ~keys:32 ~read_ratio:0.2 ~value_size:48 ~count:ops ()
  in
  let _, client = Cluster.add_client cluster ~think:1e-3 ~ops () in
  (match Cluster.config_mains cluster with
  | _ :: victim :: _ ->
    Engine.at (Cluster.engine cluster) 0.6 (fun () -> Cluster.crash cluster victim);
    Engine.at (Cluster.engine cluster) 1.2 (fun () -> Cluster.restart cluster victim)
  | _ -> ());
  let completed =
    Cluster.run_until cluster ~deadline:12. (fun () -> Cp_smr.Client.is_finished client)
  in
  let eng = Cluster.engine cluster in
  let ids = Cluster.mains cluster @ Cluster.auxes cluster in
  {
    completed;
    fingerprints = List.map (fun id -> (id, Replica.fingerprint (Cluster.replica cluster id))) ids;
    dumps = List.map (fun id -> (id, dump (Engine.stable eng id))) ids;
  }

type ring_load = {
  finished : bool;  (** every client finished its ops *)
  committed : int;  (** operations completed, over all clients *)
  fsyncs : int;  (** fsyncs summed over the replicas' stores *)
  elapsed_s : float;  (** wall-clock time of the load *)
}

(* The fsync cost of group commit under load: 32 closed-loop clients
   writing [ops] keys each to an f=1 cluster on the ring fabric, the
   replicas' stores from [storage] (the clients' in memory). The fabric is
   driven in 2 ms slices of virtual time until the clients are done, as the
   end-to-end benchmark's ring workloads are. *)
let ring_load ~ops ~storage =
  let seed = default_seed and clients = 32 in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let mains = initial.Cp_proto.Config.mains and auxes = initial.Cp_proto.Config.aux_pool in
  let replicas = mains @ auxes in
  let fab =
    Cp_transport.Ring.create ~seed
      ~storage:(fun id -> if List.mem id replicas then storage id else Cp_storage.Mem.store ())
      ()
  in
  List.iter
    (fun id ->
      let role = if List.mem id mains then Replica.Main else Replica.Aux in
      Cp_transport.Ring.add_node fab ~id ~build:(fun ctx ->
          Replica.handlers
            (Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
               ~params:Scenario.per_command_params ~initial ~universe_mains:mains
               ~universe_auxes:auxes ~app:(module Cp_smr.Kv))))
    replicas;
  let client_list =
    List.init clients (fun i ->
        let id = 1000 + i in
        let cell = ref None in
        let ops =
          Cp_workload.Workload.kv_ops ~rng:(Cp_util.Rng.create (seed + id)) ~keys:256
            ~read_ratio:0. ~count:ops ()
        in
        Cp_transport.Ring.add_node fab ~id ~build:(fun ctx ->
            let c =
              Cp_smr.Client.create ctx ~mains
                ~timeout:Scenario.per_command_params.Cp_engine.Params.client_timeout ~ops ()
            in
            cell := Some c;
            Cp_smr.Client.handlers c);
        Option.get !cell)
  in
  let done_ () = List.for_all Cp_smr.Client.is_finished client_list in
  let t0 = Unix.gettimeofday () in
  while (not (done_ ())) && Cp_transport.Ring.now fab < 60. do
    Cp_transport.Ring.run ~until:(Cp_transport.Ring.now fab +. 2e-3) fab
  done;
  {
    finished = done_ ();
    committed = List.fold_left (fun acc c -> acc + Cp_smr.Client.done_count c) 0 client_list;
    fsyncs =
      List.fold_left
        (fun acc id -> acc + (Storage.stats (Cp_transport.Ring.stable fab id)).Storage.fsyncs)
        0 replicas;
    elapsed_s = Unix.gettimeofday () -. t0;
  }

(* A per-machine WAL factory rooted at [dir] ([dir]/n<id> each), returning
   the factory and a closer that seals every handle it produced — call the
   closer before reopening the directories cold. *)
let wal_factory ?segment_max ?compact_min ~dir () =
  let handles = ref [] in
  let factory id =
    let s =
      Cp_storage.Wal.store ?segment_max ?compact_min
        (Filename.concat dir (Printf.sprintf "n%d" id))
    in
    handles := s :: !handles;
    s
  in
  let close_all () = List.iter (fun s -> try Storage.close s with _ -> ()) !handles in
  (factory, close_all)

(* Cold recovery: open machine [id]'s WAL directory with a fresh handle —
   a real segment replay, not the live index — and return its contents. *)
let reopen_dump ~dir id =
  let s = Cp_storage.Wal.store (Filename.concat dir (Printf.sprintf "n%d" id)) in
  let d = dump s in
  Storage.close s;
  d
