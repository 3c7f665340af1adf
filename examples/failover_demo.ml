(* Failover walkthrough: kill a main processor mid-run and watch the
   auxiliary step in, the configuration shrink, and the auxiliary go idle
   again — the lifecycle at the heart of the Cheap Paxos paper.

   Run with: dune exec examples/failover_demo.exe *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Client = Cp_smr.Client
module Replica = Cp_engine.Replica

let crash_time = 0.5

let () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:7 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Counter) ()
  in
  let total = 2000 in
  let ops = Cp_workload.Workload.counter_ops ~count:total in
  let _, client = Cluster.add_client cluster ~think:1e-3 ~ops () in
  Faults.schedule cluster [ (crash_time, Faults.Crash 1) ];

  let finished =
    Cluster.run_until cluster ~deadline:10.0 (fun () -> Client.is_finished client)
  in

  Printf.printf "crash of main 1 injected at t=%.2fs\n" crash_time;
  Printf.printf "client finished: %b (%d/%d ops)\n" finished (Client.done_count client) total;

  (* Timeline of the auxiliary's involvement. *)
  let aux = List.hd (Cluster.auxes cluster) in
  let aux_msgs = Cluster.series cluster aux "aux_msg_at" in
  (match aux_msgs with
  | [] -> print_endline "auxiliary was never engaged (?)"
  | ts ->
    let first = List.fold_left Float.min infinity ts in
    let last = List.fold_left Float.max neg_infinity ts in
    Printf.printf "auxiliary engaged %.1f ms after the crash, idle again after %.1f ms\n"
      ((first -. crash_time) *. 1e3)
      ((last -. crash_time) *. 1e3);
    Printf.printf "auxiliary handled %d messages in that window\n" (List.length ts));

  (* The configuration after repair: main 1 removed, acceptor set shrunk. *)
  let survivor = Cluster.replica cluster 0 in
  Format.printf "final configuration: %a@." Cp_proto.Config.pp
    (Replica.latest_config survivor);
  Printf.printf "reconfigurations executed: remove=%d add=%d\n"
    (Cluster.metric cluster 0 "reconfig_remove")
    (Cluster.metric cluster 0 "reconfig_add");

  (* Service gap seen by the client around the crash. *)
  let done_at = Cluster.series cluster 1000 "done_at" in
  let sorted = List.sort compare done_at in
  let gap =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (Float.max acc (b -. a)) rest
      | _ -> acc
    in
    go 0. sorted
  in
  Printf.printf "largest interruption of service: %.1f ms\n" (gap *. 1e3);

  let safe =
    match Cp_runtime.Inspect.check_safety cluster with
    | Ok () -> print_endline "safety check: OK"; true
    | Error e -> print_endline ("safety check: FAILED: " ^ e); false
  in
  if not (finished && aux_msgs <> [] && safe) then exit 1
