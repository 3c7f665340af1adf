(* Auxiliary storage in action: run thousands of commands with periodic
   main-processor failures and print how the auxiliary's stable storage
   stays flat while the mains' logs grow and get snapshotted — the paper's
   "an auxiliary processor needs only a small amount of storage".

   Run with: dune exec examples/aux_storage_demo.exe *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Client = Cp_smr.Client
module Engine = Cp_sim.Engine
module Storage = Cp_storage.Storage

let () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:5 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Cp_smr.Kv) ()
  in
  let rng = Cp_util.Rng.create 5 in
  let total = 4000 in
  let ops =
    Cp_workload.Workload.kv_ops ~rng ~keys:100 ~read_ratio:0.25 ~value_size:64
      ~count:total ()
  in
  let _, client = Cluster.add_client cluster ~think:2e-4 ~ops () in
  Faults.schedule cluster
    [ (0.2, Faults.Crash 1); (0.5, Faults.Restart 1); (0.9, Faults.Crash 1);
      (1.2, Faults.Restart 1) ];

  let eng = Cluster.engine cluster in
  let aux = List.hd (Cluster.auxes cluster) in
  print_endline "  time   committed   aux bytes   main0 bytes";
  let rec probe at =
    if at < 3.0 then
      Engine.at eng at (fun () ->
          Printf.printf "%5.2fs  %9d  %10d  %12d\n" at (Client.done_count client)
            (Storage.bytes_used (Engine.stable eng aux))
            (Storage.bytes_used (Engine.stable eng 0));
          probe (at +. 0.2))
  in
  probe 0.2;

  let finished =
    Cluster.run_until cluster ~deadline:5. (fun () -> Client.is_finished client)
  in
  Printf.printf "finished=%b committed=%d\n" finished (Client.done_count client);
  Printf.printf "final aux stable bytes: %d (log lives only on the mains)\n"
    (Storage.bytes_used (Engine.stable eng aux));
  let safe =
    match Cp_runtime.Inspect.check_safety cluster with
    | Ok () -> print_endline "safety check: OK"; true
    | Error e -> print_endline ("safety check: FAILED: " ^ e); false
  in
  if not (finished && safe) then exit 1
