(* A bank replicated with Cheap Paxos: concurrent clients transfer money
   while a main processor crashes and a repaired machine rejoins. The
   conserved-total invariant and a per-key linearizability check validate
   that the fault handling never corrupted state.

   Run with: dune exec examples/kv_bank.exe *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Client = Cp_smr.Client
module Bank = Cp_smr.Bank
module Workload = Cp_workload.Workload
module Rng = Cp_util.Rng

let accounts = 8

let opening_balance = 1000

let () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:2 in
  let cluster =
    Cluster.create ~seed:2024 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Bank) ()
  in

  (* One client opens the accounts, then four clients transfer concurrently. *)
  let _, setup =
    Cluster.add_client cluster
      ~ops:(Workload.bank_setup_ops ~accounts ~balance:opening_balance)
      ()
  in
  let ok = Cluster.run_until cluster ~deadline:5. (fun () -> Client.is_finished setup) in
  assert ok;

  let transfer_clients =
    List.init 4 (fun i ->
        let rng = Rng.create (500 + i) in
        let ops = Workload.bank_ops ~rng ~accounts ~count:400 () in
        snd (Cluster.add_client cluster ~think:1e-3 ~ops ()))
  in

  (* Crash main 1 during the run; bring it back; it rejoins via Add_main. *)
  let t0 = Cluster.now cluster in
  Faults.schedule cluster
    [ (t0 +. 0.3, Faults.Crash 1); (t0 +. 1.0, Faults.Restart 1) ];

  let all_done () = List.for_all Client.is_finished transfer_clients in
  let finished = Cluster.run_until cluster ~deadline:20. all_done in
  Printf.printf "transfers finished: %b\n" finished;

  (* Audit: the total must equal what was deposited, on every live replica. *)
  let _, auditor =
    Cluster.add_client cluster ~ops:(fun seq -> if seq = 1 then Some Bank.total else None) ()
  in
  let ok = Cluster.run_until cluster ~deadline:25. (fun () -> Client.is_finished auditor) in
  assert ok;
  let total =
    match Client.history auditor with
    | [ (_, _, _, result) ] -> int_of_string result
    | _ -> assert false
  in
  let expected = accounts * opening_balance in
  Printf.printf "bank total: %d (expected %d) -> %s\n" total expected
    (if total = expected then "conserved" else "VIOLATED");

  (* Give the repaired machine time to rejoin: it was removed while down,
     and comes back via a JoinReq -> Add_main reconfiguration. *)
  let rejoined () =
    Cp_proto.Config.is_main
      (Cp_engine.Replica.latest_config (Cluster.replica cluster 0))
      1
  in
  let back =
    Cluster.run_until cluster ~deadline:(Cluster.now cluster +. 5.) rejoined
  in
  Printf.printf "machine 1 rejoined as a main: %b\n" back;
  let cfg = Cp_engine.Replica.latest_config (Cluster.replica cluster 0) in
  Format.printf "final configuration: %a@." Cp_proto.Config.pp cfg;

  let safe =
    match Cp_runtime.Inspect.check_safety cluster with
    | Ok () -> print_endline "safety check: OK"; true
    | Error e -> print_endline ("safety check: FAILED: " ^ e); false
  in
  if not (finished && total = expected && back && safe) then exit 1
