(* Quickstart: bring up a Cheap Paxos cluster tolerating one fault
   (2 mains + 1 auxiliary), replicate a key-value store, and show that the
   auxiliary did no work.

   Run with: dune exec examples/quickstart.exe *)

module Cluster = Cp_runtime.Cluster
module Client = Cp_smr.Client
module Kv = Cp_smr.Kv

let () =
  (* 1. Configuration: f = 1 gives mains {0, 1} and auxiliary {2}. *)
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  Format.printf "initial configuration: %a@." Cp_proto.Config.pp initial;

  (* 2. Build the simulated cluster around the replicated KV store. *)
  let cluster =
    Cluster.create ~seed:42 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Kv) ()
  in

  (* 3. A client writes a few keys and reads one back. *)
  let script =
    [| Kv.put "greeting" "hello"; Kv.put "answer" "42"; Kv.get "greeting";
       Kv.cas "answer" ~old:"42" ~new_:"43"; Kv.get "answer" |]
  in
  let ops seq = if seq <= Array.length script then Some script.(seq - 1) else None in
  let _, client = Cluster.add_client cluster ~ops () in

  (* 4. Run until the client is done. *)
  let finished =
    Cluster.run_until cluster ~deadline:5.0 (fun () -> Client.is_finished client)
  in
  Printf.printf "client finished: %b\n" finished;

  print_endline "client history (op -> result):";
  List.iter
    (fun (_, _, op, result) -> Printf.printf "  %-24s -> %s\n" op result)
    (Client.history client);

  (* 5. The paper's point: the auxiliary processor was never contacted. *)
  let aux_msgs = Cluster.sum_metric cluster ~ids:(Cluster.auxes cluster) "msgs_recv" in
  Printf.printf "auxiliary messages received: %d\n" aux_msgs;

  (* 6. And the replicas agree on the log. *)
  let safe =
    match Cp_runtime.Inspect.check_safety cluster with
    | Ok () -> print_endline "safety check: OK"; true
    | Error e -> print_endline ("safety check: FAILED: " ^ e); false
  in
  if not (finished && aux_msgs = 0 && safe) then exit 1
