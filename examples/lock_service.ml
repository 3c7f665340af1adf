(* A replicated lock service: two workers race for the same lock; log order
   arbitrates deterministically, and the service keeps arbitrating across a
   leader crash.

   Run with: dune exec examples/lock_service.exe *)

module Cluster = Cp_runtime.Cluster
module Faults = Cp_runtime.Faults
module Client = Cp_smr.Client
module Lock = Cp_smr.Lock

(* Each worker repeatedly tries to acquire, and releases once it holds the
   lock. Acquisitions that lose come back as "BUSY <holder>". *)
let worker_ops ~owner ~rounds seq =
  if seq > 2 * rounds then None
  else if seq mod 2 = 1 then Some (Lock.acquire ~owner "the-lock")
  else Some (Lock.release ~owner "the-lock")

let count_wins history =
  List.length
    (List.filter
       (fun (_, _, op, result) ->
         String.length op >= 7 && String.sub op 0 7 = "ACQUIRE" && result = "OK")
       history)

let () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let cluster =
    Cluster.create ~seed:99 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Lock) ()
  in
  let rounds = 150 in
  let _, alice =
    Cluster.add_client cluster ~think:5e-4 ~ops:(worker_ops ~owner:"alice" ~rounds) ()
  in
  let _, bob =
    Cluster.add_client cluster ~think:5e-4 ~ops:(worker_ops ~owner:"bob" ~rounds) ()
  in

  (* Crash the initial leader mid-contention. *)
  Faults.schedule cluster [ (0.1, Faults.Crash 0) ];

  let all_done () = Client.is_finished alice && Client.is_finished bob in
  let finished = Cluster.run_until cluster ~deadline:20. all_done in
  Printf.printf "both workers finished: %b\n" finished;

  let a_wins = count_wins (Client.history alice) in
  let b_wins = count_wins (Client.history bob) in
  Printf.printf "alice acquired %d times, bob %d times (both raced %d rounds)\n" a_wins
    b_wins rounds;

  (* Releases by the non-holder must have failed; the lock is free now. *)
  let _, probe =
    Cluster.add_client cluster
      ~ops:(fun seq -> if seq = 1 then Some (Lock.holder "the-lock") else None)
      ()
  in
  let ok = Cluster.run_until cluster ~deadline:25. (fun () -> Client.is_finished probe) in
  assert ok;
  (match Client.history probe with
  | [ (_, _, _, holder) ] -> Printf.printf "final holder: %s\n" holder
  | _ -> assert false);

  let safe =
    match Cp_runtime.Inspect.check_safety cluster with
    | Ok () -> print_endline "safety check: OK"; true
    | Error e -> print_endline ("safety check: FAILED: " ^ e); false
  in
  if not (finished && safe) then exit 1
