(* Tests of the domain pool that runs the UDP node's per-group handlers,
   and of the SPSC ring under each worker's queue. *)

module Spsc = Cp_exec.Spsc
module Pool = Cp_exec.Pool
module Backend = Cp_exec.Backend

(* --- SPSC ring --------------------------------------------------------- *)

let test_spsc_fifo () =
  let q = Spsc.create ~capacity:8 in
  Alcotest.(check bool) "empty" true (Spsc.is_empty q);
  for i = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Spsc.try_push q i)
  done;
  Alcotest.(check bool) "full" false (Spsc.try_push q 99);
  for i = 0 to 7 do
    Alcotest.(check (option int)) (Printf.sprintf "pop %d" i) (Some i) (Spsc.try_pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.try_pop q)

let test_spsc_wrap () =
  let q = Spsc.create ~capacity:4 in
  (* Interleave pushes and pops well past the capacity to cross the ring
     boundary repeatedly. *)
  let next_in = ref 0 and next_out = ref 0 in
  for _ = 1 to 50 do
    if Spsc.try_push q !next_in then incr next_in;
    if Spsc.try_push q !next_in then incr next_in;
    match Spsc.try_pop q with
    | Some v ->
      Alcotest.(check int) "fifo across wrap" !next_out v;
      incr next_out
    | None -> Alcotest.fail "queue unexpectedly empty"
  done

(* --- Pool -------------------------------------------------------------- *)

let test_pool_runs_tasks () =
  let pool = Pool.create ~domains:2 () in
  let hits = Atomic.make 0 in
  for i = 0 to 99 do
    Pool.submit pool ~worker:(i mod 2) (fun () -> Atomic.incr hits)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all tasks ran" 100 (Atomic.get hits)

let test_pool_worker_fifo () =
  (* Tasks routed to one worker run in submission order. *)
  let pool = Pool.create ~domains:2 () in
  let log = ref [] in
  let mu = Mutex.create () in
  for i = 0 to 49 do
    Pool.submit pool ~worker:1 (fun () ->
        Mutex.lock mu;
        log := i :: !log;
        Mutex.unlock mu)
  done;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "fifo per worker" (List.init 50 Fun.id) (List.rev !log)

let test_pool_exn_isolated () =
  let pool = Pool.create ~domains:1 () in
  let after = ref false in
  Pool.submit pool ~worker:0 (fun () -> failwith "boom");
  Pool.submit pool ~worker:0 (fun () -> after := true);
  Pool.shutdown pool;
  Alcotest.(check bool) "task after exn still ran" true !after;
  let st = Pool.stats pool in
  Alcotest.(check int) "error counted"
    (if Backend.parallel then 1 else 0)
    (Array.fold_left ( + ) 0 st.Pool.errors)

let test_pool_sequential_inline () =
  let pool = Pool.create ~domains:0 () in
  Alcotest.(check int) "size 0" 0 (Pool.size pool);
  let ran = ref false in
  Pool.submit pool ~worker:3 (fun () -> ran := true);
  Alcotest.(check bool) "inline" true !ran;
  Pool.shutdown pool

let suite =
  [
    Alcotest.test_case "spsc: fifo + capacity" `Quick test_spsc_fifo;
    Alcotest.test_case "spsc: order across wrap" `Quick test_spsc_wrap;
    Alcotest.test_case "pool: runs all tasks" `Quick test_pool_runs_tasks;
    Alcotest.test_case "pool: per-worker fifo" `Quick test_pool_worker_fifo;
    Alcotest.test_case "pool: exceptions isolated" `Quick test_pool_exn_isolated;
    Alcotest.test_case "pool: domains=0 runs inline" `Quick test_pool_sequential_inline;
  ]
