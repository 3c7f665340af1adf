(* Fixed domain pool: no work stealing, one SPSC queue per worker.

   Tasks are routed to an explicit worker index, so a caller that needs two
   tasks ordered simply sends them to the same worker — the per-worker
   queue is FIFO and each worker is single-threaded. The UDP node relies
   on it: a group's handlers all go to one worker, so they run in arrival
   order with no cross-worker waits.

   Idle workers block on a condition variable (never spin): the test and
   CI machines are small, and a spinning worker on a 1-core box would
   starve the producer. The producer avoids the mutex in the common case
   via the [asleep] flag: the worker sets it (SC atomic) before re-checking
   its queue under the mutex, so a producer that pushes and then reads
   [asleep = false] is guaranteed the worker will observe the push. *)

type task = unit -> unit

type worker = {
  q : task Spsc.t;
  m : Backend.Mutex.t; (* guards the sleep/wake handshake *)
  c : Backend.Condition.t;
  pm : Backend.Mutex.t; (* serializes producers into the SPSC queue *)
  asleep : bool Atomic.t;
  busy_ns : int Atomic.t;
  tasks_run : int Atomic.t;
  errors : int Atomic.t;
  mutable domain : Backend.Domain_.t option;
}

type t = {
  workers : worker array;
  clock : unit -> float;
  stopping : bool Atomic.t;
}

type stats = { busy_ns : int array; tasks : int array; errors : int array }

let size t = Array.length t.workers

let rec worker_loop t w =
  match Spsc.try_pop w.q with
  | Some task ->
    let t0 = t.clock () in
    (try task ()
     with _ -> Atomic.incr w.errors);
    let dt = t.clock () -. t0 in
    if dt > 0. then
      ignore (Atomic.fetch_and_add w.busy_ns (int_of_float (dt *. 1e9)));
    Atomic.incr w.tasks_run;
    worker_loop t w
  | None ->
    if not (Atomic.get t.stopping) then begin
      Backend.Mutex.lock w.m;
      Atomic.set w.asleep true;
      if Spsc.is_empty w.q && not (Atomic.get t.stopping) then
        Backend.Condition.wait w.c w.m;
      Atomic.set w.asleep false;
      Backend.Mutex.unlock w.m;
      worker_loop t w
    end

let create ?(clock = fun () -> 0.) ?(queue_capacity = 1024) ~domains () =
  let n = if Backend.parallel then max 0 domains else 0 in
  let t =
    {
      workers =
        Array.init n (fun _ ->
            {
              q = Spsc.create ~capacity:queue_capacity;
              m = Backend.Mutex.create ();
              c = Backend.Condition.create ();
              pm = Backend.Mutex.create ();
              asleep = Atomic.make false;
              busy_ns = Atomic.make 0;
              tasks_run = Atomic.make 0;
              errors = Atomic.make 0;
              domain = None;
            });
      clock;
      stopping = Atomic.make false;
    }
  in
  Array.iter
    (fun w -> w.domain <- Some (Backend.Domain_.spawn (fun () -> worker_loop t w)))
    t.workers;
  t

let wake w =
  if Atomic.get w.asleep then begin
    Backend.Mutex.lock w.m;
    Backend.Condition.signal w.c;
    Backend.Mutex.unlock w.m
  end

let submit t ~worker task =
  let n = Array.length t.workers in
  if n = 0 then task ()
  else begin
    let w = t.workers.((worker land max_int) mod n) in
    Backend.Mutex.lock w.pm;
    while not (Spsc.try_push w.q task) do
      (* Full queue: the consumer is draining; yield until a slot frees. *)
      wake w;
      Backend.cpu_relax ()
    done;
    Backend.Mutex.unlock w.pm;
    wake w
  end

let stats t =
  {
    busy_ns = Array.map (fun (w : worker) -> Atomic.get w.busy_ns) t.workers;
    tasks = Array.map (fun (w : worker) -> Atomic.get w.tasks_run) t.workers;
    errors = Array.map (fun (w : worker) -> Atomic.get w.errors) t.workers;
  }

let shutdown t =
  if not (Atomic.exchange t.stopping true) then
    Array.iter
      (fun w ->
        Backend.Mutex.lock w.m;
        Backend.Condition.broadcast w.c;
        Backend.Mutex.unlock w.m;
        match w.domain with
        | Some d ->
          Backend.Domain_.join d;
          w.domain <- None
        | None -> ())
      t.workers
