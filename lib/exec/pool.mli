(** Fixed domain pool with per-worker SPSC queues and no work stealing.

    Tasks are routed to an explicit worker index; each worker runs its
    queue in FIFO order on its own domain, so routing two tasks to the
    same worker orders them. Idle workers block on a condition variable
    (they never spin). On the sequential backend — or with [domains = 0]
    — the pool has no workers and {!submit} runs the task inline. *)

type t

type stats = { busy_ns : int array; tasks : int array; errors : int array }

val create :
  ?clock:(unit -> float) -> ?queue_capacity:int -> domains:int -> unit -> t
(** [clock] (seconds) feeds per-worker busy-time accounting; the default
    always returns [0.], disabling utilization stats. *)

val size : t -> int
(** Number of worker domains; [0] means sequential (submit runs inline). *)

val submit : t -> worker:int -> (unit -> unit) -> unit
(** Enqueue on worker [worker mod size]. Blocks (yielding) while that
    worker's queue is full. Exceptions escaping the task are swallowed
    and counted in {!stats}; callers that care must catch their own. *)

val stats : t -> stats

val shutdown : t -> unit
(** Stop and join all workers. Queued tasks may be dropped; only use at
    teardown. *)
