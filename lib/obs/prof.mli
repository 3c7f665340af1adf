(** Pipeline profiler: per-stage wall-time accounting for the runtime loop
    (decode → step → per-effect-class execution).

    Durations are charged through a counter sink as ["prof.<stage>.ns"]
    (summed nanoseconds) and ["prof.<stage>.n"] (samples) — O(1) memory per
    stage, rendered by {!Prom.render} like any other counter. The clock is
    injected: wall time in the UDP runtime, virtual time in the simulator
    (where per-stage durations are 0 by construction and profiles
    degenerate to deterministic call counts). *)

type t

val create : clock:(unit -> float) -> count:(string -> int -> unit) -> t
(** [count name by] must bump counter [name] by [by] (e.g.
    {!Cp_sim.Metrics.incr}). The profiler applies [count] to each of a
    stage's two names once, on the stage's first record, and keeps the
    resulting [int -> unit]: a sink that does its name lookup on partial
    application (resolving a {!Cp_sim.Metrics.counter}) costs no lookup per
    record. Nothing is counted before a stage's first record. *)

type stage
(** A stage's two counter names, built once by {!stage} so the timed path
    allocates none, and a process-wide id that keys each profiler's
    resolved adders. *)

val stage : string -> stage
(** [stage "step"] charges to ["prof.step.ns"] and ["prof.step.n"]. *)

val start : t -> float
(** The clock now. [let t0 = start t in work (); record_since t stage t0]
    charges the duration of [work] to [stage] with no closure built. *)

val record_since : t -> stage -> float -> unit
(** Charge the time since [t0] (a {!start} reading) to a stage. *)

val record : t -> stage -> ns:int -> unit
(** Charge an externally measured duration (e.g. a decode timed outside the
    node lock) to a stage. *)

val summarize : (string * int) list -> (string * int * int) list
(** Extract [(stage, samples, total_ns)] rows from a counter list, sorted
    by stage name. *)

val render : (string * int) list -> string
(** Human-readable per-stage lines (comment-prefixed, safe to append to a
    Prometheus exposition); [""] if the counters carry no profile. *)
