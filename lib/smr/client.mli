(** Closed-loop client: submits one operation at a time to the replica group,
    retrying on timeout and following redirects. A think time between
    operations turns a set of clients into a load generator with a
    controllable offered rate.

    The client records a complete invocation/response history, which the
    linearizability checker consumes, and per-operation latencies in its
    metrics (series ["latency"] and ["done_at"], counters ["ops_done"],
    ["client_retries"]). *)

open Cp_proto

type t

val create :
  Types.msg Cp_sim.Engine.ctx ->
  mains:int list ->
  timeout:float ->
  ?think:float ->
  ?is_read:(string -> bool) ->
  ops:(int -> string option) ->
  unit ->
  t
(** [ops seq] supplies the operation with 1-based sequence number [seq], or
    [None] when the client is done. [mains] is the contact list (rotated on
    timeout). Operations for which [is_read] holds are submitted as
    [ClientRead] — served by a leader lease when one is held, and through
    the log otherwise; such operations must not mutate application state.

    Retransmissions back off exponentially from [timeout] up to
    [16 *. timeout], with multiplicative jitter;
    the backoff resets when a response arrives. A redirect naming the node
    we last contacted triggers one immediate resend per retry window
    (counter ["client_fast_resends"]) instead of waiting out the delay. *)

val retry_delay : base:float -> cap:float -> attempt:int -> jitter:float -> float
(** The retransmission schedule, exposed for tests: [attempt] 0 is the first
    send. [min cap (base * 2^attempt)] scaled by a jitter factor in
    [0.75 +. 0.5 *. jitter] with [jitter] uniform in [0, 1). *)

val handlers : t -> Types.msg Cp_sim.Engine.handlers

val done_count : t -> int

val is_finished : t -> bool

val history : t -> (float * float * string * string) list
(** Completed operations as [(invoked_at, completed_at, op, result)],
    in completion order. *)
