(** Real-network runtime: run any node written against
    {!Cp_sim.Engine.ctx} — replicas, clients — over actual UDP sockets.

    The simulator's [ctx] is just a record of capabilities, so this module
    builds one backed by the operating system instead of the event queue:
    [send] encodes with {!Cp_proto.Codec} into a per-destination outbox
    ({!Cp_transport.Outbox}), [set_timer] goes through a per-node timer
    thread, [now] is wall-clock time, and a receiver thread decodes
    datagrams and dispatches the handlers.

    The node hosts one replica group, group 0 ({!Cp_fleet.Group_mux} is
    how a machine hosts many); a frame for any other group is counted
    ([mux_unknown_group]) and dropped. Handlers run as tasks: every
    invocation holds the node's lock (run-to-completion, as in the
    simulator), and the burst it sends leaves as one datagram per
    destination when it returns. A task (one datagram's frames, or one
    timer) runs on the receiver or timer thread that picked it up, and is
    one delivery burst: the [on_timer] calls it asked for with
    [at_burst_end] run when it ends (never on a fenced node), then the
    store is flushed once, before its datagrams leave, and every transmit
    flushes the store first, so no ack leaves before what it acknowledges
    is durable. If a flush raises, the
    node is fenced: [storage_flush_errors] counts it, its pending datagrams
    are dropped, and from then on it transmits nothing and runs no handler;
    the frames and timers it refuses count in [fenced_drops]. Wire-path
    health is observable via the [wire_syscalls], [wire_bytes],
    [wire_copies], [send_retries], and [send_drops] counters (a destination
    [port_of] rejects is a drop too), and input that does not decode is
    counted in [wire_decode_errors].

    UDP gives exactly the failure model the protocol is built for: loss,
    duplication, reordering. Nodes address each other by node id through a
    [port_of] mapping (loopback by default). This runtime exists to show
    the protocol stack is not simulator-bound; the simulator remains the
    substrate for all measurements because it is deterministic. *)

type t

val create :
  ?host:string ->
  ?admin_port:int ->
  ?storage:(int -> Cp_storage.Storage.t) ->
  port_of:(int -> int) ->
  id_of_port:(int -> int) ->
  id:int ->
  seed:int ->
  build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) ->
  unit ->
  t
(** Bind [host:port_of id] (default host 127.0.0.1) and start the receiver
    and timer threads. [id_of_port] inverts [port_of] so that the [src]
    passed to handlers is a node id (datagrams carry no explicit sender
    field). [build] receives the node's capability record; its stable
    storage is [storage 0] (default: a fresh in-memory store — pass a
    {!Cp_storage.Wal} factory for a durable disk; {!shutdown} closes it,
    and its counters appear in {!metrics_text} and the admin [/metrics]),
    its RNG is seeded from [seed] and [id], its [emit] records into a
    bounded per-node trace ring of {!Cp_obs.Trace.default_capacity}
    entries.

    Timers live in one {!Cp_fleet.Wheel} behind the timer thread, quantized
    to 1 ms.

    Every frame carries its sender's ambient causal trace id
    ({!Cp_proto.Codec.encode_into}); incoming frames' ids are adopted before
    the handler runs, so chains propagate across machines exactly as in the
    simulator. [admin_port], when given, additionally binds a TCP listener
    on [host:admin_port] serving a minimal HTTP endpoint — see
    {!admin_response}. *)

val shutdown : t -> unit
(** Stop threads and close the socket. Idempotent. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] under the node's lock — excluding the handlers on both the
    receiver and the timer thread — for inspecting protocol state owned by
    the node (e.g. a client handle) without racing its threads. [f] is a
    task: anything it sends through the ctx leaves when it returns. *)

val metrics : t -> Cp_sim.Metrics.t
(** The node's metric store. The runtime feeds the same counters as the
    simulator's delivery path ([msgs_sent], [msgs_recv], [bytes_*],
    [sent.<kind>], [recv.<kind>]) and the receive thread's drop counters
    ([wire_decode_errors], [mux_unknown_group], unmapped-port
    [handler_errors]); protocol code adds its own through the ctx. Take
    {!with_lock} before reading while threads are live. *)

val counter : t -> string -> int
(** One counter's value, the store's counters included ([storage_fsyncs],
    ...); 0 if never bumped. Takes the lock. *)

val trace_records : t -> Cp_obs.Trace.record list
(** A copy, taken under the lock, of the node's bounded event-trace ring,
    fed by the ctx [emit] and by a [Msg_recv] record per delivered frame. *)

val metrics_text : t -> string
(** Prometheus text-exposition snapshot of the counters (as {!counter})
    and of the observation series as summaries with p50/p90/p99 quantiles,
    followed by the pipeline-profile comment block ({!Cp_obs.Prof.render}).
    Takes the lock, so never call it from a handler or inside
    {!with_lock}. *)

val admin_response : t -> string -> int * string * string
(** [(status, content_type, body)] for an admin request path — the pure
    half of the admin HTTP endpoint, exposed for tests:
    ["/healthz"] liveness, ["/metrics"] = {!metrics_text},
    ["/timeline"] the node's ring as Chrome trace-event JSON
    ({!Cp_obs.Timeline.to_chrome}); anything else is a 404. *)
