(** Real-network runtime: run any node written against
    {!Cp_sim.Engine.ctx} — replicas, clients — over actual UDP sockets.

    The simulator's [ctx] is just a record of capabilities, so this module
    builds one backed by the operating system instead of the event queue:
    [send] encodes with {!Cp_proto.Codec} into a per-destination outbox
    ({!Cp_transport.Outbox}), [set_timer] goes through a per-node timer
    thread, [now] is wall-clock time, and a receiver thread decodes
    datagrams and dispatches the handlers.

    Handlers run as tasks, one group at a time: every invocation of a
    group's handlers holds that group's lock (run-to-completion, as in the
    simulator), and the burst it sends leaves as one datagram per
    destination when it returns. Wire-path health is observable via the
    [wire_syscalls], [wire_bytes], [wire_copies], [send_retries], and
    [send_drops] counters, and input that does not decode is counted in
    [wire_decode_errors].

    UDP gives exactly the failure model the protocol is built for: loss,
    duplication, reordering. Nodes address each other by node id through a
    [port_of] mapping (loopback by default). This runtime exists to show
    the protocol stack is not simulator-bound; the simulator remains the
    substrate for all measurements because it is deterministic. *)

type t

val create :
  ?host:string ->
  ?trace_capacity:int ->
  ?admin_port:int ->
  ?wheel_tick:float ->
  ?exec_domains:int ->
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
    field). [build] receives the capability record of group 0; its stable
    storage comes from [storage gid] (default: a fresh in-memory store per
    group — pass a {!Cp_storage.Wal} factory for durable disks; {!shutdown}
    closes every store, and storage counters appear in {!metrics_text} and
    the admin [/metrics], namespaced [g<gid>_] for groups other than 0),
    its RNG is seeded from [seed] and [id], its [emit] records into a
    bounded per-node trace ring of [trace_capacity] entries
    (default {!Cp_obs.Trace.default_capacity}).

    Timers of every hosted group share one {!Cp_fleet.Wheel} behind the
    timer thread — O(1) add/cancel regardless of group count — quantized
    to [wheel_tick] seconds (default 1e-3).

    Every frame carries its sender's ambient causal trace id
    ({!Cp_proto.Codec.encode_into}); incoming frames' ids are adopted before
    the handler runs, so chains propagate across machines exactly as in the
    simulator. [admin_port], when given, additionally binds a TCP listener
    on [host:admin_port] serving a minimal HTTP endpoint — see
    {!admin_response}.

    [exec_domains] (default 0) sizes the node's private {!Cp_exec.Pool}.
    At [<= 1] the pool has no workers and each task runs inline on the
    receiver or timer thread that dispatched it — the single-threaded
    runtime. At [> 1] the node starts up to that many worker domains and
    routes group [gid]'s tasks to worker [gid mod domains]: per-worker FIFO
    queues keep every group strictly serialized in arrival order, while
    distinct groups execute concurrently. One datagram's frames for one
    group form one task. {!metrics_text} and {!counter} then also report
    [exec.domains] and per-domain [exec.domain<i>.busy_ns] /
    [exec.domain<i>.tasks]. On the pre-OCaml-5 backend the pool has no
    workers and dispatch runs inline — same semantics, one domain. *)

val add_group : t -> gid:int -> build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) -> unit
(** Host an additional replica group on this node's socket, timer wheel,
    and trace ring. The primary [build] of {!create} is group 0; groups
    added here must have [gid > 0] and exchange frames with the same [gid]
    on their peers. Each group gets its own lock, metrics, outbox, RNG
    stream, stable store, and a namespaced trace-id origin
    ({!Cp_obs.Traceid.namespace}), so {!Cp_obs.Timeline} joins distinguish
    co-hosted groups. Datagrams for group ids never added are counted
    ([mux_unknown_group]) and dropped. *)

val run_for : t -> float -> unit
(** Block the calling thread for that many wall-clock seconds while the
    node keeps serving. *)

val shutdown : t -> unit
(** Stop threads and close the socket. Idempotent. *)

val with_lock : t -> (unit -> 'a) -> 'a
(** Run [f] under group 0's lock — excluding group 0's handlers, in every
    dispatch mode — for inspecting protocol state owned by the node (e.g.
    a client handle) without racing its threads. Anything [f] sends through
    group 0's ctx leaves when [f] returns. Other groups' handlers keep
    running; use {!with_group} for them. *)

val with_group : t -> gid:int -> (unit -> 'a) -> 'a
(** {!with_lock} for group [gid]. Raises [Invalid_argument] for a gid never
    added. *)

val metrics : t -> Cp_sim.Metrics.t
(** Group 0's metric store. The runtime feeds the same counters as the
    simulator's delivery path ([msgs_sent], [msgs_recv], [bytes_*],
    [sent.<kind>], [recv.<kind>]); protocol code adds its own through the
    ctx. Take {!with_lock} before reading while threads are live. Use
    {!counter} for node-wide totals, which include the other groups and
    the receive thread's drop counters. *)

val counter : t -> string -> int
(** One counter's node-wide total: every group's store, the receive
    thread's drop counters ([wire_decode_errors], [mux_unknown_group],
    unmapped-port [handler_errors]), and the pool's [exec.*] utilization
    counters. *)

val group_metrics : t -> int -> Cp_sim.Metrics.t
(** Group [gid]'s metric store. Take {!with_group} before reading while
    threads are live. *)

val trace : t -> Cp_obs.Trace.t
(** The node's bounded event-trace ring, shared by every group, fed by the
    ctx [emit] and by a [Msg_recv] record per delivered frame. *)

val metrics_text : t -> string
(** Prometheus text-exposition snapshot of the node-wide counters (as
    {!counter}) and of every group's observation series (group 0's bare,
    the others prefixed [g<gid>_]) as summaries with p50/p90/p99
    quantiles, followed by the pipeline-profile comment block
    ({!Cp_obs.Prof.render}). Takes each group's lock in turn, so never call
    it from a handler or inside {!with_lock}. *)

val admin_response : t -> string -> int * string * string
(** [(status, content_type, body)] for an admin request path — the pure
    half of the admin HTTP endpoint, exposed for tests:
    ["/healthz"] liveness, ["/metrics"] = {!metrics_text},
    ["/timeline"] the node's ring as Chrome trace-event JSON
    ({!Cp_obs.Timeline.to_chrome}); anything else is a 404. *)
