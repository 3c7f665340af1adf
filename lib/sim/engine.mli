(** Deterministic discrete-event engine.

    Nodes (replicas {e and} clients) are registered with a builder function
    that receives a {!ctx} and returns message/timer handlers. The engine
    owns virtual time, a single seeded RNG tree, the network model, and
    per-node metrics and stable storage. Crashing a node discards its
    volatile state (the closures built by the builder) and invalidates its
    timers; restarting calls the builder again, so the node recovers only
    what it reads back from {!Cp_storage.Storage}.

    Two runs with the same seed, nodes, and fault schedule produce identical
    event sequences — ties in virtual time are broken by sequence number. *)

type 'm t

(** Capabilities handed to a node. [rng], [stable], [metrics] and the event
    trace behind [emit] persist across restarts of the node; handlers do
    not.

    Group commit is the runtime's job, not the node's: a node writes
    [stable] with [put]/[remove] and never flushes it. Every runtime that
    builds a [ctx] must flush [stable] once per delivery burst (everything
    the node handled before it yields: here one handler invocation, on the
    ring one pump pass, over UDP one datagram's frames or one timer) and
    before any [send] made in that burst can be observed by a peer. When
    the flush raises, those sends must not get out, and nor may any later
    one: the ring fences the endpoint, the UDP node fences the group (both
    drop what is pending and run no handler again), and here the exception
    ends {!run}.

    [at_burst_end] is the one hook into that boundary: a node that wants to
    act once the burst's inputs are all in (the leader sending a partial
    batch) asks for it, and the runtime calls the node's own
    [on_timer ~tid:(-1) ~tag] once per request, after the burst's last
    input and before its flush, so what that call puts is durable in the
    same flush and what it sends leaves with the burst. Requests run in the
    order made; one made by such a call runs in the same burst end. The
    call continues the causal chain of the burst's last input. A fenced
    node gets none. *)
type 'm ctx = {
  self : int;
  now : unit -> float;
  send : int -> 'm -> unit;
  set_timer : ?tag:string -> float -> int;
      (** [set_timer ~tag d] fires [on_timer] after [d] seconds unless
          cancelled or the node crashes first; returns a timer id. *)
  cancel_timer : int -> unit;
  rng : Cp_util.Rng.t;
  stable : Cp_storage.Storage.t;
  metrics : Metrics.t;
  emit : Cp_obs.Event.t -> unit;
      (** record a typed protocol event in the node's bounded trace
          ({!trace}), stamped with virtual time and node id *)
  tctx : Cp_obs.Traceid.t;
      (** the node's ambient causal trace context — the id stamped on
          emissions and sends. Exposed so multiplexers hosting several
          protocol instances behind one node (the fleet's {!Group_mux}) can
          re-point chains minted by their sub-instances onto it. *)
  at_burst_end : string -> unit;
      (** [at_burst_end tag] calls [on_timer ~tid:(-1) ~tag] once at the end
          of the current delivery burst (see above) *)
}

type 'm handlers = {
  on_message : src:int -> 'm -> unit;
  on_timer : tid:int -> tag:string -> unit;
}

val create :
  ?seed:int ->
  ?net:Netmodel.t ->
  ?proc_time:('m -> float) ->
  ?trace_capacity:int ->
  ?obs:bool ->
  ?fresh_trace:('m -> bool) ->
  ?storage:(int -> Cp_storage.Storage.t) ->
  kinds:string array ->
  kind_index:('m -> int) ->
  size_of:('m -> int) ->
  unit ->
  'm t
(** [kinds.(kind_index m)] names the kind of message [m] for per-kind
    metrics (["sent.<kind>"] / ["recv.<kind>"]; e.g.
    {!Cp_proto.Types.kinds} and {!Cp_proto.Types.kind_index}); each node
    holds a counter handle per kind, so no message builds or hashes a
    counter name. [size_of] estimates wire size for byte counters. Default
    [seed] is 1, default network {!Netmodel.lan}.

    [proc_time] models per-node CPU capacity: each message costs that many
    seconds of the node's (single) processor, both to send and to receive.
    A message arriving at a busy node queues until the node is free, so
    nodes saturate — without it (the default) nodes have infinite capacity
    and throughput scales without bound.

    [trace_capacity] sizes each node's event ring
    (default {!Cp_obs.Trace.default_capacity}).

    [obs] (default true) turns the tracing layer on: per-node rings, the
    live hook, and causal trace-id propagation. With [obs:false] nothing is
    recorded or stamped (metrics stay on) and the event schedule is
    unchanged, so an obs-off run replays the identical simulation — the
    basis of the obs-overhead bench gate.

    [fresh_trace] (default: never) marks messages that {e start} a causal
    chain: sending one mints a fresh trace id instead of continuing the
    sender's current chain. The cluster runtime passes client submissions,
    so every command gets a distinct cross-node trace. Delivered messages
    carry their id to the destination, which adopts it for everything the
    handler emits; timer steps always mint fresh ids.

    [storage] (default: a fresh in-memory store per node) supplies each
    node's stable store at {!add_node} time, keyed by node id — pass
    {!Cp_storage.Wal.store} closures to back simulated nodes with real
    durable logs. The handle outlives crash/restart, as a disk would. *)

val add_node : 'm t -> id:int -> ('m ctx -> 'm handlers) -> unit
(** Register and start a node. Ids must be unique; they need not be dense. *)

val crash : 'm t -> int -> unit
(** Take a node down: volatile state and pending timers are lost; in-flight
    messages to it will be dropped. Stable storage survives. No-op if the
    node is already down. *)

val restart : 'm t -> ?wipe_stable:bool -> int -> unit
(** Bring a crashed node back by re-running its builder. [wipe_stable]
    models a replacement machine with an empty disk. No-op if up. *)

val is_up : 'm t -> int -> bool

val at : 'm t -> float -> (unit -> unit) -> unit
(** Schedule an engine action (fault injection, probe) at an absolute time.
    Actions run after message/timer events scheduled at the same instant. *)

val set_reachable : 'm t -> (int -> int -> bool) -> unit
(** Install a partition predicate [reachable src dst]; checked at send and at
    delivery, so healing a partition does not resurrect in-flight messages.
    Default: always reachable. *)

val run : ?until:float -> ?max_events:int -> 'm t -> unit
(** Process events until the queue empties, virtual time exceeds [until], or
    [max_events] have been processed (a livelock guard, default 50M). *)

val now : 'm t -> float

val events_processed : 'm t -> int

val node_ids : 'm t -> int list

val metrics : 'm t -> int -> Metrics.t

val stable : 'm t -> int -> Cp_storage.Storage.t

val trace : 'm t -> int -> Cp_obs.Trace.t
(** The node's event trace. It survives crash/restart (like metrics); the
    engine itself records [Msg_recv] on every delivery and
    [Crashed]/[Restarted] on faults, protocol code adds the rest via
    [ctx.emit]. *)

val traces : 'm t -> Cp_obs.Trace.t list
(** Traces of all registered nodes (unspecified order); merge with
    {!Cp_obs.Trace.merge}. *)

val rng : 'm t -> Cp_util.Rng.t
(** The engine-level RNG (distinct from any node's). *)

val on_event : 'm t -> (Cp_obs.Trace.record -> unit) -> unit
(** Receive every event of every node, live, in addition to the per-node
    rings — the successor of the old string tracer hook. *)
