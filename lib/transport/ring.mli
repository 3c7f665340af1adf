(** In-process ring-buffer transport: same-machine endpoints wired by SPSC
    byte rings.

    The third runtime behind {!Cp_sim.Engine.ctx} (after the simulator and
    the UDP node), for replicas co-hosted in one process: each (src, dst)
    pair gets a {!Bytering} on demand, sends serialize {e zero-copy} into
    the ring ({!Cp_proto.Codec.encode_into} straight into the ring's backing
    bytes — no intermediate string, no syscall at all), and each pump pass
    reads every ring in deterministic order, decoding records in place with the
    same {!Cp_proto.Codec.decode_frames} the UDP node uses and dispatching to
    the destination's handlers. Timers ride a {!Cp_fleet.Wheel} under the
    fabric's virtual clock, so a run is a pure function of the endpoints'
    inputs — the property the transport-conformance suite leans on.

    The fabric is single-threaded by design (one pumper); the rings
    themselves are SPSC-safe, so a future multi-domain pumper can split
    endpoints across domains without changing the wire. *)

type t
(** The fabric: links, clock, timer wheel, endpoints. *)

val create : ?seed:int -> ?storage:(int -> Cp_storage.Storage.t) -> unit -> t
(** Each link's byte ring is bounded at 64 KiB: a link starts at 1 KiB and
    doubles when a send does not fit, so memory follows each link's traffic
    while the largest frame a link accepts stays that of a 64 KiB ring
    ({!Bytering.max_record}). [seed]
    (default 1) roots every endpoint's RNG stream. [storage] supplies each
    endpoint's stable store at {!add_node} time, keyed by endpoint id
    (default: a fresh in-memory store per endpoint). *)

val add_node :
  t ->
  id:int ->
  build:(Cp_proto.Types.msg Cp_sim.Engine.ctx -> Cp_proto.Types.msg Cp_sim.Engine.handlers) ->
  unit
(** Register an endpoint: [build] receives its capability record and
    returns its handlers — the same builder shape {!Cp_sim.Engine.add_node}
    and {!Cp_netio.Node.create} take, so the one replica/client builder runs
    on all three runtimes. *)

val now : t -> float

val run : ?until:float -> t -> unit
(** Advance the fabric: alternate pump passes with firing due timers,
    moving the virtual clock from deadline to deadline, until both the
    rings and the wheel are quiescent (or the clock would pass [until],
    default 60 virtual seconds — a livelock guard).

    A pass reads every link in ascending (src, dst) order, each only up to
    the records it held when the pass started (even if it grows during the
    pass), and dispatches each record at the current virtual time. A record
    that does not decode is dropped and counted in the destination's
    [wire_decode_errors].

    Group commit: a pass starts by flushing every endpoint's store once, so
    everything a handler (message, timer or [build]) put since the last
    pass is durable before the pass reads a record. A store with nothing
    new to sync flushes for free. Handler sends land in the rings at once
    (zero-copy) but are read only by a later pass, after the flush that
    covers them, so no peer sees an ack before the state it acknowledges is
    durable.

    Fencing: an endpoint whose flush raises counts [storage_flush_errors],
    its unread outgoing records (all written since its last flush) are
    discarded, and it runs no handler again; records discarded this way and
    every record later addressed to it count in its [fenced_drops]. *)

val link : t -> src:int -> dst:int -> Bytering.t
(** The ring carrying [src]'s records to [dst], created on demand — exposed
    so tests can inject raw (e.g. corrupt) records. *)

val metrics : t -> int -> Cp_sim.Metrics.t

val trace : t -> int -> Cp_obs.Trace.t

val stable : t -> int -> Cp_storage.Storage.t
