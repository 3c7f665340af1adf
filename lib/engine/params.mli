(** Protocol tunables. All times are in seconds of simulated time; the
    defaults are tuned to {!Cp_sim.Netmodel.lan} (RTT ≈ 0.2 ms). *)

type t = {
  alpha : int;
      (** reconfiguration window: a config change chosen at instance [i]
          takes effect at [i + alpha]; also bounds the proposal pipeline *)
  tick : float;  (** period of the replica's housekeeping timer *)
  hb_interval : float;  (** leader heartbeat period *)
  leader_timeout : float;  (** follower suspects the leader after this *)
  election_fuzz : float;
      (** extra random delay before candidacy, desynchronizing candidates *)
  suspect_timeout : float;  (** leader suspects a silent main after this *)
  widen_timeout : float;
      (** how long the leader waits for main acks before engaging
          auxiliaries on a pending instance (Cheap policy) *)
  retransmit : float;  (** retransmission period for unacked proposals *)
  snapshot_every : int;  (** instances between application snapshots *)
  catchup_batch : int;
      (** max log entries per catch-up response; a response is also cut
          short of one datagram by the size model, but always carries at
          least one entry *)
  gap_threshold : int;
      (** how many instances a replica lets its chosen prefix trail a peer's
          announced commit point (a [Commit] instance or a heartbeat's
          commit floor) before actively requesting catch-up. Small values
          close gaps quickly at the cost of extra [CatchupReq] traffic;
          large values lean on ordinary [Commit] delivery. Default 8. *)
  join_interval : float;  (** period of JoinReq from a machine outside the config *)
  client_timeout : float;  (** client base retry period (backoff doubles it) *)
  enable_leases : bool;
      (** leader read leases: linearizable reads served locally by a leader
          that has fresh heartbeat echoes from every main, with all mains
          refusing new-leader promises within [lease_guard] of their last
          leader contact. Off by default. *)
  lease_guard : float;
      (** the promise-refusal window; the lease the leader trusts is
          [(1 - lease_margin) * lease_guard], leaving slack for clock-rate
          skew. Must not exceed [leader_timeout] or failover slows down. *)
  lease_margin : float;
      (** dimensionless fraction of [lease_guard] surrendered as clock-skew
          safety margin (default 0.2): a granter's refusal window outlives
          the leader's trusted lease by [lease_margin * lease_guard] even if
          the two clocks drift apart by that much over one guard period.
          Not scaled by {!scale} (it is a ratio, not a duration). *)
  batch_max_cmds : int;
      (** maximum client commands packed into one log instance (1 = no
          batching). Batching divides per-command consensus cost by the
          achieved batch size. A batch of this many commands (or of
          [batch_max_bytes]) is full and leaves as soon as [pipeline_window]
          has room; a partial one waits while any instance is in flight.
          Default 64: the cap rarely binds before [batch_max_bytes] does. *)
  batch_max_bytes : int;
      (** byte budget per batch entry: the leader stops adding commands to a
          batch once their accumulated {!Cp_proto.Types.command_size}
          reaches this (a single oversized command still ships alone).
          Default 1024, which bounds an election's frame: a new leader's
          [P1b] carries every vote at or above its prefix, up to [alpha]
          instances, and [alpha] batches of about 1 KiB (~36 KB) fit one
          65,507-byte datagram where 64 KiB batches never could. *)
  batch_linger : float;
      (** how long the leader may hold a sub-[batch_max_cmds] batch open
          waiting for more commands when no instance is in flight (while
          one is, a partial batch waits for it to be chosen whatever the
          linger; a full batch never waits). 0 (default) proposes
          immediately, so an idle leader still proposes a lone command at
          once as [App]; a positive linger trades that much latency for
          bigger batches. Flushes are driven by [tick], so the effective
          linger is quantized to it. *)
  session_window : int;
      (** cached replies retained per client session for at-most-once
          replay answers; must exceed any client's pipelining depth *)
  pipeline_window : int;
      (** maximum concurrently-pending (proposed, not yet chosen) instances.
          Only full batches use more than one slot: a partial batch waits
          while any instance is in flight and leaves when the last is
          chosen, so the pipeline holds at most one partial batch. The
          α-window still caps the pipeline regardless. Default 4: under
          load, up to 4 full batches are in flight at once. *)
  queue_limit : int;
      (** backpressure: the leader's command queue is capped at this many
          waiting commands; further client submissions are dropped (counted
          as ["backpressure_drops"]) and retried by the client's backoff. *)
  span_ttl : float;
      (** latency spans older than this that never completed (their command
          was shed, deduplicated, or superseded) are expired rather than
          retained forever; each expiry bumps ["span_dropped"]. Must exceed
          any honest client round trip including retries. *)
}

val default : t

val scale : float -> t -> t
(** Multiply every time-valued field (for slower networks). *)
