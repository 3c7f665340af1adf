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
  catchup_batch : int;  (** max log entries per catch-up response *)
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
          achieved batch size. *)
  batch_max_bytes : int;
      (** byte budget per batch entry: the leader stops adding commands to a
          batch once their accumulated wire size reaches this (a single
          oversized command still ships alone) *)
  batch_linger : float;
      (** how long the leader may hold a sub-[batch_max_cmds] batch open
          waiting for more commands. 0 (default) proposes immediately; a
          positive linger trades that much latency for bigger batches.
          Flushes are driven by [tick], so the effective linger is quantized
          to it. *)
  session_window : int;
      (** cached replies retained per client session for at-most-once
          replay answers; must exceed any client's pipelining depth *)
  pipeline_window : int;
      (** maximum concurrently-pending (proposed, not yet chosen) instances.
          Lowering it makes commands queue behind in-flight instances, which
          is what lets batches form; the α-window still caps the pipeline
          regardless. *)
  queue_limit : int;
      (** backpressure: the leader's command queue is capped at this many
          waiting commands; further client submissions are dropped (counted
          as ["backpressure_drops"]) and retried by the client's backoff. *)
  span_ttl : float;
      (** latency spans older than this that never completed (their command
          was shed, deduplicated, or superseded) are expired rather than
          retained forever; each expiry bumps ["span_dropped"]. Must exceed
          any honest client round trip including retries. *)
  exec_domains : int;
      (** worker domains for the conflict-aware parallel applier
          ([Cp_exec.Applier]). 1 (the default) executes chosen commands
          serially on the caller — the exact pre-existing behaviour; > 1
          asks the runtime that builds the replica to attach an applier of
          that width. Clamped to the shared pool size; on OCaml 4.14 the
          sequential backend makes any value behave like 1. *)
}

val default : t

val scale : float -> t -> t
(** Multiply every time-valued field (for slower networks). *)
