(** Network model: per-message latency, loss, and duplication.

    The model is consulted once per send; all randomness comes from the
    engine's RNG so runs are deterministic. Partitions are handled separately
    by the engine's reachability predicate, because they change over time. *)

type t = {
  base_latency : float;  (** one-way propagation delay, seconds *)
  jitter : float;  (** uniform extra delay in [0, jitter) *)
  drop_prob : float;  (** independent per-message loss probability *)
  dup_prob : float;  (** probability a message is delivered twice *)
}

val lan : t
(** 50 µs ± 50 µs, lossless: an aggressive datacenter network. *)

val wan : t
(** 20 ms ± 5 ms, 0.1% loss. *)

val lossy : t
(** LAN latency with 5% loss and 2% duplication — stresses retransmission. *)

val ideal : t
(** Constant 1 ms, lossless — for unit tests that need exact timings. *)

val sample_delay : t -> Cp_util.Rng.t -> float option
(** [None] = dropped; [Some d] = deliver after [d] seconds. *)

val sample_duplicate : t -> Cp_util.Rng.t -> bool
