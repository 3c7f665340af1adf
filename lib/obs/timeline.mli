(** Cross-node timeline reconstruction over merged per-node trace rings.

    Pure functions of a {!Trace.record} list (usually {!Trace.merge} of
    every node's ring): join records into causal chains by trace id,
    measure per-node duty cycles, profile auxiliary engagement windows,
    and export Chrome trace-event JSON for Perfetto. *)

val by_trace : Trace.record list -> (int * Trace.record list) list
(** Group traced records ([tid <> 0]) by trace id. Groups are ordered by
    the time of their first record; records within a group are in time
    order (stable). Untraced records are dropped. *)

val nodes_of : Trace.record list -> int list
(** Distinct node ids appearing in a group, sorted. *)

val duty_cycle :
  ?bucket:float -> node:int -> t0:float -> t1:float -> Trace.record list -> float
(** Fraction of [bucket]-wide slots (default 1ms) in [t0, t1) in which
    [node] has at least one record — 0.0 for a silent node, toward 1.0 for
    one processing continuously. The quantitative form of "the auxiliaries
    do essentially nothing". *)

type engagement = {
  started_at : float;
      (** the crash/step-down that triggered the failover ([engaged_at] if
          the trace shows none) *)
  engaged_at : float;  (** first [Aux_engaged] of the window *)
  engaged_instance : int;  (** highest instance pushed to an auxiliary *)
  elected_at : float option;  (** first [Ballot_won] at/after engagement *)
  quiesced_at : float option;
      (** the [Aux_quiesced] closing the window; [None] = still engaged at
          the end of the trace *)
  msgs_engage : int;  (** cluster-wide deliveries, engagement → election *)
  bytes_engage : int;
  msgs_settle : int;  (** cluster-wide deliveries, election → quiescence *)
  bytes_settle : int;
  aux_msgs : int;  (** deliveries to auxiliaries across the whole window *)
  aux_bytes : int;
}

val engagement_windows : auxes:int list -> Trace.record list -> engagement list
(** Every auxiliary engagement window in the trace, in time order, with
    message/byte counts per phase. A window opens at the first
    [Aux_engaged] and closes at the next [Aux_quiesced]. *)

val to_chrome : Trace.record list -> string
(** Chrome trace-event JSON (the [{"traceEvents":[...]}] wrapped format):
    one instant event per record (process lane = node, thread lane = trace
    id) plus one async begin/end pair per causal chain. Load in Perfetto
    (ui.perfetto.dev) or chrome://tracing. Deterministic: equal record
    lists render to equal bytes. *)
