(** Per-node metric store: named counters and named observation series.

    The engine feeds message/byte counters automatically; protocol code can
    add its own counters (e.g. ["stable.writes"]) and observations (e.g.
    commit latencies) through its {!Engine.ctx}. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit

type counter
(** A prebuilt handle on one named counter: bumping it costs a field read
    and an add, no string hashing. The name is registered on the first
    {!add} or {!bump} (even by 0), exactly when {!incr} would have created
    it, so {!counters} and every dump list the same names and values as the
    string path; a handle never bumped leaves no zero-valued entry. Handles
    survive {!reset} (they re-register on their next bump). *)

val counter : t -> string -> counter
(** [counter t name] refers to the counter {!incr}[ t name] bumps; the two
    paths may be mixed. *)

val add : counter -> int -> unit

val bump : counter -> unit
(** [bump c] is [add c 1]. *)

val get : t -> string -> int
(** 0 if the counter was never incremented. *)

val observe : t -> string -> float -> unit
(** Append a sample to a named series. *)

val series : t -> string -> float list
(** Samples in insertion order; [] if never observed. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val reset : t -> unit

(** One-call export view for the metrics exporters: all counters plus a
    {!Cp_util.Stats.summary} of every observation series, both sorted by
    name. *)
type snapshot = {
  counters : (string * int) list;
  summaries : (string * Cp_util.Stats.summary) list;
}

val snapshot : t -> snapshot
