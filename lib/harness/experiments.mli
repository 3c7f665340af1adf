(** The evaluation suite.

    The DSN 2004 paper contains no measurements; every experiment here
    quantifies one of its {e analytical} claims against the classic
    Multi-Paxos baseline on the simulated network. Each experiment returns
    its printable tables plus claim-vs-measured {!Outcome.t} verdicts for
    EXPERIMENTS.md. E14-E18 measure the implementation's own costs
    (tracing, sharding, the wire path, durable storage). E16, the
    parallel applier's scaling curve, is retired with the applier.

    [quick] shrinks sweeps and op counts; without it the full versions
    run. *)

type clock =
  | Sim  (** virtual time in the simulator: deterministic from the seed *)
  | Wall  (** wall-clock time on this host: varies run to run *)

type exp = {
  eid : string;
  title : string;
  clock : clock;  (** what the experiment's timings are measured in *)
  run : quick:bool -> (string * Cp_util.Table.t) list * Outcome.t list;
      (** Named tables and verdicts. The table named [""] is the
          experiment's main table; others hold one row per element of a
          list-valued result. *)
}

val all : exp list
(** E1 to E18, in order (DESIGN.md §10 indexes them): message cost, work
    per machine class, failover, the fault boundary, auxiliary storage,
    ablation, latency, saturation throughput, availability under repeated
    failure, read leases, batching, hardware cost, open-loop load, then
    tracing cost, the sharded fleet, the parallel executor, the wire path
    and durable storage. *)

val run : ?csv_dir:string -> quick:bool -> exp list -> Outcome.t list
(** Run [exps] in order, printing every table and then the claim-by-claim
    verdict table to stdout, and return the combined outcomes. With
    [csv_dir] (created if missing), also write each table as CSV
    ([<eid>.csv], [<eid>-<name>.csv]) plus [verdicts.csv], [index.csv]
    (eid, title, clock, outcomes, failed) and [host.csv] (cores, OCaml
    version, OS, mode).
    @raise Sys_error if [csv_dir] cannot be created or written. *)
