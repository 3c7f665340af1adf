(** Storage conformance: one seeded cluster schedule (with a mid-run
    crash/restart) replayed over different storage backends must leave
    every replica in the same protocol state
    ({!Cp_engine.Replica.fingerprint} equal per machine), and a WAL
    directory reopened cold must replay to exactly what the live run left
    behind. {!ring_load} measures what group commit costs in fsyncs under
    load. *)

val default_seed : int

val default_ops : int

type outcome = {
  completed : bool;  (** the client finished its ops before the deadline *)
  fingerprints : (int * string) list;  (** machine id -> replica fingerprint *)
  dumps : (int * (string * string) list) list;
      (** machine id -> full store contents (sorted by key) *)
}

val run :
  ?seed:int -> ?ops:int -> ?storage:(int -> Cp_storage.Storage.t) -> unit -> outcome
(** Run the seeded schedule over the given backend factory (default: the
    in-memory store). Deterministic in [seed] for a fixed backend. *)

type ring_load = {
  finished : bool;  (** every client finished its ops *)
  committed : int;  (** operations completed, over all clients *)
  fsyncs : int;  (** fsyncs summed over the replicas' stores *)
  elapsed_s : float;  (** wall-clock time of the load *)
}

val ring_load : ops:int -> storage:(int -> Cp_storage.Storage.t) -> ring_load
(** Group commit under load: 32 closed-loop clients each writing [ops]
    keys to an f=1 Cheap Paxos cluster on the in-process ring fabric, with
    each replica's store from [storage] (clients keep theirs in memory).
    [fsyncs / committed] is the number of fsyncs a committed operation
    costs. *)

val wal_factory :
  ?segment_max:int ->
  ?compact_min:int ->
  dir:string ->
  unit ->
  (int -> Cp_storage.Storage.t) * (unit -> unit)
(** Per-machine WAL roots under [dir]/n<id>; returns the factory and a
    closer sealing every handle it produced. *)

val reopen_dump : dir:string -> int -> (string * string) list
(** Open machine [id]'s WAL directory with a fresh handle (a real segment
    replay), dump its contents, close it. *)
