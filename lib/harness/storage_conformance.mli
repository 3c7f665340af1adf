(** Storage conformance: one seeded cluster schedule (with a mid-run
    crash/restart) replayed over different storage backends must leave
    every replica in the same protocol state
    ({!Cp_engine.Replica.fingerprint} equal per machine), and a WAL
    directory reopened cold must replay to exactly what the live run left
    behind. *)

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
