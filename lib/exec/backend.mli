(** Execution backend: real OCaml 5 domains, or a sequential shim on 4.14.

    Everything in [cp_exec] goes through this signature, so the rest of the
    library compiles unchanged on both compiler legs. On the sequential
    backend [parallel] is [false], mutexes are no-ops and [Domain_.spawn]
    runs the thunk inline — the pool then never spawns and every task runs
    on the thread that submits it. *)

val parallel : bool
(** True when real domains are available. *)

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()] on OCaml 5; [1] on the shim. *)

module Mutex : sig
  type t

  val create : unit -> t

  val lock : t -> unit

  val unlock : t -> unit
end

module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> Mutex.t -> unit

  val signal : t -> unit

  val broadcast : t -> unit
end

module Domain_ : sig
  type t

  val spawn : (unit -> unit) -> t

  val join : t -> unit
end

val cpu_relax : unit -> unit
