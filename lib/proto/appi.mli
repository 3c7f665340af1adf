(** Application interface for the replicated state machine.

    An application is a deterministic function over serialized operations.
    Replicas hold one {!instance} each; [snapshot]/[restore] support log
    truncation and state transfer to rejoining mains. Concrete applications
    live in the [cp_smr] library. *)

module type S = sig
  type state

  val name : string

  val init : unit -> state

  val apply : state -> string -> string
  (** Must be deterministic: equal state and op sequences yield equal
      results on every replica. *)

  val read_only : string -> bool
  (** [read_only op] declares that [apply] on [op] never mutates state, so a
      leaseholding leader may serve it from executed state without ordering a
      log instance. Must be sound: misclassifying a mutating op as read-only
      diverges the leader from the log. When unsure, return [false] — the op
      then takes the ordered path, which is always safe. *)

  val snapshot : state -> string

  val restore : string -> state
end

(** A first-class, mutable application instance as used by a replica. *)
type instance = {
  app_name : string;
  apply : string -> string;
  read_only : string -> bool;
  snapshot : unit -> string;
  restore : string -> unit;
}

val instantiate : (module S) -> instance
