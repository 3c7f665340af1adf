(** Replicated counter — the minimal application, used by the quickstart and
    by tests that only care about ordering. Operations: ["INC n"], ["GET"];
    both return the current value. *)

include Cp_proto.Appi.S

val inc : int -> string

val get : string
