(** Replicated lock service (à la Chubby's core): named mutexes with owners.
    Because lock acquisition is decided by log order, two clients racing for
    a lock get a deterministic, replica-consistent winner.

    Operations: ["ACQUIRE owner lock"], ["RELEASE owner lock"],
    ["HOLDER lock"]. Results: ["OK"], ["BUSY holder"], ["FAIL"] (release by
    non-owner), ["NONE"] (unheld). Re-acquiring a lock you already hold is
    ["OK"] (idempotent). *)

include Cp_proto.Appi.S

val acquire : owner:string -> string -> string

val release : owner:string -> string -> string

val holder : string -> string
