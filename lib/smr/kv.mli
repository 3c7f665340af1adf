(** Replicated key-value store.

    Operations (also constructible/parsable through the typed helpers):
    ["GET k"], ["PUT k v"], ["DEL k"], ["CAS k old new"]. Results: ["OK"],
    ["NONE"], the value, or ["FAIL"] for a failed compare-and-swap. Keys and
    values must not contain spaces (the workload generators comply). *)

include Cp_proto.Appi.S

val get : string -> string

val put : string -> string -> string

val del : string -> string

val cas : string -> old:string -> new_:string -> string

type result = Ok | None_ | Value of string | Fail

val parse_result : string -> result
