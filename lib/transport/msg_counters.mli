(** Prebuilt handles on a transport endpoint's per-message counters
    ([msgs_sent], [sent.<kind>], [bytes_sent], [encoded_bytes],
    [msgs_recv], [bytes_recv], [recv.<kind>]), shared by {!Ring} and the
    UDP node. Bumping one costs no string formatting or hashing; the
    counter list a scrape sees is the one the string path produced, and a
    counter appears only once first bumped. *)

type t

val create : Cp_sim.Metrics.t -> t

val sent : t -> Cp_proto.Types.msg -> unit
(** One message handed to the wire: [msgs_sent] and [sent.<kind>]. *)

val encoded : t -> int -> unit
(** Its encoded length: [bytes_sent] and [encoded_bytes]. *)

val received : t -> kind:int -> bytes:int -> unit
(** One decoded frame of kind {!Cp_proto.Types.kind_index} [kind]:
    [msgs_recv], [bytes_recv] and [recv.<kind>]. *)
