(** Replicated FIFO queue. Operations: ["PUSH v"], ["POP"], ["LEN"].
    Results: ["OK"], the popped value, ["EMPTY"], or the length. *)

include Cp_proto.Appi.S

val push : string -> string

val pop : string

val len : string
