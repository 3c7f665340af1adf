(** Replicated bank: accounts with non-negative balances and atomic
    transfers. The conserved-total invariant makes it a sharp correctness
    probe: any lost, duplicated, or reordered-inconsistently command shows up
    as money appearing or vanishing.

    Operations: ["OPEN a n"] (create account [a] with balance [n]),
    ["DEPOSIT a n"], ["WITHDRAW a n"], ["TRANSFER a b n"], ["BALANCE a"],
    ["TOTAL"]. Results: ["OK"], ["FAIL"] (unknown account / insufficient
    funds), or a number. *)

include Cp_proto.Appi.S

val open_ : string -> int -> string

val deposit : string -> int -> string

val withdraw : string -> int -> string

val transfer : string -> string -> int -> string

val balance : string -> string

val total : string
