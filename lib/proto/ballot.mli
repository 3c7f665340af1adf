(** Paxos ballot numbers.

    A ballot is a (round, leader id) pair ordered lexicographically, so every
    node owns an unbounded, disjoint sequence of ballots and any two distinct
    ballots are comparable. *)

type t = { round : int; leader : int }

val bottom : t
(** Smaller than every ballot a node can create; the initial promise. *)

val make : round:int -> leader:int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val succ_for : t -> leader:int -> t
(** [succ_for b ~leader] is the smallest ballot owned by [leader] that is
    greater than [b] — what a candidate picks when it has observed [b]. *)

val pp : Format.formatter -> t -> unit
