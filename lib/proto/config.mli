(** Cheap Paxos configurations.

    A configuration is the set of {e main} processors (full replicas:
    proposer, acceptor, learner, state machine) plus a fixed pool of
    {e auxiliary} machines of which the first [|mains| - 1] are {e active}
    acceptors. The acceptor set is therefore always of odd size
    [2|mains| - 1], and the mains by themselves form a majority — this is
    the invariant that lets the leader commit against mains only while
    remaining an ordinary majority-quorum Paxos.

    Removing a main shrinks the acceptor set by two (the main and the last
    active auxiliary); adding one grows it back. Classic Paxos is expressed
    as the degenerate configuration whose mains are all [2f+1] machines and
    whose pool is empty. *)

type t = private {
  epoch : int;  (** bumped by every reconfiguration *)
  mains : int list;  (** sorted, non-empty *)
  aux_pool : int list;  (** sorted; the first [|mains|-1] are active *)
}

val make : epoch:int -> mains:int list -> aux_pool:int list -> t
(** Sorts and deduplicates both lists. Raises [Invalid_argument] if [mains]
    is empty or the lists intersect. *)

val cheap : f:int -> t
(** Initial Cheap Paxos configuration for tolerance [f]: mains [0..f],
    auxiliary pool [f+1 .. 2f]. *)

val classic : n:int -> t
(** Classic configuration: all of [0..n-1] are mains, no auxiliaries. *)

val active_auxes : t -> int list
(** The first [|mains| - 1] machines of the pool. *)

val acceptors : t -> int list
(** Mains plus active auxiliaries, sorted. *)

val is_main : t -> int -> bool

val is_acceptor : t -> int -> bool

val quorum_size : t -> int
(** Majority of {!acceptors}. *)

val is_quorum : t -> int list -> bool
(** Whether the given nodes include a quorum of acceptors (duplicates are
    ignored; non-acceptors do not count). *)

val mains_are_majority : t -> bool
(** The Cheap Paxos invariant; {!make} guarantees it, tests re-check it. *)

val remove_main : t -> int -> t option
(** [None] if the node is not a main or is the last main. The removed main
    does not rejoin the pool (it is gone until re-added). *)

val add_main : t -> int -> t option
(** Re-admit a (repaired) machine as a main. [None] if already a main.
    If the machine is in the aux pool it is promoted out of it. *)

val machine_ids : t -> spare_mains:int -> int list * int list
(** The machine universe of a cluster started from [t]: its mains followed
    by [spare_mains] spare main ids numbered past every machine of [t], and
    its auxiliary pool. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
