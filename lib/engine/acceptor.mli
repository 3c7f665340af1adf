(** The Paxos acceptor, as a pure state machine.

    One acceptor serves every log instance with a single promised ballot
    (the Multi-Paxos arrangement). Vote storage is a map from instance to
    the latest accepted (ballot, entry); {!compact} discards votes below a
    floor of instances known to be chosen {e and} durably recorded by the
    mains — this is what keeps an auxiliary processor's storage bounded
    (paper §"auxiliary storage", experiment E5).

    Purity makes the module directly property-testable; the replica layers
    persistence on top by writing the whole state to {!Cp_storage.Storage} after
    each mutation. *)

type t

val create : unit -> t

val promised : t -> Cp_proto.Ballot.t

val compacted_upto : t -> int

val vote_count : t -> int

val votes_from : t -> low:int -> (int * Cp_proto.Types.vote) list
(** Accepted votes at instances ≥ [low], ascending. *)

val vote_at : t -> int -> Cp_proto.Types.vote option

type p1_result =
  | Promise of (int * Cp_proto.Types.vote) list * int
      (** votes ≥ low, and the compaction floor *)
  | P1_nack of Cp_proto.Ballot.t  (** already promised higher *)

val handle_p1a : t -> ballot:Cp_proto.Ballot.t -> low:int -> t * p1_result

type p2_result =
  | Accepted
  | P2_nack of Cp_proto.Ballot.t
  | Stale  (** instance below the compaction floor: already chosen, ignore *)

val handle_p2a :
  t -> ballot:Cp_proto.Ballot.t -> instance:int -> entry:Cp_proto.Types.entry ->
  t * p2_result

val compact : t -> upto:int -> t
(** Drop votes below [upto]; only call with a floor of durably-chosen
    instances. Never lowers an existing floor. *)

val invariant : t -> bool
(** Every stored vote's ballot ≤ promised, and no vote below the floor. *)

val export : t -> Cp_proto.Ballot.t * (int * Cp_proto.Types.vote) list * int
(** Serializable image [(promised, votes, floor)] for stable storage. *)

val import : Cp_proto.Ballot.t * (int * Cp_proto.Types.vote) list * int -> t
