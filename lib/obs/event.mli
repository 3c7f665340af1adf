(** Typed protocol events — the vocabulary of the observability layer.

    One constructor per protocol transition worth asserting on or timing:
    elections, phase-2 widening to the auxiliaries, auxiliary
    engagement/quiescence, reconfiguration, and the per-command lifecycle
    (submitted → chosen → executed). [Msg_recv] is emitted by the runtimes
    themselves on every delivery, so a node's trace also witnesses its
    {e traffic} — the basis of the aux-quiescence checker. Events are
    deliberately representation-neutral (ints and strings, no protocol
    types), so this library sits below both the simulator and the engine. *)

type change =
  | Remove_main of int
  | Add_main of int

type t =
  | Ballot_started of { round : int; leader : int; low : int }
  | Ballot_won of { round : int; leader : int }
  | Stepped_down of { round : int; leader : int }
  | Leader_changed of { leader : int }
      (** a node's leader hint moved to [leader] *)
  | Phase2_widened of { instance : int }
      (** a pending proposal was re-targeted to include the auxiliaries *)
  | Aux_engaged of { instance : int }
      (** the leader began an engagement: auxiliaries now hold (or are about
          to hold) uncompacted votes up to [instance] *)
  | Aux_quiesced of { floor : int }
      (** the engagement ended: the announced commit floor passed every
          instance ever pushed to an auxiliary *)
  | Reconfig_proposed of change
  | Reconfig_committed of { change : change; at : int }
  | Command_submitted of { client : int; seq : int }
  | Command_chosen of { instance : int; batch : int }
  | Command_executed of { instance : int }
  | Lease_acquired of { round : int }
      (** the leader of ballot [round] now holds echoes from every main
          fresh enough to serve local reads *)
  | Lease_lost of { reason : string }
      (** the lease lapsed ([reason] is e.g. ["expired"], ["stepped_down"]);
          reads fall back to the ordered path until reacquired *)
  | Lease_read_served of { client : int; seq : int; upto : int }
      (** a read-only command answered locally from executed state; [upto]
          is the serving node's executed-prefix pointer (first unexecuted
          instance) at serve time — the no-stale-read checker compares it
          against other nodes' execution progress *)
  | Msg_recv of { src : int; kind : string; bytes : int }
  | Crashed
  | Restarted
  | Debug of string  (** free-form trace line (the old [trace] hook) *)

val kind : t -> string
(** Stable snake_case tag, used as the JSONL ["event"] field. *)

val fields : t -> (string * [ `I of int | `S of string ]) list
(** Flat payload of the event, excluding its [kind]. *)

val pp : Format.formatter -> t -> unit
