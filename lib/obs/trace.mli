(** Per-node event trace: a bounded ring of timestamped {!Event.t}s with an
    optional live hook (for printing) and a JSONL dump/load pair.

    One trace per node, owned by the runtime (the simulator engine or the
    UDP node), which stamps time and node id at emission. Bounded capacity
    means a trace never grows a long simulation's memory; [dropped] reports
    how much history was overwritten, and checkers that need full history
    can refuse truncated traces. *)

type record = { at : float; node : int; tid : int; ev : Event.t }
(** [tid] is the trace id ({!Traceid}) of the causal chain the record
    belongs to; 0 = untraced. *)

type t

val default_capacity : int
(** 16384 records. *)

val create : ?capacity:int -> unit -> t
(** A ring holding the last [capacity] records (default
    {!default_capacity}). Storage starts at 64 slots and doubles as records
    arrive, up to [capacity]; a full ring's [emit] allocates nothing. *)

val emit : ?tid:int -> t -> at:float -> node:int -> Event.t -> unit
(** [tid] defaults to 0 (untraced). *)

val records : t -> record list
(** Retained records, oldest first. *)

val length : t -> int

val dropped : t -> int
(** Records overwritten by the ring so far; 0 means full history. *)

val clear : t -> unit

val set_hook : t -> (record -> unit) -> unit
(** Also deliver every subsequent record to [f], live (e.g. CLI printing). *)

val merge : t list -> record list
(** All retained records of several traces, sorted by time (stable). *)

val pp_record : Format.formatter -> record -> unit

(** {1 JSONL} *)

val escape : string -> string
(** Escape a string for use inside a JSON string literal (shared by the
    JSONL and Chrome trace writers). *)

val record_to_json : record -> string
(** One flat JSON object, e.g.
    [{"at":0.0213,"node":0,"event":"aux_engaged","instance":7}]. *)

val to_jsonl : record list -> string
(** One object per line. *)

val record_of_json : string -> (record, string) result

val of_jsonl : string -> (record list, string) result
(** Inverse of {!to_jsonl}; blank lines are skipped. *)
