(* The effect vocabulary of the sans-IO replica core.

   Role modules ({!Acceptor_core}, {!Leader}, {!Learner}, {!Catchup},
   {!Lease}) never perform IO: every externally visible action — a message
   send, a stable-storage write, a timer request, a typed observability
   event — is described by a value of this type and accumulated in the
   {!State.t} effect queue. A [step] call returns the drained queue and an
   interpreter (the {!Replica} façade for both the simulator and the UDP
   runtime, or the {!Cp_mc} deep checker's pure soup interpreter) maps each
   constructor onto its runtime.

   The payloads are plain data (no closures), so effects can be compared,
   logged, and replayed — which is what makes the golden-trace equivalence
   tests and the model checker possible. *)

open Cp_proto

type t =
  | Send of int * Types.msg  (** enqueue a message to a destination id *)
  | Persist_header of Ballot.t * int
      (** durably replace the acceptor header (promise, compaction floor) *)
  | Persist_vote of int * Types.vote  (** durably record the vote at one instance *)
  | Drop_vote of int  (** drop the durable copy of one compacted vote *)
  | Persist_log of int * Types.entry  (** durably append a chosen entry *)
  | Persist_snapshot of { at : int; bytes : string }
      (** durably replace the snapshot of instances below [at] with [bytes],
          its {!Codec.encode_stable_snapshot} encoding *)
  | Drop_log of int  (** drop the durable copy of one log entry *)
  | Set_timer of string * float  (** arm a named timer after a delay *)
  | At_burst_end of string
      (** step [Timer { tag }] once, after every input of the current
          delivery burst and before its flush ({!Cp_sim.Engine.ctx}) *)
  | Emit of Cp_obs.Event.t  (** typed observability event *)
  | Metric of string * int  (** bump a counter by [n] *)
  | Observe of string * float  (** record a summary observation *)
  | Span_submitted of { client : int; seq : int; at : float }
  | Span_chosen of { instance : int; cmds : (int * int) list; at : float }
  | Span_executed of { instance : int; at : float }
  | Span_reset  (** leadership changed: open latency spans are void *)

(* Coarse profiler stage per effect class; the interpreter charges each
   effect's execution time to one of these (see {!Cp_obs.Prof}).
   [exec_persist] times the puts and removes only: the flush that makes
   them durable belongs to the runtime. *)
let stage_send = Cp_obs.Prof.stage "exec_send"

let stage_persist = Cp_obs.Prof.stage "exec_persist"

let stage_timer = Cp_obs.Prof.stage "exec_timer"

let stage_emit = Cp_obs.Prof.stage "exec_emit"

let stage_metric = Cp_obs.Prof.stage "exec_metric"

let stage_span = Cp_obs.Prof.stage "exec_span"

let stage = function
  | Send _ -> stage_send
  | Persist_header _ | Persist_vote _ | Drop_vote _ | Persist_log _ | Persist_snapshot _
  | Drop_log _ ->
    stage_persist
  | Set_timer _ | At_burst_end _ -> stage_timer
  | Emit _ -> stage_emit
  | Metric _ | Observe _ -> stage_metric
  | Span_submitted _ | Span_chosen _ | Span_executed _ | Span_reset -> stage_span

let pp ppf = function
  | Send (dst, msg) -> Format.fprintf ppf "send(%d,%a)" dst Types.pp_msg msg
  | Persist_header (promised, floor) ->
    Format.fprintf ppf "persist_header(%a,floor=%d)" Ballot.pp promised floor
  | Persist_vote (i, v) ->
    Format.fprintf ppf "persist_vote(%d,%a,%a)" i Ballot.pp v.Types.vballot Types.pp_entry
      v.Types.ventry
  | Drop_vote i -> Format.fprintf ppf "drop_vote(%d)" i
  | Persist_log (i, e) -> Format.fprintf ppf "persist_log(%d,%a)" i Types.pp_entry e
  | Persist_snapshot { at; _ } -> Format.fprintf ppf "persist_snapshot(at=%d)" at
  | Drop_log i -> Format.fprintf ppf "drop_log(%d)" i
  | Set_timer (tag, d) -> Format.fprintf ppf "set_timer(%s,%.4f)" tag d
  | At_burst_end tag -> Format.fprintf ppf "at_burst_end(%s)" tag
  | Emit ev -> Format.fprintf ppf "emit(%a)" Cp_obs.Event.pp ev
  | Metric (name, by) -> Format.fprintf ppf "metric(%s,+%d)" name by
  | Observe (name, v) -> Format.fprintf ppf "observe(%s,%g)" name v
  | Span_submitted { client; seq; _ } -> Format.fprintf ppf "span_submitted(%d.%d)" client seq
  | Span_chosen { instance; _ } -> Format.fprintf ppf "span_chosen(%d)" instance
  | Span_executed { instance; _ } -> Format.fprintf ppf "span_executed(%d)" instance
  | Span_reset -> Format.fprintf ppf "span_reset"

(** Sends only, in emission order — what a network-level interpreter (the
    model checker's message soup) consumes. *)
let sends effects =
  List.filter_map (function Send (dst, msg) -> Some (dst, msg) | _ -> None) effects
