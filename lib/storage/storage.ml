(* The storage signature: what a runtime must provide to persist a replica.

   The engine's effect interpreter writes the acceptor header, one record
   per vote, chosen log entries, and snapshots through the capability value
   below, and backends — the in-memory table
   ({!Mem}), the group-commit write-ahead log ({!Wal}), the fault injector
   ({!Faulty}) — are interchangeable instances rather than hand-rolled
   hashtables. Values are bytes: the typed stable-record codecs
   ({!Cp_proto.Codec.encode_acceptor_header} and friends) live above this
   layer, so a backend never sees (or marshals) an OCaml value.

   Namespacing: [sub t ~name] derives a view whose keys are invisible to
   the parent and to sibling views, but live on the same underlying device
   and share its crash/restart lifetime — the fleet gives each co-hosted
   replica group its own view of one machine's disk. View names must not
   contain NUL: the separator byte is what keeps concatenated namespaces
   collision-free. Re-deriving a view with the same name yields the SAME
   per-view write counters (they are carried by the backend, keyed by the
   resolved prefix), so storage accounting survives re-derivation.

   Durability contract: [put]/[remove] order records but need not make them
   durable; [flush] must. The runtime hosting a replica calls [flush] once
   per delivery burst — everything the node handled before it yields — and
   before any send from that burst can be observed: the group-commit rule.
   A WAL pays one fsync per burst, however many steps and records it held,
   and a flush with nothing new to sync is free. *)

type stats = {
  writes : int;  (** [put] calls through this view *)
  bytes_written : int;  (** value bytes across those puts *)
  bytes_used : int;  (** live footprint of this view (value bytes) *)
  fsyncs : int;  (** durable syncs of the underlying device (root-wide) *)
  bytes_appended : int;  (** physical log bytes incl. framing (root-wide) *)
  segments : int;  (** live segment files (0 for memory backends) *)
  recovery_ms : float;  (** time spent rebuilding the index on open *)
}

(* The per-view mutable cell backends register under the view's resolved
   prefix; deriving the same view twice returns the same cell. *)
type view_counters = { mutable vc_writes : int; mutable vc_bytes : int }

let fresh_view_counters () = { vc_writes = 0; vc_bytes = 0 }

let register_view views ~prefix =
  match Hashtbl.find_opt views prefix with
  | Some c -> c
  | None ->
    let c = fresh_view_counters () in
    Hashtbl.replace views prefix c;
    c

let check_view_name name =
  if String.contains name '\x00' then
    invalid_arg "Storage.sub: view name contains NUL"

module type S = sig
  type t
  (** One view's handle: a namespace of a single underlying device. *)

  val backend : t -> string
  (** Backend name ("mem", "wal", "faulty(...)"). *)

  val put : t -> string -> string -> unit
  (** Persist bytes under a key, overwriting any previous value. Durable
      after the next [flush]. *)

  val get : t -> string -> string option

  val remove : t -> string -> unit

  val mem : t -> string -> bool

  val keys : t -> string list
  (** Live keys of this view, sorted. *)

  val sub : t -> name:string -> t
  (** Derive a namespaced view of the same device (see above). Raises
      [Invalid_argument] if [name] contains a NUL byte. *)

  val flush : t -> unit
  (** Make every preceding [put]/[remove] durable. The runtime calls it
      once per delivery burst (the group-commit rule); a flush with nothing
      new to sync must cost nothing. *)

  val wipe : t -> unit
  (** Erase this view's keys; wiping the {e root} erases every view —
      models a disk loss / replacement machine. *)

  val stats : t -> stats

  val close : t -> unit
  (** Release OS resources (no-op for memory backends). The handle must
      not be used afterwards. *)
end

type t = Packed : (module S with type t = 'a) * 'a -> t
(** A view paired with its backend — the value {!Cp_sim.Engine.ctx} carries
    and the effect interpreter writes through. *)

(* --- forwarders: call sites read like a plain module ------------------- *)

let backend (Packed ((module B), h)) = B.backend h

let put (Packed ((module B), h)) k v = B.put h k v

let get (Packed ((module B), h)) k = B.get h k

let remove (Packed ((module B), h)) k = B.remove h k

let mem (Packed ((module B), h)) k = B.mem h k

let keys (Packed ((module B), h)) = B.keys h

let sub (Packed ((module B), h)) ~name = Packed ((module B), B.sub h ~name)

let flush (Packed ((module B), h)) = B.flush h

let wipe (Packed ((module B), h)) = B.wipe h

let stats (Packed ((module B), h)) = B.stats h

let close (Packed ((module B), h)) = B.close h

let bytes_used t = (stats t).bytes_used

let write_count t = (stats t).writes

let bytes_written t = (stats t).bytes_written

(* Counter export for metrics surfaces (Prometheus text, admin /metrics):
   one (name, value) list, stable names, millisecond recovery time rounded
   to an int so it renders like every other counter. *)
let counter_list t =
  let s = stats t in
  [
    ("storage_writes", s.writes);
    ("storage_bytes_written", s.bytes_written);
    ("storage_bytes_used", s.bytes_used);
    ("storage_fsyncs", s.fsyncs);
    ("storage_bytes_appended", s.bytes_appended);
    ("storage_segments", s.segments);
    ("storage_recovery_ms", int_of_float (Float.round s.recovery_ms));
  ]
