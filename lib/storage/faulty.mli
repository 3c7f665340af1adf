(** Fault injection for storage backends.

    Two depths: {!io} wraps the WAL's syscall surface for byte-granular
    torn-tail injection (crash after N bytes, short writes); {!store} wraps
    any packed store for op-granular crash points (before the Nth put,
    remove or flush). {!Crash} models the power cut: whatever landed before
    it is on disk, nothing after. *)

exception Crash

type plan = {
  mutable crash_after_bytes : int;
  mutable short_write : int;
  mutable crash_before_put : int;
  mutable crash_before_remove : int;
  mutable crash_before_flush : int;
  mutable crashed : bool;
}

val plan :
  ?crash_after_bytes:int ->
  ?short_write:int ->
  ?crash_before_put:int ->
  ?crash_before_remove:int ->
  ?crash_before_flush:int ->
  unit ->
  plan
(** All countdowns default to "never" (-1); [short_write] defaults to
    unlimited (0). Once a countdown fires, every later call raises
    {!Crash} until a fresh plan is used. [crash_before_flush] counts the
    flushes of the runtime hosting the store (replicas never flush): one
    per delivery burst, the first covering the node's [build] (on the ring
    fabric, one per pump pass), plus one before each datagram the UDP node
    transmits. *)

val io : plan -> Wal.io
(** Syscall-level injector: [crash_after_bytes] lets exactly that many
    more bytes reach the file (possibly mid-record), then raises {!Crash}
    on the following syscall; [short_write] caps bytes per write(2). *)

module View : Storage.S

type t = View.t

val store : plan -> Storage.t -> Storage.t
(** Op-level injector around an existing packed store. *)
