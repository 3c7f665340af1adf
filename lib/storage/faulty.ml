(* Fault injection for storage, at two depths:

   - {!io}: a {!Wal.io} wrapper that crashes the process-model after a
     byte budget, optionally mid-record (short write then [Crash]). This is
     what the torn-tail property test sweeps: crash the WAL at every byte
     offset of a workload and check recovery keeps exactly the synced
     prefix.
   - {!View}/{!store}: a {!Storage.S} wrapper around any packed store that
     crashes at op granularity (before the Nth put, remove or flush)
     for coarser schedule-level tests. Replicas never flush; their runtime
     does, so [crash_before_flush] counts runtime flushes: one per delivery
     burst (the first covers the node's [build]; on the ring fabric every
     pump pass is a burst for every endpoint), plus, on the UDP node, one
     before each datagram it transmits.

   [Crash] is the simulated power cut. Everything the wrapped store wrote
   before the crash is on "disk"; nothing after is. *)

exception Crash

type plan = {
  mutable crash_after_bytes : int; (* -1 = never *)
  mutable short_write : int; (* max bytes per write(2), 0 = unlimited *)
  mutable crash_before_put : int; (* countdown, -1 = never *)
  mutable crash_before_remove : int; (* countdown, -1 = never *)
  mutable crash_before_flush : int; (* countdown, -1 = never *)
  mutable crashed : bool;
}

let plan ?(crash_after_bytes = -1) ?(short_write = 0) ?(crash_before_put = -1)
    ?(crash_before_remove = -1) ?(crash_before_flush = -1) () =
  {
    crash_after_bytes;
    short_write;
    crash_before_put;
    crash_before_remove;
    crash_before_flush;
    crashed = false;
  }

let check p = if p.crashed then raise Crash

(* --- syscall-level injection (sits below Wal) --------------------------- *)

let io p =
  let io_write fd b off len =
    check p;
    let len = if p.short_write > 0 then min len p.short_write else len in
    let len =
      if p.crash_after_bytes >= 0 then min len p.crash_after_bytes else len
    in
    if p.crash_after_bytes = 0 then begin
      p.crashed <- true;
      raise Crash
    end;
    let n = Wal.default_io.Wal.io_write fd b off len in
    if p.crash_after_bytes >= 0 then begin
      p.crash_after_bytes <- p.crash_after_bytes - n;
      if p.crash_after_bytes = 0 then p.crashed <- true
      (* the crash fires on the NEXT syscall: these n bytes did land *)
    end;
    n
  in
  let io_fsync fd =
    check p;
    Wal.default_io.Wal.io_fsync fd
  in
  { Wal.io_write; io_fsync }

(* --- op-level injection (wraps any packed store) ------------------------ *)

module View = struct
  type t = { inner : Storage.t; p : plan }

  let backend t = "faulty(" ^ Storage.backend t.inner ^ ")"

  let tick p counter =
    check p;
    match counter () with
    | -1 -> ()
    | 0 ->
      p.crashed <- true;
      raise Crash
    | _ -> ()

  let put t k v =
    tick t.p (fun () ->
        let n = t.p.crash_before_put in
        if n > 0 then t.p.crash_before_put <- n - 1;
        n);
    Storage.put t.inner k v

  let flush t =
    tick t.p (fun () ->
        let n = t.p.crash_before_flush in
        if n > 0 then t.p.crash_before_flush <- n - 1;
        n);
    Storage.flush t.inner

  let get t k =
    check t.p;
    Storage.get t.inner k

  let remove t k =
    tick t.p (fun () ->
        let n = t.p.crash_before_remove in
        if n > 0 then t.p.crash_before_remove <- n - 1;
        n);
    Storage.remove t.inner k

  let mem t k =
    check t.p;
    Storage.mem t.inner k

  let keys t =
    check t.p;
    Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let wipe t =
    check t.p;
    Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

type t = View.t

let wrap p inner = { View.inner; p }

let store p inner = Storage.Packed ((module View), wrap p inner)
