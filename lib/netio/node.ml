module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Metrics = Cp_sim.Metrics
module Storage = Cp_storage.Storage
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs
module Outbox = Cp_transport.Outbox
module Msg_counters = Cp_transport.Msg_counters

(* The node hosts one replica group, gid 0 ({!Cp_fleet.Group_mux} is how a
   machine hosts many). Every handler invocation runs under [lock], and
   the store and then the outbox are flushed before the lock is released.
   The lock also guards the metrics, the store and the trace ring. Every
   datagram leaves through [transmit], which flushes the store first.
   [fenced] is set for good once a flush raises ([flush_store]). *)
type t = {
  id : int;
  seed : int;
  sock : Unix.file_descr;
  id_of_port : int -> int;
  start : float;
  lock : Mutex.t;
  metrics : Metrics.t;
  counters : Msg_counters.t; (* handles on [metrics] *)
  decode_ns : Metrics.counter; (* "prof.decode.ns" *)
  decode_n : Metrics.counter; (* "prof.decode.n" *)
  transmit : dst:int -> Bytes.t -> off:int -> len:int -> unit;
  outbox : Outbox.t;
  tctx : Obs.Traceid.t;
  store : Storage.t;
  fenced : bool ref; (* shared with [transmit], built before the node *)
  mutable handlers : Types.msg Engine.handlers; (* set once [build] returns *)
  burst_end : string Queue.t; (* tags asked for at the end of this task *)
  trace_ : Obs.Trace.t;
  wheel_mu : Mutex.t; (* guards [wheel] and [armed] *)
  cond : Condition.t; (* with [wheel_mu]: wakes the timer thread *)
  wheel : string Wheel.t; (* payload: the timer's tag *)
  armed : (int, unit) Hashtbl.t; (* fired by the wheel, handler not yet run *)
  admin_sock : Unix.file_descr option; (* TCP listener for /metrics etc. *)
  mutable stopping : bool;
  mutable threads : Thread.t list;
}

let now t = Unix.gettimeofday () -. t.start

(* One datagram, one accounted syscall, explicit error handling. EINTR is
   retried immediately; EAGAIN/EWOULDBLOCK (a full socket buffer) yields and
   retries a bounded number of times before counting a drop — UDP loss the
   protocol already tolerates, but observable now instead of swallowed.
   Any other error (unreachable peer, scaled-down cluster) is a lost
   datagram, also counted. *)
let send_max_retries = 8

let sendto_retry ~sock ~metrics buf ~off ~len addr =
  let rec go attempts =
    Metrics.incr metrics "wire_syscalls";
    match Unix.sendto sock buf off len [] addr with
    | _ -> Metrics.incr metrics ~by:len "wire_bytes"
    | exception Unix.Unix_error (EINTR, _, _) ->
      if attempts < send_max_retries then go (attempts + 1)
      else Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Metrics.incr metrics "send_retries";
      if attempts < send_max_retries then begin
        Thread.yield ();
        go (attempts + 1)
      end
      else Metrics.incr metrics "send_drops"
    | exception Unix.Unix_error (_, _, _) -> Metrics.incr metrics "send_drops"
  in
  go 0

(* Flush the store; true if all it was handed is now durable. A flush that
   raises fences the node for good: its in-memory promise and votes may be
   ahead of disk, and a later flush could succeed (a retried fsync after
   EIO) without restoring what was lost, so the node must never ack from
   that state again. A fenced node transmits nothing and runs no handler. *)
let flush_store ~store ~fenced ~metrics =
  (not !fenced)
  &&
  match Storage.flush store with
  | () -> true
  | exception _ ->
    fenced := true;
    Metrics.incr metrics "storage_flush_errors";
    false

(* Record into the trace ring, counting an overwrite of an unread record.
   Caller holds the lock. *)
let record t ~tid ev =
  let dropped0 = Obs.Trace.dropped t.trace_ in
  Obs.Trace.emit ~tid t.trace_ ~at:(now t) ~node:t.id ev;
  if Obs.Trace.dropped t.trace_ > dropped0 then Metrics.incr t.metrics "ring_dropped"

let emit t ev = record t ~tid:(Obs.Traceid.current t.tctx) ev

(* An exception escaping a protocol handler must not kill the thread
   running it: count it and carry on. Caller holds the lock. *)
let guard t ~where f =
  try f ()
  with exn ->
    Metrics.incr t.metrics "handler_errors";
    emit t (Obs.Event.Debug (Printf.sprintf "%s raised: %s" (where ()) (Printexc.to_string exn)))

(* Group commit at the end of a task: run the [on_timer] calls the task
   asked for at its end (one asked by such a call runs here too; a fenced
   node runs none), then flush the store once for everything the task put,
   then send the outbox, one datagram per destination. A fenced node's
   pending datagrams may ack what is not durable: drop them. *)
let commit t =
  while not (Queue.is_empty t.burst_end) do
    let tag = Queue.pop t.burst_end in
    if not !(t.fenced) then
      guard t ~where:(fun () -> Printf.sprintf "on_timer %S" tag) (fun () ->
          t.handlers.Engine.on_timer ~tid:(-1) ~tag)
  done;
  if flush_store ~store:t.store ~fenced:t.fenced ~metrics:t.metrics then Outbox.flush t.outbox
  else Outbox.clear t.outbox

(* Run [f] under the lock and commit before releasing it, whether [f]
   returned or raised. [commit] absorbs a failed flush and [transmit] a
   failed send instead of raising: raised from [Fun.protect ~finally],
   either would leave the lock held. *)
let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    commit t;
    Mutex.unlock t.lock;
    v
  | exception exn ->
    commit t;
    Mutex.unlock t.lock;
    raise exn

(* The zero-copy send path: serialize the frame directly into the outbox
   buffer for [dst] — no intermediate string, no per-send copy, no syscall
   yet. The burst one handler invocation emits leaves when [with_lock]
   commits, as one datagram per destination. A frame too large for an
   outbox buffer (never in steady state) goes out alone through a one-off
   buffer of the UDP maximum, and [wire_copies] counts it so the bench gate
   can pin the count at zero. Both mid-handler transmits (that one, and a
   full outbox buffer) go through [transmit], so they too leave only after
   the store is flushed. Caller holds the lock. *)
let send t dst msg =
  (* Client submissions start a fresh causal chain; everything else carries
     the chain of the event being handled. *)
  let tid =
    match msg with
    | Types.ClientReq _ | Types.ClientRead _ -> Obs.Traceid.mint t.tctx
    | _ -> Obs.Traceid.current t.tctx
  in
  let c = t.counters in
  Msg_counters.sent c msg;
  match Outbox.append t.outbox ~dst ~tid msg with
  | len -> Msg_counters.encoded c len
  | exception Codec.Overflow -> (
    Metrics.incr t.metrics "wire_copies";
    let buf = Bytes.create Codec.max_datagram in
    match Codec.encode_into buf ~pos:0 ~gid:0 ~tid msg with
    | len ->
      Msg_counters.encoded c len;
      t.transmit ~dst buf ~off:0 ~len
    | exception Codec.Overflow -> Metrics.incr t.metrics "send_drops")

let set_timer t ~tag delay =
  Mutex.lock t.wheel_mu;
  let wid = Wheel.add t.wheel ~at:(now t +. Float.max 0. delay) tag in
  Condition.signal t.cond;
  Mutex.unlock t.wheel_mu;
  wid

let cancel_timer t wid =
  Mutex.lock t.wheel_mu;
  Wheel.cancel t.wheel wid;
  Hashtbl.remove t.armed wid;
  Mutex.unlock t.wheel_mu

(* Claim a timer the wheel fired for its handler: false if it was cancelled
   in between, so a cancel always wins over a firing not yet run. *)
let disarm t wid =
  Mutex.lock t.wheel_mu;
  let live = Hashtbl.mem t.armed wid in
  Hashtbl.remove t.armed wid;
  Mutex.unlock t.wheel_mu;
  live

let fire_timer t wid tag () =
  if disarm t wid then
    if !(t.fenced) then Metrics.incr t.metrics "fenced_drops"
    else begin
      (* A timer step starts a fresh causal chain, as in the sim. *)
      ignore (Obs.Traceid.mint t.tctx);
      guard t ~where:(fun () -> Printf.sprintf "on_timer %S" tag) (fun () ->
          t.handlers.Engine.on_timer ~tid:wid ~tag)
    end

(* Sleep toward the wheel's next deadline in slices of at most 2 ms (so
   cancellation and shutdown stay timely; Condition has no timed wait in
   the stdlib), then fire what came due — one task per timer, each under
   the lock, run after releasing the wheel, since a handler sets timers of
   its own. *)
let timer_loop t =
  Mutex.lock t.wheel_mu;
  while not t.stopping do
    match Wheel.next_deadline t.wheel with
    | None -> Condition.wait t.cond t.wheel_mu
    | Some deadline ->
      let wait = deadline -. now t in
      if wait > 0. then begin
        Mutex.unlock t.wheel_mu;
        Thread.delay (Float.min wait 2e-3);
        Mutex.lock t.wheel_mu
      end
      else begin
        let due = ref [] in
        Wheel.advance t.wheel ~now:(now t) ~fire:(fun wid tag ->
            Hashtbl.replace t.armed wid ();
            due := (wid, tag) :: !due);
        Mutex.unlock t.wheel_mu;
        List.iter (fun (wid, tag) -> with_lock t (fire_timer t wid tag)) (List.rev !due);
        Mutex.lock t.wheel_mu
      end
  done;
  Mutex.unlock t.wheel_mu

(* One datagram's frames, in wire order, as one task under the lock: the
   replies the whole datagram provokes leave together when the lock is
   released. A frame for another group is counted and dropped, as is a
   frame reaching a fenced node, even one fenced earlier in this datagram. *)
let deliver t ~src ~decode_ns frames () =
  let m = t.metrics in
  Metrics.add t.decode_ns decode_ns;
  if decode_ns > 0 then Metrics.bump t.decode_n;
  List.iter
    (fun (f : Codec.framed) ->
      if f.f_gid <> 0 then Metrics.incr m "mux_unknown_group"
      else if !(t.fenced) then Metrics.incr m "fenced_drops"
      else begin
        let k = Types.kind_index f.f_msg in
        let kind = Types.kinds.(k) in
        Msg_counters.received t.counters ~kind:k ~bytes:f.f_bytes;
        (* Everything the handler emits/sends continues the frame's causal
           chain. *)
        Obs.Traceid.adopt t.tctx f.f_tid;
        emit t (Obs.Event.Msg_recv { src; kind; bytes = f.f_bytes });
        guard t ~where:(fun () -> "on_message " ^ kind) (fun () ->
            t.handlers.Engine.on_message ~src f.f_msg)
      end)
    frames

(* [id_of_port] is user-supplied: a datagram from an unmapped port must be
   dropped, not kill the receive thread. *)
let source t = function
  | Unix.ADDR_UNIX _ -> Some (-1)
  | Unix.ADDR_INET (_, port) -> (
    try Some (t.id_of_port port)
    with exn ->
      with_lock t (fun () ->
          Metrics.incr t.metrics "handler_errors";
          record t ~tid:Obs.Traceid.none
            (Obs.Event.Debug
               (Printf.sprintf "id_of_port %d raised: %s" port (Printexc.to_string exn))));
      None)

let recv_loop t =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not t.stopping then begin
      (* The socket has a receive timeout (set in [create]): closing a UDP
         socket does not wake a blocked recvfrom on Linux, so the loop must
         come up for air to observe [stopping]. *)
      match Unix.recvfrom t.sock buf 0 (Bytes.length buf) [] with
      | exception Unix.Unix_error (EBADF, _, _) -> ()
      | exception Unix.Unix_error _ -> loop () (* timeout, EINTR *)
      | len, peer ->
        (* Decode before taking the lock (it touches no shared state), in
           place: the decoder copies out every string it returns, and
           nothing writes [buf] until the next recvfrom. Undecodable input
           is counted and dropped. *)
        let d0 = Unix.gettimeofday () in
        (match Codec.decode_frames ~len (Bytes.unsafe_to_string buf) with
        | Error _ -> with_lock t (fun () -> Metrics.incr t.metrics "wire_decode_errors")
        | Ok frames -> (
          let decode_ns = int_of_float ((Unix.gettimeofday () -. d0) *. 1e9) in
          match source t peer with
          | Some src -> with_lock t (deliver t ~src ~decode_ns frames)
          | None -> ()));
        loop ()
    end
  in
  loop ()

(* The metric store's counters and series plus the storage counters, read
   under the lock (handlers mutate the store only under it). A read, so no
   commit. *)
let snapshot t =
  Mutex.lock t.lock;
  let snap = Metrics.snapshot t.metrics and store = Storage.counter_list t.store in
  Mutex.unlock t.lock;
  { snap with Metrics.counters = List.sort compare (snap.Metrics.counters @ store) }

let counter t name =
  Option.value (List.assoc_opt name (snapshot t).Metrics.counters) ~default:0

let metrics_text t =
  let snap = snapshot t in
  Obs.Prom.render ~counters:snap.Metrics.counters ~summaries:snap.Metrics.summaries ()
  ^ Obs.Prof.render snap.Metrics.counters

(* --- admin endpoint ---------------------------------------------------- *)

let trace_records t =
  Mutex.lock t.lock;
  let r = Obs.Trace.records t.trace_ in
  Mutex.unlock t.lock;
  r

let admin_response t path =
  match path with
  | "/healthz" -> (200, "text/plain", Printf.sprintf "ok node=%d uptime=%.3fs\n" t.id (now t))
  | "/metrics" -> (200, "text/plain", metrics_text t)
  | "/timeline" -> (200, "application/json", Obs.Timeline.to_chrome (trace_records t))
  | _ -> (404, "text/plain", "not found\n")

(* A single [write_substring] may stop short once the response outgrows the
   socket send buffer (a /timeline or /metrics body easily does): loop until
   every byte is out. EPIPE/ECONNRESET mean the scraper hung up — give up on
   this response, but don't let the exception escape to the accept loop. *)
let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()
  end

(* Symmetrically, one [recv] may return before the request line is complete
   (or split across segments on a non-local connection): read until the
   first line terminator. Bounded, and cut short by the client socket's
   receive timeout, so a dribbling client cannot wedge the accept thread. *)
let read_request_line client =
  let buf = Bytes.create 2048 in
  let rec go acc =
    if String.contains acc '\n' || String.length acc > 8192 then acc
    else begin
      match Unix.recv client buf 0 (Bytes.length buf) [] with
      | 0 -> acc
      | n -> go (acc ^ Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error _ -> acc
    end
  in
  go ""

(* Minimal HTTP/1.0 server for scrapes and debugging: one request per
   connection, GET only, served inline on the accept thread. The listener
   carries a receive timeout so accept wakes to observe [stopping]. *)
let admin_loop t sock =
  while not t.stopping do
    match Unix.accept sock with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EBADF), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | client, _peer ->
      (try
         Unix.setsockopt_float client Unix.SO_RCVTIMEO 1.0;
         let req = read_request_line client in
         let path =
           match String.split_on_char ' ' req with _ :: p :: _ -> p | _ -> "/"
         in
         let code, ctype, body = admin_response t path in
         let status = if code = 200 then "200 OK" else "404 Not Found" in
         let resp =
           Printf.sprintf
             "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
             status ctype (String.length body) body
         in
         write_all client resp 0 (String.length resp)
       with _ -> ());
      (try Unix.close client with Unix.Unix_error _ -> ())
  done

(* --- construction ------------------------------------------------------ *)

(* The capability record handed to [build]: the engine layer cannot tell it
   from the simulator's. *)
let ctx_of t =
  {
    Engine.self = t.id;
    now = (fun () -> now t);
    send = (fun dst msg -> send t dst msg);
    set_timer = (fun ?(tag = "") delay -> set_timer t ~tag delay);
    cancel_timer = (fun wid -> cancel_timer t wid);
    rng = Cp_util.Rng.create ((t.seed * 1009) + t.id);
    stable = t.store;
    metrics = t.metrics;
    emit = (fun ev -> emit t ev);
    tctx = t.tctx;
    at_burst_end = (fun tag -> Queue.push tag t.burst_end);
  }

(* The timer wheel's quantum: every timer is rounded to it. *)
let wheel_tick = 1e-3

let create ?(host = "127.0.0.1") ?admin_port
    ?(storage = fun _ -> Cp_storage.Mem.store ()) ~port_of ~id_of_port ~id ~seed ~build () =
  let inet = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 0.05;
  Unix.bind sock (Unix.ADDR_INET (inet, port_of id));
  let admin_sock =
    match admin_port with
    | None -> None
    | Some port ->
      (* A scraper that hangs up mid-response would otherwise SIGPIPE the
         whole process; with the signal ignored the write raises EPIPE,
         which [write_all] absorbs. *)
      if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 0.05;
      Unix.bind s (Unix.ADDR_INET (inet, port));
      Unix.listen s 8;
      Some s
  in
  let metrics = Metrics.create () in
  let store = storage 0 and fenced = ref false in
  (* Flushing a clean store costs nothing, so [transmit] can afford to
     flush before every datagram. A flush that fails mid-handler fences the
     node there: the handler runs on, but nothing it or any later task
     sends leaves. [port_of] is user-supplied, like [id_of_port]: a
     destination it rejects is a dropped send, not an exception escaping
     [with_lock] with the lock held. *)
  let transmit ~dst buf ~off ~len =
    if flush_store ~store ~fenced ~metrics then
      match Unix.ADDR_INET (inet, port_of dst) with
      | addr -> sendto_retry ~sock ~metrics buf ~off ~len addr
      | exception _ -> Metrics.incr metrics "send_drops"
  in
  let t =
    {
      id;
      seed;
      sock;
      id_of_port;
      start = Unix.gettimeofday ();
      lock = Mutex.create ();
      metrics;
      counters = Msg_counters.create metrics;
      decode_ns = Metrics.counter metrics "prof.decode.ns";
      decode_n = Metrics.counter metrics "prof.decode.n";
      transmit;
      outbox = Outbox.create ~send:transmit ();
      tctx = Obs.Traceid.create ~origin:id;
      store;
      fenced;
      handlers = { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
      burst_end = Queue.create ();
      trace_ = Obs.Trace.create ();
      wheel_mu = Mutex.create ();
      cond = Condition.create ();
      wheel = Wheel.create ~tick:wheel_tick ~now:0. ();
      armed = Hashtbl.create 16;
      admin_sock;
      stopping = false;
      threads = [];
    }
  in
  (* Whatever [build] sends (recovery, elections) leaves on commit. *)
  with_lock t (fun () -> t.handlers <- build (ctx_of t));
  t.threads <-
    [ Thread.create timer_loop t; Thread.create recv_loop t ]
    @ (match admin_sock with Some s -> [ Thread.create (admin_loop t) s ] | None -> []);
  t

let metrics t = t.metrics

let shutdown t =
  if not t.stopping then begin
    Mutex.lock t.wheel_mu;
    t.stopping <- true;
    Condition.signal t.cond;
    Mutex.unlock t.wheel_mu;
    (* Receiver notices [stopping] within its receive timeout; timer thread
       within its sleep slice; admin thread within its accept timeout.
       Close only after all have exited. *)
    List.iter (fun th -> try Thread.join th with _ -> ()) t.threads;
    (match t.admin_sock with
    | Some s -> ( try Unix.close s with Unix.Unix_error _ -> ())
    | None -> ());
    (* Seal the store (a WAL flushes and closes its segment fd). *)
    (try Storage.close t.store with _ -> ());
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
