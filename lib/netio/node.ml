module Engine = Cp_sim.Engine
module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Metrics = Cp_sim.Metrics
module Storage = Cp_storage.Storage
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs
module Outbox = Cp_transport.Outbox
module Msg_counters = Cp_transport.Msg_counters
module Imap = Map.Make (Int)

(* One hosted replica group. Group 0 is built by [create]; its lock,
   metrics, outbox, and trace context are the node's own ([with_lock],
   [metrics]). Groups added with [add_group] own private ones. Every
   handler invocation runs under its group's lock, and the group's store
   and then its outbox are flushed before the lock is released. Every
   datagram leaves through [g_transmit], which flushes the store first.
   [g_fenced] is set for good once a flush raises ([flush_store]).
   [g_tctx] is the group's ambient causal trace context: group 0's origin
   is the node id, the others' a namespaced one
   ({!Cp_obs.Traceid.namespace}). *)
type group = {
  g_gid : int;
  g_lock : Mutex.t;
  g_metrics : Metrics.t;
  g_counters : Msg_counters.t; (* handles on [g_metrics] *)
  g_decode_ns : Metrics.counter; (* "prof.decode.ns" *)
  g_decode_n : Metrics.counter; (* "prof.decode.n" *)
  g_transmit : dst:int -> Bytes.t -> off:int -> len:int -> unit;
  g_outbox : Outbox.t;
  g_tctx : Obs.Traceid.t;
  g_store : Storage.t;
  g_fenced : bool ref; (* shared with [g_transmit], built before the group *)
  mutable g_handlers : Types.msg Engine.handlers; (* set once [build] returns *)
}

type t = {
  id : int;
  seed : int;
  sock : Unix.file_descr;
  addr_of : int -> Unix.sockaddr;
  id_of_port : int -> int;
  start : float;
  storage : int -> Storage.t; (* per-group store factory, keyed by gid *)
  g0 : group;
  groups : group Imap.t Atomic.t; (* copy-on-write, so lookups take no lock *)
  wheel_mu : Mutex.t; (* guards [wheel] and [armed] *)
  cond : Condition.t; (* with [wheel_mu]: wakes the timer thread *)
  wheel : (int * string) Wheel.t; (* all groups' timers; payload (gid, tag) *)
  armed : (int, unit) Hashtbl.t; (* fired by the wheel, handler not yet run *)
  shared_mu : Mutex.t; (* guards [trace_] and [rx] *)
  trace_ : Obs.Trace.t;
  rx : Metrics.t; (* the receive thread's counters for input no group owns *)
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

(* Flush a group's store; true if all it was handed is now durable. A
   flush that raises fences the group for good: its in-memory promise and
   votes may be ahead of disk, and a later flush could succeed (a retried
   fsync after EIO) without restoring what was lost, so the group must
   never ack from that state again. A fenced group transmits nothing and
   runs no handler. *)
let flush_store ~store ~fenced ~metrics =
  (not !fenced)
  &&
  match Storage.flush store with
  | () -> true
  | exception _ ->
    fenced := true;
    Metrics.incr metrics "storage_flush_errors";
    false

(* Record into the trace ring every group shares, counting an overwrite of
   an unread record in [metrics] (the caller's, which it holds). *)
let record t ~tid ~metrics ev =
  Mutex.lock t.shared_mu;
  let dropped0 = Obs.Trace.dropped t.trace_ in
  Obs.Trace.emit ~tid t.trace_ ~at:(now t) ~node:t.id ev;
  if Obs.Trace.dropped t.trace_ > dropped0 then Metrics.incr metrics "ring_dropped";
  Mutex.unlock t.shared_mu

let emit t g ev = record t ~tid:(Obs.Traceid.current g.g_tctx) ~metrics:g.g_metrics ev

(* Group commit at the end of a task: flush the store once for everything
   the task's handlers put, then send the outbox, one datagram per
   destination. A fenced group's pending datagrams may ack what is not
   durable: drop them. *)
let commit g =
  if flush_store ~store:g.g_store ~fenced:g.g_fenced ~metrics:g.g_metrics then
    Outbox.flush g.g_outbox
  else Outbox.clear g.g_outbox

(* Run [f] under [g]'s lock and commit before releasing it, whether [f]
   returned or raised. [commit] absorbs a failed flush instead of raising:
   raised from [Fun.protect ~finally], it would leave the lock held. *)
let locked g f =
  Mutex.lock g.g_lock;
  match f () with
  | v ->
    commit g;
    Mutex.unlock g.g_lock;
    v
  | exception exn ->
    commit g;
    Mutex.unlock g.g_lock;
    raise exn

let with_lock t f = locked t.g0 f

let find_group t gid = Imap.find_opt gid (Atomic.get t.groups)

let with_group t ~gid f =
  match find_group t gid with
  | None -> invalid_arg (Printf.sprintf "Node.with_group: unknown gid %d" gid)
  | Some g -> locked g f

let group_metrics t gid =
  match find_group t gid with
  | None -> invalid_arg (Printf.sprintf "Node.group_metrics: unknown gid %d" gid)
  | Some g -> g.g_metrics

(* The receive thread counts what it drops before any group sees it under
   its own mutex, never a group's: taking group 0's lock here would
   serialize every group behind group 0. *)
let rx_count t ?(by = 1) name =
  Mutex.lock t.shared_mu;
  Metrics.incr t.rx ~by name;
  Mutex.unlock t.shared_mu

(* An exception escaping a protocol handler must not kill the thread
   running it: count it and carry on. Caller holds [g]'s lock. *)
let guard t g ~where f =
  try f ()
  with exn ->
    Metrics.incr g.g_metrics "handler_errors";
    emit t g
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" (where ()) (Printexc.to_string exn)))

(* The zero-copy send path: serialize the frame directly into the group's
   outbox buffer for [dst] — no intermediate string, no per-send copy, no
   syscall yet. The burst one handler invocation emits leaves when [locked]
   commits, as one datagram per destination. A frame too large for an
   outbox buffer (never in steady state) goes out alone through a one-off
   buffer of the UDP maximum, and [wire_copies] counts it so the bench gate
   can pin the count at zero. Both mid-handler transmits (that one, and a
   full outbox buffer) go through [g_transmit], so they too leave only
   after the store is flushed. Caller holds [g]'s lock. *)
let send g dst msg =
  (* Client submissions start a fresh causal chain; everything else carries
     the chain of the event being handled. *)
  let tid =
    match msg with
    | Types.ClientReq _ | Types.ClientRead _ -> Obs.Traceid.mint g.g_tctx
    | _ -> Obs.Traceid.current g.g_tctx
  in
  let m = g.g_metrics and c = g.g_counters in
  Msg_counters.sent c msg;
  match Outbox.append g.g_outbox ~dst ~gid:g.g_gid ~tid msg with
  | len -> Msg_counters.encoded c len
  | exception Codec.Overflow -> (
    Metrics.incr m "wire_copies";
    let buf = Bytes.create Codec.max_datagram in
    match Codec.encode_into buf ~pos:0 ~gid:g.g_gid ~tid msg with
    | len ->
      Msg_counters.encoded c len;
      g.g_transmit ~dst buf ~off:0 ~len
    | exception Codec.Overflow -> Metrics.incr m "send_drops")

(* All groups share the wheel: adding or cancelling a timer is O(1) however
   many groups the node hosts, and the timer thread sleeps toward one
   deadline — the wheel's next. *)
let set_timer t ~gid ~tag delay =
  Mutex.lock t.wheel_mu;
  let wid = Wheel.add t.wheel ~at:(now t +. Float.max 0. delay) (gid, tag) in
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

let fire_timer t g wid tag () =
  if disarm t wid then
    if !(g.g_fenced) then Metrics.incr g.g_metrics "fenced_drops"
    else begin
      (* A timer step starts a fresh causal chain, as in the sim. *)
      ignore (Obs.Traceid.mint g.g_tctx);
      guard t g ~where:(fun () -> Printf.sprintf "on_timer %S" tag) (fun () ->
          g.g_handlers.Engine.on_timer ~tid:wid ~tag)
    end

(* Sleep toward the wheel's next deadline in slices of at most 2 ms (so
   cancellation and shutdown stay timely; Condition has no timed wait in
   the stdlib), then fire what came due — one task per timer, each under
   its group's lock, run after releasing the wheel, since a handler sets
   timers of its own. *)
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
        Wheel.advance t.wheel ~now:(now t) ~fire:(fun wid p ->
            Hashtbl.replace t.armed wid ();
            due := (wid, p) :: !due);
        Mutex.unlock t.wheel_mu;
        List.iter
          (fun (wid, (gid, tag)) ->
            match find_group t gid with
            | Some g -> locked g (fire_timer t g wid tag)
            | None -> () (* unreachable: groups are never removed *))
          (List.rev !due);
        Mutex.lock t.wheel_mu
      end
  done;
  Mutex.unlock t.wheel_mu

(* One datagram's frames for one group. The receive-path counters land in
   the group's metrics; the decode time is charged once per datagram, to
   its first group. A frame reaching a fenced group, even one the group
   fenced itself on earlier in this datagram, is counted and dropped. *)
let deliver t g ~src ~decode_ns frames () =
  let m = g.g_metrics in
  Metrics.add g.g_decode_ns decode_ns;
  if decode_ns > 0 then Metrics.bump g.g_decode_n;
  List.iter
    (fun (f : Codec.framed) ->
      if !(g.g_fenced) then Metrics.incr m "fenced_drops"
      else begin
        let k = Types.kind_index f.f_msg in
        let kind = Types.kinds.(k) in
        Msg_counters.received g.g_counters ~kind:k ~bytes:f.f_bytes;
        (* Everything the handler emits/sends continues the frame's causal
           chain. *)
        Obs.Traceid.adopt g.g_tctx f.f_tid;
        emit t g (Obs.Event.Msg_recv { src; kind; bytes = f.f_bytes });
        guard t g ~where:(fun () -> "on_message " ^ kind) (fun () ->
            g.g_handlers.Engine.on_message ~src f.f_msg)
      end)
    frames

(* Run each group's share of a datagram, in wire order, as one task under
   its group's lock: the replies the whole share provokes leave together
   when the lock is released. Frames for a group this node does not host
   are counted and dropped. *)
let rec dispatch t ~src ~decode_ns = function
  | [] -> ()
  | (f : Codec.framed) :: _ as frames ->
    let mine, rest = List.partition (fun (f' : Codec.framed) -> f'.f_gid = f.f_gid) frames in
    (match find_group t f.f_gid with
    | Some g -> locked g (deliver t g ~src ~decode_ns mine)
    | None -> rx_count t ~by:(List.length mine) "mux_unknown_group");
    dispatch t ~src ~decode_ns:0 rest

(* [id_of_port] is user-supplied: a datagram from an unmapped port must be
   dropped, not kill the receive thread. *)
let source t = function
  | Unix.ADDR_UNIX _ -> Some (-1)
  | Unix.ADDR_INET (_, port) -> (
    try Some (t.id_of_port port)
    with exn ->
      rx_count t "handler_errors";
      record t ~tid:Obs.Traceid.none ~metrics:t.rx
        (Obs.Event.Debug
           (Printf.sprintf "id_of_port %d raised: %s" port (Printexc.to_string exn)));
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
        (* Decode before any lock (it touches no shared state), in place:
           the decoder copies out every string it returns, and nothing
           writes [buf] until the next recvfrom. Undecodable input is
           counted and dropped. *)
        let d0 = Unix.gettimeofday () in
        (match Codec.decode_frames ~len (Bytes.unsafe_to_string buf) with
        | Error _ -> rx_count t "wire_decode_errors"
        | Ok frames -> (
          let decode_ns = int_of_float ((Unix.gettimeofday () -. d0) *. 1e9) in
          match source t peer with
          | Some src -> dispatch t ~src ~decode_ns frames
          | None -> ()));
        loop ()
    end
  in
  loop ()

(* A group's series and storage counters: bare names for group 0,
   [g<gid>_]-prefixed otherwise. *)
let prefixed ~gid name = if gid = 0 then name else Printf.sprintf "g%d_%s" gid name

(* Counters are summed across every group and the receive thread (so
   [msgs_sent] keeps meaning the node total); observation series keep
   group 0's names and get a [g<gid>_] prefix elsewhere. Each group is read
   under its own lock. *)
let merged_snapshot t =
  let tbl = Hashtbl.create 64 in
  let add (name, v) =
    Hashtbl.replace tbl name (v + Option.value (Hashtbl.find_opt tbl name) ~default:0)
  in
  let summaries =
    Imap.fold
      (fun gid g acc ->
        (* Storage stats too: handlers mutate the store only under the
           lock. A read, so no commit. *)
        Mutex.lock g.g_lock;
        let snap = Metrics.snapshot g.g_metrics and store = Storage.counter_list g.g_store in
        Mutex.unlock g.g_lock;
        List.iter add snap.Metrics.counters;
        List.iter (fun (n, v) -> add (prefixed ~gid n, v)) store;
        acc @ List.map (fun (n, s) -> (prefixed ~gid n, s)) snap.Metrics.summaries)
      (Atomic.get t.groups) []
  in
  Mutex.lock t.shared_mu;
  List.iter add (Metrics.counters t.rx);
  Mutex.unlock t.shared_mu;
  {
    Metrics.counters = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
    summaries;
  }

let counter t name =
  let snap = merged_snapshot t in
  match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0

let metrics_text t =
  let snap = merged_snapshot t in
  Obs.Prom.render ~counters:snap.Metrics.counters ~summaries:snap.Metrics.summaries ()
  ^ Obs.Prof.render snap.Metrics.counters

(* --- admin endpoint ---------------------------------------------------- *)

let trace_records t =
  Mutex.lock t.shared_mu;
  let r = Obs.Trace.records t.trace_ in
  Mutex.unlock t.shared_mu;
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

(* --- groups -------------------------------------------------------------- *)

(* The capability record for one hosted group: the engine layer cannot tell
   it from the simulator's. Each group gets its own RNG stream. *)
let ctx_of t g =
  {
    Engine.self = t.id;
    now = (fun () -> now t);
    send = (fun dst msg -> send g dst msg);
    set_timer = (fun ?(tag = "") delay -> set_timer t ~gid:g.g_gid ~tag delay);
    cancel_timer = (fun wid -> cancel_timer t wid);
    rng = Cp_util.Rng.create ((t.seed * 1009) + t.id + (g.g_gid * 7919));
    stable = g.g_store;
    metrics = g.g_metrics;
    emit = (fun ev -> emit t g ev);
    tctx = g.g_tctx;
  }

(* Flushing a clean store costs nothing, so [transmit] can afford to flush
   before every datagram. A flush that fails mid-handler fences the group
   there: the handler runs on, but nothing it or any later task sends
   leaves. *)
let new_group ~sock ~addr_of ~storage ~gid ~tctx =
  let metrics = Metrics.create () in
  let store = storage gid and fenced = ref false in
  let transmit ~dst buf ~off ~len =
    if flush_store ~store ~fenced ~metrics then
      sendto_retry ~sock ~metrics buf ~off ~len (addr_of dst)
  in
  {
    g_gid = gid;
    g_lock = Mutex.create ();
    g_metrics = metrics;
    g_counters = Msg_counters.create metrics;
    g_decode_ns = Metrics.counter metrics "prof.decode.ns";
    g_decode_n = Metrics.counter metrics "prof.decode.n";
    g_transmit = transmit;
    g_outbox = Outbox.create ~send:transmit ();
    g_tctx = tctx;
    g_store = store;
    g_fenced = fenced;
    g_handlers = { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
  }

(* Publish [g] and build its handlers, both under its lock: frames and
   timers that reach the group meanwhile wait for the handlers instead of
   being dropped, and whatever [build] sends (recovery, elections) leaves
   on unlock. *)
let install t g ~build =
  locked g (fun () ->
      let rec publish () =
        let groups = Atomic.get t.groups in
        if Imap.mem g.g_gid groups then
          invalid_arg (Printf.sprintf "Node.add_group: duplicate gid %d" g.g_gid);
        if not (Atomic.compare_and_set t.groups groups (Imap.add g.g_gid g groups)) then
          publish ()
      in
      publish ();
      g.g_handlers <- build (ctx_of t g))

let add_group t ~gid ~build =
  if gid <= 0 then invalid_arg "Node.add_group: gid must be positive (0 is the primary)";
  if Imap.mem gid (Atomic.get t.groups) then
    invalid_arg (Printf.sprintf "Node.add_group: duplicate gid %d" gid);
  let tctx = Obs.Traceid.create ~origin:(Obs.Traceid.namespace ~node:t.id ~group:gid) in
  install t (new_group ~sock:t.sock ~addr_of:t.addr_of ~storage:t.storage ~gid ~tctx) ~build

(* The timer wheel's quantum: every group's timers are rounded to it. *)
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
  let addr_of dst = Unix.ADDR_INET (inet, port_of dst) in
  let t =
    {
      id;
      seed;
      sock;
      addr_of;
      id_of_port;
      start = Unix.gettimeofday ();
      storage;
      g0 = new_group ~sock ~addr_of ~storage ~gid:0 ~tctx:(Obs.Traceid.create ~origin:id);
      groups = Atomic.make Imap.empty;
      wheel_mu = Mutex.create ();
      cond = Condition.create ();
      wheel = Wheel.create ~tick:wheel_tick ~now:0. ();
      armed = Hashtbl.create 16;
      shared_mu = Mutex.create ();
      trace_ = Obs.Trace.create ();
      rx = Metrics.create ();
      admin_sock;
      stopping = false;
      threads = [];
    }
  in
  install t t.g0 ~build;
  t.threads <-
    [ Thread.create timer_loop t; Thread.create recv_loop t ]
    @ (match admin_sock with Some s -> [ Thread.create (admin_loop t) s ] | None -> []);
  t

let run_for _t seconds = Thread.delay seconds

let metrics t = t.g0.g_metrics

let trace t = t.trace_

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
    (* Seal the stores (a WAL flushes and closes its segment fd). *)
    Imap.iter (fun _ g -> try Storage.close g.g_store with _ -> ()) (Atomic.get t.groups);
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
