module Rng = Cp_util.Rng
module Heap = Cp_util.Heap
module Obs = Cp_obs

type 'm ctx = {
  self : int;
  now : unit -> float;
  send : int -> 'm -> unit;
  set_timer : ?tag:string -> float -> int;
  cancel_timer : int -> unit;
  rng : Rng.t;
  stable : Cp_storage.Storage.t;
  metrics : Metrics.t;
  emit : Obs.Event.t -> unit;
  tctx : Obs.Traceid.t;
  at_burst_end : string -> unit;
}

type 'm handlers = {
  on_message : src:int -> 'm -> unit;
  on_timer : tid:int -> tag:string -> unit;
}

type 'm node = {
  id : int;
  builder : 'm ctx -> 'm handlers;
  mutable handlers : 'm handlers option; (* None = down *)
  mutable epoch : int; (* bumped on crash to invalidate timers *)
  mutable busy_until : float; (* single-CPU service model; see [proc_time] *)
  cancelled : (int, unit) Hashtbl.t;
  node_rng : Rng.t;
  node_stable : Cp_storage.Storage.t;
  node_metrics : Metrics.t;
  node_counters : counters;
  node_trace : Obs.Trace.t;
  node_tctx : Obs.Traceid.t; (* ambient trace id; survives restarts *)
  burst_end : string Queue.t; (* tags asked for at the end of this burst *)
  mutable ctx : 'm ctx option;
}

(* Handles on a node's per-message counters. *)
and counters = {
  msgs_sent : Metrics.counter;
  bytes_sent : Metrics.counter;
  msgs_recv : Metrics.counter;
  bytes_recv : Metrics.counter;
  sent : Metrics.counter array; (* "sent.<kind>", by kind index *)
  recv : Metrics.counter array; (* "recv.<kind>" *)
}

type 'm kind =
  | Deliver of { src : int; dst : int; msg : 'm; size : int; trace : int }
  | Timer of { node : int; tid : int; tag : string; epoch : int }
  | Action of (unit -> unit)

type 'm event = { time : float; seq : int; kind : 'm kind }

type 'm t = {
  mutable time : float;
  mutable seq : int;
  mutable next_tid : int;
  queue : 'm event Heap.t;
  nodes : (int, 'm node) Hashtbl.t;
  engine_rng : Rng.t;
  net : Netmodel.t;
  proc_time : ('m -> float) option;
  size_of : 'm -> int;
  kinds : string array; (* kind names, by kind index *)
  kind_index : 'm -> int;
  mutable reachable : int -> int -> bool;
  mutable processed : int;
  trace_capacity : int;
  obs : bool; (* tracing on: rings, trace ids, hook; metrics stay on *)
  fresh_trace : 'm -> bool; (* messages that start a new causal chain *)
  storage : int -> Cp_storage.Storage.t; (* per-node store factory, keyed by node id *)
  mutable event_hook : (Obs.Trace.record -> unit) option;
}

let event_cmp (a : _ event) (b : _ event) =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create ?(seed = 1) ?(net = Netmodel.lan) ?proc_time
    ?(trace_capacity = Obs.Trace.default_capacity) ?(obs = true)
    ?(fresh_trace = fun _ -> false) ?(storage = fun _ -> Cp_storage.Mem.store ())
    ~kinds ~kind_index ~size_of () =
  {
    time = 0.;
    seq = 0;
    next_tid = 0;
    queue = Heap.create ~cmp:event_cmp;
    nodes = Hashtbl.create 16;
    engine_rng = Rng.create seed;
    net;
    proc_time;
    size_of;
    kinds;
    kind_index;
    reachable = (fun _ _ -> true);
    processed = 0;
    trace_capacity;
    obs;
    fresh_trace;
    storage;
    event_hook = None;
  }

let now t = t.time

let events_processed t = t.processed

let rng t = t.engine_rng

let on_event t f = t.event_hook <- Some f

let set_reachable t f = t.reachable <- f

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare

let find_node t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

let metrics t id = (find_node t id).node_metrics

let stable t id = (find_node t id).node_stable

let trace t id = (find_node t id).node_trace

let traces t =
  Hashtbl.fold (fun _ n acc -> n.node_trace :: acc) t.nodes []

(* Tracing off = no rings, no trace ids, no hook; the run's event schedule
   is untouched either way, so obs on/off runs stay step-for-step identical
   (the basis of the obs-overhead bench gate). *)
let emit_event t node ev =
  if t.obs then begin
    let tid = Obs.Traceid.current node.node_tctx in
    let dropped0 = Obs.Trace.dropped node.node_trace in
    Obs.Trace.emit ~tid node.node_trace ~at:t.time ~node:node.id ev;
    if Obs.Trace.dropped node.node_trace > dropped0 then
      Metrics.incr node.node_metrics "ring_dropped";
    match t.event_hook with
    | Some f -> f { Obs.Trace.at = t.time; node = node.id; tid; ev }
    | None -> ()
  end

let push t time kind =
  t.seq <- t.seq + 1;
  Heap.push t.queue { time; seq = t.seq; kind }

let at t time f = push t (max time t.time) (Action f)

let is_up t id = (find_node t id).handlers <> None

let node_counters t m =
  let c = Metrics.counter m in
  let per_kind prefix = Array.map (fun kind -> c (prefix ^ kind)) t.kinds in
  {
    msgs_sent = c "msgs_sent";
    bytes_sent = c "bytes_sent";
    msgs_recv = c "msgs_recv";
    bytes_recv = c "bytes_recv";
    sent = per_kind "sent.";
    recv = per_kind "recv.";
  }

(* Sending: consult partition and network model now; the partition is
   re-checked at delivery time as well. *)
let do_send t node dst msg =
  let size = t.size_of msg in
  (* The outgoing message carries the sender's current trace id; messages
     that start a causal chain of their own (client submissions) mint a
     fresh one, so each command gets a distinct cross-node trace. *)
  let trace =
    if not t.obs then Obs.Traceid.none
    else if t.fresh_trace msg then Obs.Traceid.mint node.node_tctx
    else Obs.Traceid.current node.node_tctx
  in
  (match t.proc_time with
  | Some cost -> node.busy_until <- Float.max node.busy_until t.time +. cost msg
  | None -> ());
  let nc = node.node_counters in
  Metrics.bump nc.msgs_sent;
  Metrics.add nc.bytes_sent size;
  Metrics.bump nc.sent.(t.kind_index msg);
  if t.reachable node.id dst then begin
    match Netmodel.sample_delay t.net t.engine_rng with
    | None -> ()
    | Some d ->
      push t (t.time +. d) (Deliver { src = node.id; dst; msg; size; trace });
      if Netmodel.sample_duplicate t.net t.engine_rng then begin
        match Netmodel.sample_delay t.net t.engine_rng with
        | None -> ()
        | Some d' ->
          push t (t.time +. d') (Deliver { src = node.id; dst; msg; size; trace })
      end
  end

let make_ctx t node =
  let set_timer ?(tag = "") delay =
    t.next_tid <- t.next_tid + 1;
    let tid = t.next_tid in
    push t (t.time +. delay) (Timer { node = node.id; tid; tag; epoch = node.epoch });
    tid
  in
  {
    self = node.id;
    now = (fun () -> t.time);
    send = (fun dst msg -> do_send t node dst msg);
    set_timer;
    cancel_timer = (fun tid -> Hashtbl.replace node.cancelled tid ());
    rng = node.node_rng;
    stable = node.node_stable;
    metrics = node.node_metrics;
    emit = (fun ev -> emit_event t node ev);
    tctx = node.node_tctx;
    at_burst_end = (fun tag -> Queue.push tag node.burst_end);
  }

(* A delivery burst here is one handler invocation. Its burst-end requests
   run first, in the order asked (one asked by such a call runs in the same
   loop), each continuing the burst's causal chain. Its sends are queued
   events with a delay >= 0, so they are delivered after this flush. *)
let commit node =
  while not (Queue.is_empty node.burst_end) do
    let tag = Queue.pop node.burst_end in
    Option.iter (fun h -> h.on_timer ~tid:(-1) ~tag) node.handlers
  done;
  Cp_storage.Storage.flush node.node_stable

let start_node t node =
  let ctx =
    match node.ctx with
    | Some c -> c
    | None ->
      let c = make_ctx t node in
      node.ctx <- Some c;
      c
  in
  node.handlers <- Some (node.builder ctx);
  commit node

let add_node t ~id builder =
  if Hashtbl.mem t.nodes id then
    invalid_arg (Printf.sprintf "Engine.add_node: duplicate id %d" id);
  let metrics = Metrics.create () in
  let node =
    {
      id;
      builder;
      handlers = None;
      epoch = 0;
      busy_until = 0.;
      cancelled = Hashtbl.create 8;
      node_rng = Rng.split t.engine_rng;
      node_stable = t.storage id;
      node_metrics = metrics;
      node_counters = node_counters t metrics;
      node_trace = Obs.Trace.create ~capacity:t.trace_capacity ();
      node_tctx = Obs.Traceid.create ~origin:id;
      burst_end = Queue.create ();
      ctx = None;
    }
  in
  Hashtbl.add t.nodes id node;
  (* Start within the event loop so adding nodes mid-run is well ordered. *)
  push t t.time (Action (fun () -> start_node t node))

let crash t id =
  let node = find_node t id in
  match node.handlers with
  | None -> ()
  | Some _ ->
    node.handlers <- None;
    node.epoch <- node.epoch + 1;
    Hashtbl.reset node.cancelled;
    Metrics.incr node.node_metrics "crashes";
    (* The crash ends whatever causal chain the node was in. *)
    Obs.Traceid.clear node.node_tctx;
    emit_event t node Obs.Event.Crashed

let restart t ?(wipe_stable = false) id =
  let node = find_node t id in
  match node.handlers with
  | Some _ -> ()
  | None ->
    if wipe_stable then Cp_storage.Storage.wipe node.node_stable;
    Metrics.incr node.node_metrics "restarts";
    Obs.Traceid.clear node.node_tctx;
    emit_event t node Obs.Event.Restarted;
    start_node t node

let handle_event t ev =
  match ev.kind with
  | Action f -> f ()
  | Deliver { src; dst; msg; size; trace } -> begin
    match Hashtbl.find_opt t.nodes dst with
    | None -> ()
    | Some node -> begin
      match node.handlers with
      | None -> () (* node down: message lost *)
      | Some h ->
        if t.reachable src dst then begin
          match t.proc_time with
          | Some cost when node.busy_until > t.time ->
            (* The node's CPU is busy: queue the message until it frees up. *)
            ignore cost;
            push t node.busy_until (Deliver { src; dst; msg; size; trace })
          | _ ->
            (match t.proc_time with
            | Some cost -> node.busy_until <- t.time +. cost msg
            | None -> ());
            (* Everything the handler emits/sends continues the message's
               causal chain. *)
            if t.obs then Obs.Traceid.adopt node.node_tctx trace;
            let nc = node.node_counters in
            Metrics.bump nc.msgs_recv;
            Metrics.add nc.bytes_recv size;
            let k = t.kind_index msg in
            Metrics.bump nc.recv.(k);
            if t.obs then
              emit_event t node (Obs.Event.Msg_recv { src; kind = t.kinds.(k); bytes = size });
            h.on_message ~src msg;
            commit node
        end
    end
  end
  | Timer { node = id; tid; tag; epoch } -> begin
    match Hashtbl.find_opt t.nodes id with
    | None -> ()
    | Some node -> begin
      match node.handlers with
      | None -> ()
      | Some h ->
        if node.epoch = epoch then begin
          if Hashtbl.mem node.cancelled tid then Hashtbl.remove node.cancelled tid
          else begin
            (* A timer step starts a fresh causal chain (retransmissions,
               elections, ticks are not caused by any one message). *)
            if t.obs then ignore (Obs.Traceid.mint node.node_tctx);
            h.on_timer ~tid ~tag;
            commit node
          end
        end
    end
  end

let run ?until ?(max_events = 50_000_000) t =
  let continue = ref true in
  while !continue do
    if t.processed >= max_events then continue := false
    else begin
      match Heap.peek t.queue with
      | None -> continue := false
      | Some ev -> begin
        match until with
        | Some stop when ev.time > stop ->
          t.time <- stop;
          continue := false
        | _ ->
          ignore (Heap.pop t.queue);
          t.time <- max t.time ev.time;
          t.processed <- t.processed + 1;
          handle_event t ev
      end
    end
  done;
  match until with
  | Some stop when t.time < stop && Heap.is_empty t.queue -> t.time <- stop
  | _ -> ()
