module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Storage = Cp_storage.Storage
module Wheel = Cp_fleet.Wheel
module Obs = Cp_obs

type endpoint = {
  e_id : int;
  e_metrics : Metrics.t;
  e_counters : Msg_counters.t;
  e_wire_bytes : Metrics.counter;
  e_trace : Obs.Trace.t;
  e_tctx : Obs.Traceid.t;
  e_stable : Storage.t;
  mutable e_handlers : Types.msg Engine.handlers;
  mutable e_fenced : bool; (* its store failed to flush: it takes part no more *)
}

type link = {
  l_src : int;
  l_dst : int;
  l_ring : Bytering.t;
  mutable l_limit : int; (* records written to the ring when the current pass started *)
}

type t = {
  seed : int;
  links : (int * int, link) Hashtbl.t;
  mutable order : link list;
      (* every link, ascending by (src, dst): the pump order, updated only
         when [link] creates a ring *)
  endpoints : (int, endpoint) Hashtbl.t;
  wheel : (int * string) Wheel.t; (* payload: (node, tag) *)
  storage : int -> Storage.t; (* per-endpoint store factory *)
  mutable time : float;
}

(* The most a link's byte ring grows to. *)
let ring_capacity = 65536

let create ?(seed = 1) ?(storage = fun _ -> Cp_storage.Mem.store ()) () =
  {
    seed;
    links = Hashtbl.create 16;
    order = [];
    endpoints = Hashtbl.create 8;
    wheel = Wheel.create ~now:0. ();
    storage;
    time = 0.;
  }

let now fab = fab.time

let link fab ~src ~dst =
  match Hashtbl.find_opt fab.links (src, dst) with
  | Some l -> l.l_ring
  | None ->
    let l =
      {
        l_src = src;
        l_dst = dst;
        l_ring = Bytering.create ~capacity:ring_capacity ();
        l_limit = 0;
      }
    in
    Hashtbl.replace fab.links (src, dst) l;
    fab.order <-
      List.merge (fun a b -> compare (a.l_src, a.l_dst) (b.l_src, b.l_dst)) [ l ] fab.order;
    l.l_ring

let emit_ev fab ep ev =
  let dropped0 = Obs.Trace.dropped ep.e_trace in
  Obs.Trace.emit ~tid:(Obs.Traceid.current ep.e_tctx) ep.e_trace ~at:fab.time ~node:ep.e_id ev;
  if Obs.Trace.dropped ep.e_trace > dropped0 then Metrics.incr ep.e_metrics "ring_dropped"

(* [where] names the handler for the Debug event; built only on failure. *)
let guard fab ep ~where f =
  try f ()
  with exn ->
    Metrics.incr ep.e_metrics "handler_errors";
    emit_ev fab ep
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" (where ()) (Printexc.to_string exn)))

(* Zero-copy send: serialize the frame straight into the link's ring
   ([Codec.encode_into] at the ring's write cursor) — no intermediate
   string, no syscall. The reservation uses {!Types.size_of} (an estimate)
   plus margin; if the encoder still overruns it, retry once with the ring's
   whole record budget before counting a drop. *)
let send fab ep ~dst msg =
  let tid =
    match msg with
    | Types.ClientReq _ | Types.ClientRead _ -> Obs.Traceid.mint ep.e_tctx
    | _ -> Obs.Traceid.current ep.e_tctx
  in
  Msg_counters.sent ep.e_counters msg;
  let ring = link fab ~src:ep.e_id ~dst in
  let attempt max =
    Bytering.write ring ~max ~f:(fun buf ~pos -> Codec.encode_into buf ~pos ~gid:0 ~tid msg)
  in
  let written =
    let budget = Bytering.max_record ring in
    match attempt (min budget (Types.size_of msg + 128)) with
    | r -> r
    | exception Codec.Overflow -> ( try attempt budget with Codec.Overflow -> None)
  in
  match written with
  | Some len ->
    Msg_counters.encoded ep.e_counters len;
    Metrics.add ep.e_wire_bytes len
  | None -> Metrics.incr ep.e_metrics "wire_drops"

let add_node fab ~id ~build =
  if Hashtbl.mem fab.endpoints id then
    invalid_arg (Printf.sprintf "Ring.add_node: duplicate id %d" id);
  let metrics = Metrics.create () in
  let ep =
    {
      e_id = id;
      e_metrics = metrics;
      e_counters = Msg_counters.create metrics;
      e_wire_bytes = Metrics.counter metrics "wire_bytes";
      e_trace = Obs.Trace.create ();
      e_tctx = Obs.Traceid.create ~origin:id;
      e_stable = fab.storage id;
      e_handlers =
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
      e_fenced = false;
    }
  in
  Hashtbl.replace fab.endpoints id ep;
  ep.e_handlers <-
    build
      {
        Engine.self = id;
        now = (fun () -> fab.time);
        send = (fun dst msg -> send fab ep ~dst msg);
        set_timer =
          (fun ?(tag = "") delay ->
            Wheel.add fab.wheel ~at:(fab.time +. Float.max 0. delay) (id, tag));
        cancel_timer = (fun wid -> Wheel.cancel fab.wheel wid);
        rng = Cp_util.Rng.create ((fab.seed * 1009) + id);
        stable = ep.e_stable;
        metrics = ep.e_metrics;
        emit = emit_ev fab ep;
        tctx = ep.e_tctx;
      }

(* Deliver one ring record: decode its frames in place (the record is a
   window into the ring's own bytes; [Bytes.unsafe_to_string] is safe here
   because the fabric is single-threaded, nothing writes the ring within
   this dynamic extent, and the decoded messages share no bytes with it)
   and run the destination handler on each. A record that does not decode
   is counted and dropped. *)
let deliver fab ~src ~dst delivered buf ~pos ~len =
  match Hashtbl.find_opt fab.endpoints dst with
  | None -> () (* no such endpoint: drop *)
  | Some ep when ep.e_fenced -> Metrics.incr ep.e_metrics "fenced_drops"
  | Some ep -> (
    match Codec.decode_frames ~pos ~len (Bytes.unsafe_to_string buf) with
    | Error _ -> Metrics.incr ep.e_metrics "wire_decode_errors"
    | Ok frames ->
      List.iter
        (fun (f : Codec.framed) ->
          incr delivered;
          let k = Types.kind_index f.f_msg in
          let kind = Types.kinds.(k) in
          Msg_counters.received ep.e_counters ~kind:k ~bytes:f.f_bytes;
          Obs.Traceid.adopt ep.e_tctx f.f_tid;
          emit_ev fab ep (Obs.Event.Msg_recv { src; kind; bytes = f.f_bytes });
          guard fab ep ~where:(fun () -> "on_message " ^ kind) (fun () ->
              ep.e_handlers.Engine.on_message ~src f.f_msg))
        frames)

(* An endpoint whose store failed to flush may have acked what is not
   durable. Its unread outgoing records were all written since the last
   commit, so none has been read: discard them. It runs no handler and
   receives nothing from now on. *)
let fence fab ep exn =
  ep.e_fenced <- true;
  Metrics.incr ep.e_metrics "storage_flush_errors";
  emit_ev fab ep
    (Obs.Event.Debug (Printf.sprintf "storage flush raised: %s" (Printexc.to_string exn)));
  List.iter
    (fun l ->
      if l.l_src = ep.e_id then
        while
          Bytering.read l.l_ring ~f:(fun _ ~pos:_ ~len:_ -> Metrics.incr ep.e_metrics "fenced_drops")
        do
          ()
        done)
    fab.order

(* Group commit: flush every live endpoint's store before the pass reads
   anything. A store with nothing new to sync flushes for free, so there is
   no need to track which endpoints ran a handler. *)
let commit fab =
  Hashtbl.iter
    (fun _ ep ->
      if not ep.e_fenced then
        match Storage.flush ep.e_stable with () -> () | exception exn -> fence fab ep exn)
    fab.endpoints

(* A pass reads each link only up to the records it held when the pass
   started (a count, so a ring that grows mid-pass keeps its limit), so
   whatever a handler (message, timer or [build]) writes waits for the
   next pass, and the commit at its entry. A link created mid-pass is not
   in this pass's (immutable) snapshot of [fab.order]. Returns the number
   of messages delivered (0 = quiescent). *)
let pump fab =
  commit fab;
  let pass = fab.order in
  List.iter (fun l -> l.l_limit <- Bytering.written l.l_ring) pass;
  let delivered = ref 0 in
  List.iter
    (fun l ->
      while
        Bytering.read ~limit:l.l_limit l.l_ring
          ~f:(deliver fab ~src:l.l_src ~dst:l.l_dst delivered)
      do
        ()
      done)
    pass;
  !delivered

let fire fab wid (node, tag) =
  match Hashtbl.find_opt fab.endpoints node with
  | None -> () (* endpoint removed: stale timer *)
  | Some ep when ep.e_fenced -> ()
  | Some ep ->
    (* A timer step starts a fresh causal chain, as in the sim and UDP
       runtimes. *)
    ignore (Obs.Traceid.mint ep.e_tctx);
    guard fab ep ~where:(fun () -> Printf.sprintf "on_timer %S" tag) (fun () ->
        ep.e_handlers.Engine.on_timer ~tid:wid ~tag)

let run ?(until = 60.) fab =
  let rec loop () =
    while pump fab > 0 do
      ()
    done;
    match Wheel.next_deadline fab.wheel with
    | Some d when d <= until ->
      fab.time <- Float.max fab.time d;
      Wheel.advance fab.wheel ~now:fab.time ~fire:(fun wid p -> fire fab wid p);
      loop ()
    | _ -> if pump fab > 0 then loop ()
  in
  loop ()

let endpoint fab id =
  match Hashtbl.find_opt fab.endpoints id with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Ring: unknown endpoint %d" id)

let metrics fab id = (endpoint fab id).e_metrics

let trace fab id = (endpoint fab id).e_trace

let stable fab id = (endpoint fab id).e_stable
