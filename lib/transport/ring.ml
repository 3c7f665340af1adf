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
  e_trace : Obs.Trace.t;
  e_tctx : Obs.Traceid.t;
  e_stable : Storage.t;
  mutable e_handlers : Types.msg Engine.handlers;
}

type t = {
  ring_capacity : int;
  seed : int;
  links : (int * int, Bytering.t) Hashtbl.t; (* (src, dst) -> ring *)
  endpoints : (int, endpoint) Hashtbl.t;
  wheel : (int * string) Wheel.t; (* payload: (node, tag) *)
  storage : int -> Storage.t; (* per-endpoint store factory *)
  mutable time : float;
}

let create ?(ring_capacity = 65536) ?(seed = 1) ?(storage = fun _ -> Cp_storage.Mem.store ())
    () =
  {
    ring_capacity;
    seed;
    links = Hashtbl.create 16;
    endpoints = Hashtbl.create 8;
    wheel = Wheel.create ~now:0. ();
    storage;
    time = 0.;
  }

let now fab = fab.time

let link fab ~src ~dst =
  match Hashtbl.find_opt fab.links (src, dst) with
  | Some r -> r
  | None ->
    let r = Bytering.create ~capacity:fab.ring_capacity () in
    Hashtbl.replace fab.links (src, dst) r;
    r

let emit_ev fab ep ev =
  let dropped0 = Obs.Trace.dropped ep.e_trace in
  Obs.Trace.emit ~tid:(Obs.Traceid.current ep.e_tctx) ep.e_trace ~at:fab.time ~node:ep.e_id ev;
  if Obs.Trace.dropped ep.e_trace > dropped0 then Metrics.incr ep.e_metrics "ring_dropped"

let guard fab ep ~where f =
  try f ()
  with exn ->
    Metrics.incr ep.e_metrics "handler_errors";
    emit_ev fab ep
      (Obs.Event.Debug (Printf.sprintf "%s raised: %s" where (Printexc.to_string exn)))

(* Zero-copy send: serialize the frame straight into the link's ring
   ([Codec.encode_into] at the ring's write cursor) — no intermediate
   string, no syscall. The reservation uses {!Types.size_of} (an estimate)
   plus margin; if the encoder still overruns it, retry once with the ring's
   whole record budget before counting a drop. *)
let send fab ep ~dst msg =
  let kind = Types.classify msg in
  let tid =
    match kind with
    | "client_req" | "client_read" -> Obs.Traceid.mint ep.e_tctx
    | _ -> Obs.Traceid.current ep.e_tctx
  in
  Metrics.incr ep.e_metrics "msgs_sent";
  Metrics.incr ep.e_metrics ("sent." ^ kind);
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
    Metrics.incr ep.e_metrics ~by:len "bytes_sent";
    Metrics.incr ep.e_metrics ~by:len "encoded_bytes";
    Metrics.incr ep.e_metrics ~by:len "wire_bytes"
  | None -> Metrics.incr ep.e_metrics "wire_drops"

let add_node fab ~id ~build =
  if Hashtbl.mem fab.endpoints id then
    invalid_arg (Printf.sprintf "Ring.add_node: duplicate id %d" id);
  let ep =
    {
      e_id = id;
      e_metrics = Metrics.create ();
      e_trace = Obs.Trace.create ();
      e_tctx = Obs.Traceid.create ~origin:id;
      e_stable = fab.storage id;
      e_handlers =
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) };
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
  | Some ep -> (
    match Codec.decode_frames ~pos ~len (Bytes.unsafe_to_string buf) with
    | Error _ -> Metrics.incr ep.e_metrics "wire_decode_errors"
    | Ok frames ->
      List.iter
        (fun (f : Codec.framed) ->
          incr delivered;
          let kind = Types.classify f.f_msg in
          Metrics.incr ep.e_metrics "msgs_recv";
          Metrics.incr ep.e_metrics ~by:f.f_bytes "bytes_recv";
          Metrics.incr ep.e_metrics ("recv." ^ kind);
          Obs.Traceid.adopt ep.e_tctx f.f_tid;
          emit_ev fab ep (Obs.Event.Msg_recv { src; kind; bytes = f.f_bytes });
          guard fab ep ~where:("on_message " ^ kind) (fun () ->
              ep.e_handlers.Engine.on_message ~src f.f_msg))
        frames)

let pump fab =
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) fab.links [])
  in
  let delivered = ref 0 in
  List.iter
    (fun (src, dst) ->
      let ring = Hashtbl.find fab.links (src, dst) in
      while Bytering.read ring ~f:(deliver fab ~src ~dst delivered) do
        ()
      done)
    keys;
  !delivered

let fire fab wid (node, tag) =
  match Hashtbl.find_opt fab.endpoints node with
  | None -> () (* endpoint removed: stale timer *)
  | Some ep ->
    (* A timer step starts a fresh causal chain, as in the sim and UDP
       runtimes. *)
    ignore (Obs.Traceid.mint ep.e_tctx);
    guard fab ep ~where:(Printf.sprintf "on_timer %S" tag) (fun () ->
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
