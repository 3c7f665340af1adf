open Cp_proto
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics
module Rng = Cp_util.Rng

type inflight = {
  op : string;
  started : float;
  mutable timer : int;
}

type t = {
  ctx : Types.msg Engine.ctx;
  mains : int array;
  timeout : float;
  rate : float;
  max_outstanding : int;
  ops : int -> string option;
  mutable next_seq : int;
  mutable exhausted : bool;
  outstanding : (int, inflight) Hashtbl.t;
  mutable hint : int;
  mutable heard : float;
      (* when the contact last replied or redirected, or became the contact *)
  mutable completed : int;
}

let now t = t.ctx.Engine.now ()

let send_op t seq (fl : inflight) =
  let dst = t.mains.(t.hint) in
  t.ctx.Engine.send dst (Types.ClientReq { client = t.ctx.Engine.self; seq; op = fl.op });
  fl.timer <- t.ctx.Engine.set_timer ~tag:("retry." ^ string_of_int seq) t.timeout

let schedule_arrival t =
  if not t.exhausted then begin
    let gap = Rng.exponential t.ctx.Engine.rng ~mean:(1. /. t.rate) in
    ignore (t.ctx.Engine.set_timer ~tag:"arrival" gap)
  end

let arrive t =
  (match t.ops t.next_seq with
  | None -> t.exhausted <- true
  | Some op ->
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    if Hashtbl.length t.outstanding >= t.max_outstanding then
      Metrics.incr t.ctx.Engine.metrics "shed"
    else begin
      let fl = { op; started = now t; timer = 0 } in
      Hashtbl.replace t.outstanding seq fl;
      send_op t seq fl
    end);
  schedule_arrival t

let on_response t ~seq =
  match Hashtbl.find_opt t.outstanding seq with
  | None -> () (* duplicate or shed *)
  | Some fl ->
    Hashtbl.remove t.outstanding seq;
    t.ctx.Engine.cancel_timer fl.timer;
    t.completed <- t.completed + 1;
    Metrics.observe t.ctx.Engine.metrics "latency" (now t -. fl.started);
    Metrics.observe t.ctx.Engine.metrics "done_at" (now t);
    Metrics.incr t.ctx.Engine.metrics "ops_done"

let set_contact t i =
  t.hint <- i;
  t.heard <- now t

(* Move to the next main only when the contact has been silent for a full
   timeout: with many operations in flight, a retry of one of them says
   little about a contact that is answering the others, or that a redirect
   has just named. *)
let on_retry t seq =
  match Hashtbl.find_opt t.outstanding seq with
  | None -> ()
  | Some fl ->
    if now t -. t.heard >= t.timeout then
      set_contact t ((t.hint + 1) mod Array.length t.mains);
    Metrics.incr t.ctx.Engine.metrics "client_retries";
    send_op t seq fl

let create ctx ~mains ~timeout ~rate ?(max_outstanding = 64) ~ops () =
  if mains = [] then invalid_arg "Open_client.create: empty contact list";
  if rate <= 0. then invalid_arg "Open_client.create: rate must be positive";
  let t =
    {
      ctx;
      mains = Array.of_list mains;
      timeout;
      rate;
      max_outstanding;
      ops;
      next_seq = 1;
      exhausted = false;
      outstanding = Hashtbl.create 64;
      hint = 0;
      heard = ctx.Engine.now ();
      completed = 0;
    }
  in
  schedule_arrival t;
  t

let handlers t =
  let on_message ~src msg =
    if src = t.mains.(t.hint) then t.heard <- now t;
    match (msg : Types.msg) with
    | Types.ClientResp { seq; _ } -> on_response t ~seq
    | Types.Redirect { leader_hint } ->
      let idx = ref None in
      Array.iteri (fun i m -> if m = leader_hint then idx := Some i) t.mains;
      (match !idx with Some i when i <> t.hint -> set_contact t i | _ -> ())
    | _ -> ()
  in
  let on_timer ~tid:_ ~tag =
    if tag = "arrival" then arrive t
    else
      match String.split_on_char '.' tag with
      | [ "retry"; seq ] -> on_retry t (int_of_string seq)
      | _ -> ()
  in
  { Engine.on_message; on_timer }

let done_count t = t.completed

let is_finished t = t.exhausted && Hashtbl.length t.outstanding = 0
