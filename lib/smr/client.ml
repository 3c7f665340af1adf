open Cp_proto
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics

type t = {
  ctx : Types.msg Engine.ctx;
  mains : int array;
  timeout : float; (* base retry delay; 16x it caps the un-jittered delay *)
  think : float;
  ops : int -> string option;
  is_read : string -> bool;
  mutable seq : int;
  mutable op : string option;
  mutable hint : int; (* index into mains *)
  mutable attempts : int; (* consecutive unanswered sends of the current op *)
  mutable fast_resend : bool; (* one redirect-triggered resend per retry window *)
  mutable invoked_at : float;
  mutable retry_timer : int option;
  mutable finished : bool;
  mutable completed : int;
  mutable hist : (float * float * string * string) list; (* reversed *)
}

let now t = t.ctx.Engine.now ()

(* [attempt] 0 is the first send. The cap bounds the exponential term; the
   jitter factor in [0.75, 1.25) then spreads retransmissions so that clients
   that timed out together do not retry in lockstep forever. *)
let retry_delay ~base ~cap ~attempt ~jitter =
  let d = min cap (base *. (2. ** float_of_int attempt)) in
  d *. (0.75 +. (0.5 *. jitter))

let cancel_retry t =
  match t.retry_timer with
  | Some tid ->
    t.ctx.Engine.cancel_timer tid;
    t.retry_timer <- None
  | None -> ()

let send_current t =
  match t.op with
  | None -> ()
  | Some op ->
    let dst = t.mains.(t.hint) in
    let cmd = { Types.client = t.ctx.Engine.self; seq = t.seq; op } in
    t.ctx.Engine.send dst
      (if t.is_read op then Types.ClientRead cmd else Types.ClientReq cmd);
    cancel_retry t;
    let delay =
      retry_delay ~base:t.timeout ~cap:(16. *. t.timeout) ~attempt:t.attempts
        ~jitter:(Cp_util.Rng.float t.ctx.Engine.rng 1.)
    in
    t.retry_timer <- Some (t.ctx.Engine.set_timer ~tag:"retry" delay)

let begin_op t =
  match t.ops t.seq with
  | None ->
    t.finished <- true;
    t.op <- None;
    cancel_retry t
  | Some op ->
    t.op <- Some op;
    t.attempts <- 0;
    t.fast_resend <- true;
    t.invoked_at <- now t;
    send_current t

let advance t =
  t.seq <- t.seq + 1;
  if t.think > 0. then begin
    t.op <- None;
    ignore (t.ctx.Engine.set_timer ~tag:"think" t.think)
  end
  else begin_op t

let on_response t ~seq ~result =
  if (not t.finished) && seq = t.seq && t.op <> None then begin
    let op = Option.get t.op in
    let t_done = now t in
    t.hist <- (t.invoked_at, t_done, op, result) :: t.hist;
    t.completed <- t.completed + 1;
    Metrics.observe t.ctx.Engine.metrics "latency" (t_done -. t.invoked_at);
    Metrics.observe t.ctx.Engine.metrics "done_at" t_done;
    Metrics.incr t.ctx.Engine.metrics "ops_done";
    cancel_retry t;
    advance t
  end

let on_redirect t ~leader_hint =
  if not t.finished then begin
    let idx = ref None in
    Array.iteri (fun i m -> if m = leader_hint then idx := Some i) t.mains;
    match !idx with
    | Some i when i <> t.hint ->
      t.hint <- i;
      send_current t
    | Some _ when t.fast_resend ->
      (* The hint already points where we last sent — our request (or its
         reply) was probably lost. Resend immediately instead of waiting out
         the full retry delay, but only once per window: if the hinted node
         keeps redirecting us back at itself, we fall back to the backoff
         timer rather than looping. *)
      t.fast_resend <- false;
      Metrics.incr t.ctx.Engine.metrics "client_fast_resends";
      send_current t
    | Some _ | None -> () (* unknown hint, or already fast-resent: wait *)
  end

let on_retry t =
  t.retry_timer <- None;
  if (not t.finished) && t.op <> None then begin
    t.hint <- (t.hint + 1) mod Array.length t.mains;
    t.attempts <- t.attempts + 1;
    t.fast_resend <- true;
    Metrics.incr t.ctx.Engine.metrics "client_retries";
    send_current t
  end

let create ctx ~mains ~timeout ?(think = 0.) ?(is_read = fun _ -> false)
    ~ops () =
  if mains = [] then invalid_arg "Client.create: empty contact list";
  if timeout <= 0. then invalid_arg "Client.create: timeout must be positive";
  let t =
    {
      ctx;
      mains = Array.of_list mains;
      timeout;
      think;
      ops;
      is_read;
      seq = 1;
      op = None;
      hint = 0;
      attempts = 0;
      fast_resend = true;
      invoked_at = 0.;
      retry_timer = None;
      finished = false;
      completed = 0;
      hist = [];
    }
  in
  begin_op t;
  t

let handlers t =
  let on_message ~src:_ msg =
    match (msg : Types.msg) with
    | Types.ClientResp { seq; result; _ } -> on_response t ~seq ~result
    | Types.Redirect { leader_hint } -> on_redirect t ~leader_hint
    | _ -> ()
  in
  let on_timer ~tid:_ ~tag =
    match tag with
    | "retry" -> on_retry t
    | "think" -> if not t.finished then begin_op t
    | _ -> ()
  in
  { Engine.on_message; on_timer }

let done_count t = t.completed

let is_finished t = t.finished

let history t = List.rev t.hist
