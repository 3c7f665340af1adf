(* Per-request stage attribution. A write's path is joined by message
   contents: ClientReq, the P2a carrying its App entry, and ClientResp name
   (client, seq); the P2b names an instance, mapped back through the
   leader's own P2a send. With one clock the stages telescope: each ends
   where the next begins, from the request's due time to its reply.

     gen.lag  due -> sent
     netio.req_wire  sent -> leader handler start
     engine.leader_propose  -> end of the handler that sent the P2a
     netio.p2a_wire  -> follower handler start
     engine.follower_accept  -> its end (the P2b leaves after it)
     netio.p2b_wire  -> leader P2b handler start
     engine.leader_commit  -> end of the handler that sent the reply
     netio.resp_wire  -> reply received

   A read served under the lease, or a write committed by a lone main,
   has no P2a: its engine stage runs from the request handler's start to
   the end of the handler that replied.

   [attributed_ns] sums the stages of every joined request as computed,
   and [e2e_ns] the latency of every request: their ratio is 1 only if
   every request joined and its stages add up to its latency. *)

module Recs = Probe.Recs

type req = { client : int; seq : int; due : int; sent : int; reply : int; read : bool }

let stage_names =
  [|
    "gen.lag";
    "netio.req_wire";
    "engine.leader_propose";
    "netio.p2a_wire";
    "engine.follower_accept";
    "netio.p2b_wire";
    "engine.leader_commit";
    "netio.resp_wire";
  |]

let self_names = [| "engine.leader_propose"; "engine.follower_accept"; "engine.leader_commit" |]

type t = {
  stages : Hist.t array; (* replicated writes, one per [stage_names] *)
  self : Hist.t array; (* handler self time, one per [self_names] *)
  lease_read : Hist.t;
  local_write : Hist.t;
  mutable requests : int;
  mutable joined : int;
  mutable e2e_ns : int;
  mutable attributed_ns : int;
}

let create () =
  {
    stages = Array.init (Array.length stage_names) (fun _ -> Hist.create ());
    self = Array.init (Array.length self_names) (fun _ -> Hist.create ());
    lease_read = Hist.create ();
    local_write = Hist.create ();
    requests = 0;
    joined = 0;
    e2e_ns = 0;
    attributed_ns = 0;
  }

let first tbl key i = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key i

let add t ~(handlers : Recs.t) ~(sends : Recs.t) (reqs : req list) =
  let hget i f = Recs.get handlers i f and sget i f = Recs.get sends i f in
  let by_input = Hashtbl.create 4096 and by_hid = Hashtbl.create 4096 in
  for i = 0 to Recs.length handlers - 1 do
    let node = hget i Probe.h_node in
    Hashtbl.replace by_hid (node, hget i Probe.h_hid) i;
    let kind = hget i Probe.h_kind in
    if kind <> Probe.k_other then
      first by_input (node, kind, hget i Probe.h_k1, hget i Probe.h_k2) i
  done;
  let resp_send = Hashtbl.create 4096 and p2a_send = Hashtbl.create 4096 in
  for i = 0 to Recs.length sends - 1 do
    let kind = sget i Probe.s_kind in
    if kind = Probe.k_resp then first resp_send (sget i Probe.s_k1, sget i Probe.s_k2) i
    else if kind = Probe.k_p2a then
      (* every P2a carrying the command, newest first *)
      let key = (sget i Probe.s_node, sget i Probe.s_k2, sget i Probe.s_k3) in
      Hashtbl.replace p2a_send key (i :: Option.value (Hashtbl.find_opt p2a_send key) ~default:[])
  done;
  let t0 h = hget h Probe.h_t0 and t1 h = hget h Probe.h_t1 in
  let self h = t1 h - t0 h - hget h Probe.h_child in
  let find tbl k = Hashtbl.find_opt tbl k in
  let join r =
    let ( let* ) = Option.bind in
    let* rs = find resp_send (r.client, r.seq) in
    let leader = sget rs Probe.s_node in
    let* h_resp = find by_hid (leader, sget rs Probe.s_hid) in
    let* h_req =
      find by_input (leader, (if r.read then Probe.k_read else Probe.k_req), r.client, r.seq)
    in
    let local () =
      let stages = [ r.sent - r.due; t0 h_req - r.sent; t1 h_resp - t0 h_req; r.reply - t1 h_resp ] in
      if List.exists (fun d -> d < 0) stages then None
      else begin
        Hist.add (if r.read then t.lease_read else t.local_write) (t1 h_resp - t0 h_req);
        Some (List.fold_left ( + ) 0 stages)
      end
    in
    (* The stages through one P2a copy of the command, if its acceptor
       answered before the reply left (a copy to a dead or slow main, or
       one the auxiliary's vote overtook, did not commit it). *)
    let through ps =
      let follower = sget ps Probe.s_dst and instance = sget ps Probe.s_k1 in
      let* h_p2a = find by_hid (leader, sget ps Probe.s_hid) in
      let* h_acc = find by_input (follower, Probe.k_p2a, instance, leader) in
      let* h_p2b = find by_input (leader, Probe.k_p2b, instance, follower) in
      let stages =
        [|
          r.sent - r.due;
          t0 h_req - r.sent;
          t1 h_p2a - t0 h_req;
          t0 h_acc - t1 h_p2a;
          t1 h_acc - t0 h_acc;
          t0 h_p2b - t1 h_acc;
          t1 h_resp - t0 h_p2b;
          r.reply - t1 h_resp;
        |]
      in
      if Array.exists (fun d -> d < 0) stages then None
      else Some (stages, h_p2a, h_acc, h_p2b)
    in
    match find p2a_send (leader, r.client, r.seq) with
    | None -> local ()
    | Some copies -> (
      match List.find_map through (List.rev copies) with
      | None -> None
      | Some (stages, h_p2a, h_acc, h_p2b) ->
        Array.iteri (fun i d -> Hist.add t.stages.(i) d) stages;
        let distinct a b = if a = b then self a else self a + self b in
        Hist.add t.self.(0) (distinct h_req h_p2a);
        Hist.add t.self.(1) (self h_acc);
        Hist.add t.self.(2) (distinct h_p2b h_resp);
        Some (Array.fold_left ( + ) 0 stages))
  in
  List.iter
    (fun r ->
      t.requests <- t.requests + 1;
      t.e2e_ns <- t.e2e_ns + (r.reply - r.due);
      match join r with
      | Some ns ->
        t.joined <- t.joined + 1;
        t.attributed_ns <- t.attributed_ns + ns
      | None -> ())
    reqs

(* Client-side times of closed-loop clients traced in-process (the ring):
   a request is sent at its client's first ClientReq/ClientRead send and
   answered at the first ClientResp handler on that client. *)
let client_requests ~(handlers : Recs.t) ~(sends : Recs.t) ~is_client =
  let sent = Hashtbl.create 4096 in
  for i = 0 to Recs.length sends - 1 do
    let get = Recs.get sends i in
    let kind = get Probe.s_kind in
    if (kind = Probe.k_req || kind = Probe.k_read) && is_client (get Probe.s_node) then
      first sent (get Probe.s_k1, get Probe.s_k2) (get Probe.s_t, kind = Probe.k_read)
  done;
  let seen = Hashtbl.create 4096 in
  let out = ref [] in
  for i = 0 to Recs.length handlers - 1 do
    let get = Recs.get handlers i in
    if get Probe.h_kind = Probe.k_resp && is_client (get Probe.h_node) then begin
      let key = (get Probe.h_k1, get Probe.h_k2) in
      match Hashtbl.find_opt sent key with
      | Some (s, read) when not (Hashtbl.mem seen key) ->
        Hashtbl.add seen key ();
        out :=
          { client = fst key; seq = snd key; due = s; sent = s; reply = get Probe.h_t0; read }
          :: !out
      | _ -> ()
    end
  done;
  List.rev !out
