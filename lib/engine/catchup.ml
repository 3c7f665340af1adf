(* Catch-up role: closing log gaps. A lagging main requests ranges of chosen
   entries (or a whole snapshot) from its peers; a serving main answers from
   its log and its in-memory snapshot mirror. [Commit] application also
   lives here since commits are how gaps are normally avoided.

   Sans-IO: every handler only mutates {!State.t} and queues effects. *)

open Cp_proto
open State

let request_catchup t targets =
  if now t -. t.last_catchup_sent >= t.params.Params.retransmit then begin
    t.last_catchup_sent <- now t;
    List.iter
      (fun m ->
        if m <> t.self then
          send t m (Types.CatchupReq { from = t.self; from_instance = Log.prefix t.log }))
      targets
  end

(* A peer's announced commit point (a Commit instance or a heartbeat commit
   floor) running [gap_threshold] ahead of our prefix means ordinary Commit
   delivery has failed us: fetch the gap explicitly. *)
let maybe_catchup t ~their_floor =
  if t.role_ = Main && their_floor > Log.prefix t.log + t.params.Params.gap_threshold then
    request_catchup t (Configs.latest t.configs).Config.mains

let on_commit t ~instance ~entry =
  ignore (Learner.learn t instance entry);
  if instance > Log.prefix t.log + t.params.Params.gap_threshold then
    maybe_catchup t ~their_floor:instance

(* Up to [catchup_batch] chosen entries from [lo], cut so the response
   fits one datagram by the {!Types.size_of} estimate (which charges every
   integer more than the codec spends on it). The first entry is always
   served, so a lagging main advances however large its entries are. *)
let serve t ~lo ~snapshot =
  let hi = min (Log.prefix t.log) (lo + t.params.Params.catchup_batch) in
  let rec fit size acc = function
    | [] -> List.rev acc
    | ((_, e) as ie) :: rest ->
      let size = size + Types.int_field + Types.entry_size e in
      if size > Codec.max_datagram && acc <> [] then List.rev acc
      else fit size (ie :: acc) rest
  in
  let empty = Types.size_of (Types.CatchupResp { entries = []; snapshot }) in
  fit empty [] (Log.range t.log ~lo ~hi)

let on_catchup_req t ~src ~from_instance =
  if t.role_ = Main then begin
    if from_instance < Log.base t.log then begin
      match t.last_snapshot with
      | Some stored ->
        let snap = Lazy.force stored.snap in
        let snapshot = Some snap in
        let entries = serve t ~lo:snap.next_instance ~snapshot in
        send t src (Types.CatchupResp { entries; snapshot })
      | None -> ()
    end
    else begin
      let entries = serve t ~lo:from_instance ~snapshot:None in
      if entries <> [] then send t src (Types.CatchupResp { entries; snapshot = None })
    end
  end

(* Note: after a response lands, a blocked candidacy must be re-evaluated
   (its quorum may have been waiting on the prefix) — that re-check lives in
   {!Core.dispatch}, which calls [Leader.try_finish_phase1], because the
   leader module sits above this one in the role stack. *)
let on_catchup_resp t ~entries ~snapshot =
  if t.role_ = Main then begin
    (match snapshot with Some s -> Learner.install_snapshot t s | None -> ());
    List.iter (fun (i, e) -> ignore (Learner.learn t i e)) entries
  end
