open Cp_proto
module IMap = Map.Make (Int)

type t = {
  promised : Ballot.t;
  votes : Types.vote IMap.t;
  floor : int;
}

let create () = { promised = Ballot.bottom; votes = IMap.empty; floor = 0 }

let promised t = t.promised

let compacted_upto t = t.floor

let vote_count t = IMap.cardinal t.votes

let votes_from t ~low =
  IMap.fold (fun i v acc -> if i >= low then (i, v) :: acc else acc) t.votes []
  |> List.rev

let vote_at t i = IMap.find_opt i t.votes

let instances_below t ~upto =
  IMap.to_seq t.votes
  |> Seq.take_while (fun (i, _) -> i < upto)
  |> Seq.map fst |> List.of_seq

type p1_result =
  | Promise of (int * Types.vote) list * int
  | P1_nack of Ballot.t

let handle_p1a t ~ballot ~low =
  if Ballot.(ballot < t.promised) then (t, P1_nack t.promised)
  else begin
    let t = { t with promised = ballot } in
    (t, Promise (votes_from t ~low, t.floor))
  end

type p2_result =
  | Accepted
  | P2_nack of Ballot.t
  | Stale

let handle_p2a t ~ballot ~instance ~entry =
  if instance < t.floor then (t, Stale)
  else if Ballot.(ballot < t.promised) then (t, P2_nack t.promised)
  else begin
    let vote = { Types.vballot = ballot; ventry = entry } in
    ({ promised = ballot; votes = IMap.add instance vote t.votes; floor = t.floor },
     Accepted)
  end

let compact t ~upto =
  if upto <= t.floor then t
  else
    { t with floor = upto; votes = IMap.filter (fun i _ -> i >= upto) t.votes }

let invariant t =
  IMap.for_all (fun i v -> i >= t.floor && Ballot.(v.Types.vballot <= t.promised)) t.votes

let export t = (t.promised, IMap.bindings t.votes, t.floor)

let import (promised, votes, floor) =
  {
    promised;
    votes = List.fold_left (fun m (i, v) -> IMap.add i v m) IMap.empty votes;
    floor;
  }
