open Cp_proto

type t = {
  alpha_ : int;
  mutable timeline : (int * Config.t) list; (* ascending by effective_from *)
}

let create ~alpha ~initial = { alpha_ = alpha; timeline = [ (0, initial) ] }

let alpha t = t.alpha_

let config_for t i =
  let rec go best = function
    | [] -> best
    | (from, cfg) :: rest -> if from <= i then go cfg rest else best
  in
  match t.timeline with
  | [] -> invalid_arg "Configs: empty timeline"
  | (_, first) :: _ -> go first t.timeline

let latest t =
  match List.rev t.timeline with
  | (_, cfg) :: _ -> cfg
  | [] -> invalid_arg "Configs: empty timeline"

let apply_at t ~at r =
  let current = latest t in
  let next =
    match r with
    | Types.Remove_main m -> Config.remove_main current m
    | Types.Add_main m -> Config.add_main current m
  in
  match next with
  | None -> None
  | Some cfg ->
    let from = at + t.alpha_ in
    (* A later reconfiguration always lands at a strictly later instance, so
       its effective point is beyond every existing one. *)
    t.timeline <- t.timeline @ [ (from, cfg) ];
    Some cfg

let covering t ~low =
  let cfg_low = config_for t low in
  cfg_low
  :: List.filter_map
       (fun (from, cfg) -> if from > low then Some cfg else None)
       t.timeline

let for_all_covering t ~low p =
  p (config_for t low) && List.for_all (fun (from, cfg) -> from <= low || p cfg) t.timeline

let export t ~next =
  let base = config_for t next in
  let pending = List.filter (fun (from, _) -> from > next) t.timeline in
  (base, pending)

let import t ~base ~at ~pending = t.timeline <- (at, base) :: pending

let timeline t = t.timeline

let copy t = { alpha_ = t.alpha_; timeline = t.timeline }
