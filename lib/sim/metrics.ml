type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t; (* reversed *)
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 8 }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let observe t name x =
  match Hashtbl.find_opt t.series name with
  | Some r -> r := x :: !r
  | None -> Hashtbl.add t.series name (ref [ x ])

let series t name =
  match Hashtbl.find_opt t.series name with Some r -> List.rev !r | None -> []

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.series

type snapshot = {
  counters : (string * int) list;
  summaries : (string * Cp_util.Stats.summary) list;
}

let snapshot t =
  let summaries =
    Hashtbl.fold (fun k r acc -> (k, Cp_util.Stats.summarize (List.rev !r)) :: acc) t.series []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counters = counters t; summaries }
