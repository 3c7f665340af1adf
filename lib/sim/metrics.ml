type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t; (* reversed *)
  mutable epoch : int; (* bumped by [reset]: every handle re-registers *)
}

let create () = { counters = Hashtbl.create 32; series = Hashtbl.create 8; epoch = 0 }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

(* A handle caches its counter's cell. It registers the name in [counters]
   on its first [add] (so a counter never bumped stays absent, as on the
   string path), and again after a [reset], which orphans every cell. *)
type counter = {
  c_metrics : t;
  c_name : string;
  mutable c_cell : int ref;
  mutable c_epoch : int; (* [c_metrics.epoch] when [c_cell] was resolved *)
}

let counter t name = { c_metrics = t; c_name = name; c_cell = ref 0; c_epoch = -1 }

let resolve c =
  let t = c.c_metrics in
  let cell =
    match Hashtbl.find_opt t.counters c.c_name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add t.counters c.c_name r;
      r
  in
  c.c_cell <- cell;
  c.c_epoch <- t.epoch

let add c by =
  if c.c_epoch <> c.c_metrics.epoch then resolve c;
  c.c_cell := !(c.c_cell) + by

let bump c = add c 1

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
  t.epoch <- t.epoch + 1;
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
