(* What BENCHMARK.json at the repository root declares: the workloads,
   the default run length, and every metric's name and unit, with the
   direction and regression bound of the end-to-end ones. The benchmark
   reads these rather than restating them; what each workload runs is in
   [Ring_bench.cfg_of] and [Udp_bench.plan_of]. *)

type metric = { name : string; unit_ : string; higher_better : bool; bound : float }

type t = {
  workloads : string list;
  run_seconds : int;
  end_to_end : metric list;
  per_layer : metric list; (* their bound reads 0: per-layer metrics are not gated *)
}

let load path =
  let j = Json.read_file path in
  let str k x = Json.to_str (Json.field k x) in
  let list k = Json.to_list (Json.field k j) in
  let metric m =
    {
      name = str "name" m;
      unit_ = str "unit" m;
      higher_better = str "better" m = "higher";
      bound = Option.fold ~none:0. ~some:Json.to_num (Json.field_opt "bound" m);
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    run_seconds = int_of_float (Json.to_num (Json.field "run_seconds" j));
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
  }

let metrics t ~traced = if traced then t.per_layer else t.end_to_end

let unit_of t name =
  match List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer) with
  | Some m -> m.unit_
  | None -> "?"
