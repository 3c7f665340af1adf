(* Verdicts between two sets of result documents, one per (workload,
   end-to-end metric), by the bounds in BENCHMARK.json:

   - unresolved: either side's spread (interquartile range over median) is
     wider than the bound, and the runs do not separate completely;
   - worse / better: the medians differ by more than the bound, or every
     run of one side beats every run of the other;
   - same: otherwise.

   A rise in the share of never-answered requests beyond 0.001 is flagged
   as worse too. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let spread values =
  let q1, med, q3 = Report.quartiles values in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let judge (b : Spec.metric) ~base ~new_ =
  let _, bm, _ = Report.quartiles base and _, nm, _ = Report.quartiles new_ in
  let better x y = if b.higher_better then x > y else x < y in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> better n o) base) new_ in
  let all_worse = List.for_all (fun n -> List.for_all (fun o -> better o n) base) new_ in
  let change = if bm = 0. then 0. else (nm -. bm) /. Float.abs bm in
  let worse_by = if b.higher_better then -.change else change in
  let v =
    if max (spread base) (spread new_) > b.bound then
      if all_better then Better else if all_worse then Worse else Unresolved
    else if worse_by > b.bound then Worse
    else if -.worse_by > b.bound then Better
    else Same
  in
  (v, bm, nm, change)

let error_rate runs =
  let a = List.fold_left (fun acc r -> acc + r.Report.attempted) 0 runs in
  let f = List.fold_left (fun acc r -> acc + r.Report.failed) 0 runs in
  if a = 0 then 0. else float_of_int f /. float_of_int a

(* Prints one line per verdict; true when nothing got worse. *)
let run ~(spec : Spec.t) ~base ~new_ =
  let load files =
    List.concat_map Report.runs_of_file files |> List.filter (fun r -> not r.Report.traced)
  in
  let base = load base and new_ = load new_ in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.Report.workload) (base @ new_))
  in
  let ok = ref true in
  Printf.printf "%-15s %-18s %12s %12s %8s %8s %8s  %s\n" "workload" "metric" "base" "new" "change"
    "spread" "bound" "verdict";
  List.iter
    (fun w ->
      let b_runs = List.filter (fun r -> r.Report.workload = w) base in
      let n_runs = List.filter (fun r -> r.Report.workload = w) new_ in
      if b_runs = [] || n_runs = [] then
        Printf.printf "%-15s %-18s %s\n" w "-" "missing on one side: not compared"
      else begin
        List.iter
          (fun (b : Spec.metric) ->
            let values runs = List.filter_map (fun r -> List.assoc_opt b.name r.Report.metrics) runs in
            match (values b_runs, values n_runs) with
            | [], _ | _, [] -> ()
            | bv, nv ->
              let v, bm, nm, change = judge b ~base:bv ~new_:nv in
              if v = Worse then ok := false;
              Printf.printf "%-15s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n" w b.name bm nm
                (100. *. change)
                (100. *. max (spread bv) (spread nv))
                (100. *. b.bound) (verdict_name v))
          spec.Spec.end_to_end;
        let eb = error_rate b_runs and en = error_rate n_runs in
        let rose = en -. eb > 0.001 in
        if rose then ok := false;
        Printf.printf "%-15s %-18s %12.6g %12.6g %8s %8s %8s  %s\n" w "error_rate" eb en "" "" "+0.001"
          (if rose then "worse" else "same")
      end)
    workloads;
  !ok
