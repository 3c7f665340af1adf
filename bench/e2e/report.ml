(* One run's outcome, its one-line result, and the full result document. *)

type run = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  checks : (string * bool) list; (* named correctness checks; all must hold *)
  attempted : int;
  failed : int; (* requests never answered *)
  metrics : (string * float) list;
  detail : (string * Json.t) list; (* sample counts, phases, raw counters *)
}

let correct r = r.checks <> [] && List.for_all snd r.checks

(* Quartiles as Python's statistics.quantiles(data, n=4) gives them (the
   "exclusive" method); the median for fewer than two values. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta /. 4.)
    in
    (q 1, q 2, q 3)
  end

let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  if a = [||] then 0. else Cp_util.Stats.quantile a 0.5

(* A counter, 0 when absent. *)
let get name counters = Option.value (List.assoc_opt name counters) ~default:0

(* Counter lists summed by name. *)
let sum_counters lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (n, v) ->
         Hashtbl.replace tbl n (v + Option.value (Hashtbl.find_opt tbl n) ~default:0)))
    lists;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl []

let metric r name =
  match List.assoc_opt name r.metrics with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: metric %s was not measured" r.workload name)

(* What a traced run hands over to name its per-layer metrics; counters are
   summed over the replicas and over the traced window only. *)
type layers = {
  join : Join.t;
  put : Hist.t;
  flush : Hist.t;
  apply : Hist.t;
  send : Hist.t;
  counters : (string * int) list;
  ops : int; (* requests completed in the traced window *)
  aux_recv : int; (* messages the auxiliary received in it *)
  recv_ns : int; (* transport receive path outside handlers *)
  unavail_ns : int;
  late_share : float;
  gen_retries : int;
  error_rate : float;
  trace_overhead : float;
}

let layer_metrics l =
  let us ns = ns /. 1e3 in
  let per_op x = float_of_int x /. float_of_int (max 1 l.ops) in
  let c name = get name l.counters in
  let j = l.join in
  let stages =
    List.concat
      (List.mapi
         (fun i name ->
           let h = j.Join.stages.(i) in
           [
             (name ^ "_us.p50", us (Hist.quantile_ns h 0.5));
             (name ^ "_us.p99", us (Hist.quantile_ns h 0.99));
             (name ^ "_us.mean", us (Hist.mean_ns h));
           ])
         (Array.to_list Join.stage_names))
  in
  let selfs =
    List.mapi
      (fun i name -> (name ^ "_us.self", us (Hist.mean_ns j.Join.self.(i))))
      (Array.to_list Join.self_names)
  in
  stages @ selfs
  @ [
      ("transport.send_us", us (Hist.mean_ns l.send));
      ("transport.recv_us_per_op", us (per_op l.recv_ns));
      ("netio.syscalls_per_op", per_op (c "wire_syscalls"));
      ("netio.bytes_per_op", per_op (c "wire_bytes"));
      ("netio.send_drops", float_of_int (c "send_drops" + c "wire_drops"));
      ("netio.send_retries", float_of_int (c "send_retries"));
      ("storage.put_us.p50", us (Hist.quantile_ns l.put 0.5));
      ("storage.put_us.p99", us (Hist.quantile_ns l.put 0.99));
      ("storage.flush_us.p50", us (Hist.quantile_ns l.flush 0.5));
      ("storage.flush_us.p99", us (Hist.quantile_ns l.flush 0.99));
      ("storage.fsyncs_per_op", per_op (c "storage_fsyncs"));
      ("storage.bytes_appended_per_op", per_op (c "storage_bytes_appended"));
      ("smr.apply_us.mean", us (Hist.mean_ns l.apply));
      ("smr.apply_us.p99", us (Hist.quantile_ns l.apply 0.99));
      ("engine.msgs_per_op", per_op (c "msgs_sent"));
      ("engine.elections_started", float_of_int (c "elections_started"));
      ("engine.aux_engagements", float_of_int (c "aux_engagements"));
      ("engine.aux_msgs_per_kop", 1000. *. per_op l.aux_recv);
      ("engine.reconfigs", float_of_int (c "remove_proposed" + c "add_proposed"));
      ("engine.backpressure_drops", float_of_int (c "backpressure_drops"));
      ("engine.handler_errors", float_of_int (c "handler_errors"));
      ("gen.late_share", l.late_share);
      ("gen.retries", float_of_int l.gen_retries);
      ("unavail_ms", float_of_int l.unavail_ns /. 1e6);
      ("error_rate", l.error_rate);
      ("obs.trace_overhead", l.trace_overhead);
      ( "obs.attributed_share",
        float_of_int j.Join.attributed_ns /. float_of_int (max 1 j.Join.e2e_ns) );
      ("obs.joined_share", float_of_int j.Join.joined /. float_of_int (max 1 j.Join.requests));
    ]

(* Engine spans of the paths without a P2a, for the result document. *)
let join_detail (j : Join.t) =
  List.concat_map
    (fun (name, h) ->
      if Hist.count h = 0 then []
      else
        [
          ( name,
            Json.Obj
              [
                ("n", Json.Num (float_of_int (Hist.count h)));
                ("p50_us", Json.Num (Hist.quantile_ns h 0.5 /. 1e3));
                ("p99_us", Json.Num (Hist.quantile_ns h 0.99 /. 1e3));
                ("mean_us", Json.Num (Hist.mean_ns h /. 1e3));
              ] );
        ])
    [ ("engine.lease_read", j.Join.lease_read); ("engine.local_write", j.Join.local_write) ]

let num x = Json.Num x

let int x = Json.Num (float_of_int x)

(* The last line of standard output: exactly correct/attempted/failed and
   every metric of this kind of run, in BENCHMARK.json order. *)
let result_line ~spec r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct r));
         ("attempted", int r.attempted);
         ("failed", int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Spec.metric) ->
                  ( m.Spec.name,
                    Json.Obj [ ("value", num (metric r m.Spec.name)); ("unit", Json.Str m.Spec.unit_) ] ))
                (Spec.metrics spec ~traced:r.traced)) );
       ])

let to_json ~spec r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", int r.seed);
      ("seconds", int r.seconds);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (correct r));
      ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) r.checks));
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, Json.Obj [ ("value", num v); ("unit", Json.Str (Spec.unit_of spec n)) ]))
             r.metrics) );
      ("detail", Json.Obj r.detail);
    ]

let of_json j =
  let f k = Json.field k j in
  {
    workload = Json.to_str (f "workload");
    seed = int_of_float (Json.to_num (f "seed"));
    seconds = int_of_float (Json.to_num (f "seconds"));
    traced = Json.to_bool (f "traced");
    checks = List.map (fun (n, v) -> (n, Json.to_bool v)) (Json.to_obj (f "checks"));
    attempted = int_of_float (Json.to_num (f "attempted"));
    failed = int_of_float (Json.to_num (f "failed"));
    metrics =
      List.map (fun (n, v) -> (n, Json.to_num (Json.field "value" v))) (Json.to_obj (f "metrics"));
    detail = (match Json.field_opt "detail" j with Some (Json.Obj l) -> l | _ -> []);
  }

let document ~spec ~host runs =
  Json.Obj [ ("host", host); ("runs", Json.Arr (List.map (to_json ~spec) runs)) ]

(* The runs of a result document written by [--out]. *)
let runs_of_file path = List.map of_json (Json.to_list (Json.field "runs" (Json.read_file path)))

let print_human ~spec r =
  Printf.printf "%s (%s, seed %d, %d s)%s\n" r.workload
    (if r.traced then "traced" else "untraced")
    r.seed r.seconds
    (if correct r then "" else "  ** INCORRECT **");
  List.iter
    (fun (n, ok) -> if not ok then Printf.printf "  check failed: %s\n" n)
    r.checks;
  Printf.printf "  %-34s %d attempted, %d failed\n" "requests" r.attempted r.failed;
  List.iter (fun (n, v) -> Printf.printf "  %-34s %.6g %s\n" n v (Spec.unit_of spec n)) r.metrics;
  flush stdout
