(* The end-to-end benchmark driver. From the repository root:

     dune exec bench/e2e/e2e.exe                      every workload, untraced
     dune exec bench/e2e/e2e.exe -- --workload W --seed N --seconds S --trace 0|1
     dune exec bench/e2e/e2e.exe -- --compare BASE.json... vs NEW.json...

   One workload prints its metrics by name and unit, the host block, and
   as its last line one JSON object: correct, attempted, failed, and the
   end-to-end metrics (--trace 0) or the per-layer ones (--trace 1). With
   no --workload every workload runs, each in its own process; --runs and
   --traced-runs repeat the pass, and --out writes every run with the host
   block to a result document (the input of --compare). The workloads,
   metric names and units, bounds and the default --seconds come from
   BENCHMARK.json in the working directory. See README.md. *)

open E2e_lib

let workload = ref ""

let seed = ref 1

let seconds = ref 0

let trace = ref 0

let out = ref ""

let runs = ref 1

let traced_runs = ref 0

let compare_args = ref []

let usage =
  "e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \       e2e.exe --compare BASE.json... vs NEW.json..."

let specs =
  [
    ("--workload", Arg.Set_string workload, "W a workload BENCHMARK.json names");
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ("--seconds", Arg.Set_int seconds, "S measured seconds per run (default: BENCHMARK.json run_seconds)");
    ("--trace", Arg.Set_int trace, "0|1 1 = traced run, per-layer metrics");
    ("--out", Arg.Set_string out, "FILE write the result document here");
    ("--runs", Arg.Set_int runs, "N untraced passes over every workload (default 1)");
    ("--traced-runs", Arg.Set_int traced_runs, "N traced passes after them (default 0)");
    ( "--compare",
      Arg.Rest_all (fun l -> compare_args := l),
      "BASE... vs NEW... verdicts per workload and end-to-end metric" );
  ]

(* Scratch space for WAL directories and the machines' dump files, inside
   the working directory and removed on exit. *)
let run_root = "_e2e_run"

let mode w =
  if Ring_bench.cfg_of w <> None then
    "ring: wall-clock CPU time over the virtual-time ring fabric, zero network delay"
  else "udp: wall clock over loopback UDP between processes, no injected delay"

let document ~(spec : Spec.t) runs =
  Report.document ~spec ~host:(Host.block ~modes:(List.map (fun w -> (w, mode w)) spec.Spec.workloads)) runs

let run_one ~spec ~dir =
  let w = !workload in
  let traced = !trace = 1 in
  let r =
    match (Ring_bench.cfg_of w, Udp_bench.plan_of w) with
    | Some cfg, _ ->
      Host.pin_self (Host.cpu_for `Ring);
      Ring_bench.run ~cfg ~workload:w ~seed:!seed ~seconds:!seconds ~traced ~dir
    | None, Some plan ->
      Host.pin_self (Host.cpu_for `Generator);
      let exe = Filename.concat (Filename.dirname Sys.executable_name) Node_exe.name in
      Udp_bench.run ~plan ~workload:w ~seed:!seed ~seconds:!seconds ~traced ~dir ~exe
    | None, None -> assert false (* rejected before *)
  in
  if !out <> "" then Json.write_file !out (document ~spec [ r ]);
  Report.print_human ~spec r;
  print_endline ("host " ^ Json.to_string (Host.block ~modes:[ (w, mode w) ]));
  print_endline (Report.result_line ~spec r);
  0

(* Every workload, each in a child process of its own (a fresh heap). *)
let run_all ~spec ~dir =
  let passes = List.init !runs (fun _ -> false) @ List.init !traced_runs (fun _ -> true) in
  let results =
    List.concat
      (List.mapi
         (fun k traced ->
           List.concat_map
             (fun w ->
               let file = Filename.concat dir (Printf.sprintf "%s-%d.json" w k) in
               let argv =
                 [|
                   Sys.executable_name;
                   "--workload";
                   w;
                   "--seed";
                   string_of_int !seed;
                   "--seconds";
                   string_of_int !seconds;
                   "--trace";
                   (if traced then "1" else "0");
                   "--out";
                   file;
                 |]
               in
               flush stdout;
               let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
               match Unix.waitpid [] pid with
               | _, Unix.WEXITED 0 -> Report.runs_of_file file
               | _ ->
                 Printf.printf "%s: the run failed\n%!" w;
                 [])
             spec.Spec.workloads)
         passes)
  in
  if !out <> "" then Json.write_file !out (document ~spec results);
  let expected = List.length passes * List.length spec.Spec.workloads in
  let correct = List.length results = expected && List.for_all Report.correct results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Report.int (sum (fun r -> r.Report.attempted)));
            ("failed", Report.int (sum (fun r -> r.Report.failed)));
            ("runs", Report.int (List.length results));
          ]));
  if correct then 0 else 1

let compare ~spec =
  let rec split acc = function
    | "vs" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  let base, new_ =
    match (split [] !compare_args, !compare_args) with
    | Some (b, n), _ -> (b, n)
    | None, [ b; n ] -> ([ b ], [ n ])
    | None, _ ->
      prerr_endline "--compare BASE.json... vs NEW.json... (or exactly two files)";
      exit 2
  in
  if base = [] || new_ = [] then begin
    prerr_endline "--compare: both sides need at least one result document";
    exit 2
  end;
  if Compare.run ~spec ~base ~new_ then 0 else 1

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec =
    try Spec.load "BENCHMARK.json"
    with e ->
      Printf.eprintf "cannot read BENCHMARK.json in the working directory (%s)\n"
        (Printexc.to_string e);
      exit 2
  in
  if !compare_args <> [] then exit (compare ~spec);
  if !seconds <= 0 then seconds := spec.Spec.run_seconds;
  let known w = Ring_bench.cfg_of w <> None || Udp_bench.plan_of w <> None in
  (match List.find_opt (fun w -> not (known w)) spec.Spec.workloads with
  | Some w ->
    Printf.eprintf "BENCHMARK.json names workload %S, which this benchmark does not run\n" w;
    exit 2
  | None -> ());
  if !workload <> "" && not (List.mem !workload spec.Spec.workloads) then begin
    Printf.eprintf "unknown workload %S (BENCHMARK.json names %s)\n%s\n" !workload
      (String.concat ", " spec.Spec.workloads)
      usage;
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let dir = Filename.concat run_root (string_of_int (Unix.getpid ())) in
  Host.mkdir_p dir;
  let cleanup () =
    Cluster.kill_all ();
    Host.rm_rf dir;
    try Unix.rmdir run_root with Unix.Unix_error _ -> ()
  in
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  exit (if !workload = "" then run_all ~spec ~dir else run_one ~spec ~dir)
