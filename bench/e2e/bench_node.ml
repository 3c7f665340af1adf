(* One replica machine of the UDP workloads, wired like the CLI's [node]
   command (Node.create + Replica.create, Cheap policy, Cp_smr.Kv, f = 1,
   Mem storage, Params.default unless --lease), with the benchmark's
   wrappers around its layers:

     bench_node.exe --id I --base-port P --seed S --dump FILE [--lease]

   Tracing starts off; SIGUSR1 turns it on, SIGUSR2 off. Every 20 ms the
   main thread appends to FILE the peak heap and checkpoints of a digest
   chained over the chosen log (one every 64 instances, as persisted
   through storage), so a SIGKILLed node still leaves its history. Spans
   stay in memory until SIGHUP (then a "flushed" line follows them) or
   SIGTERM (or the parent's exit), which also writes the layer histograms
   and counters, and exits. *)

module Node = Cp_netio.Node
module Replica = Cp_engine.Replica
module Metrics = Cp_sim.Metrics
module Probe = E2e_lib.Probe
module Hist = E2e_lib.Hist

let id = ref (-1)

let base_port = ref 0

let seed = ref 1

let dump = ref ""

let lease = ref false

let () =
  Arg.parse
    [
      ("--id", Arg.Set_int id, "ID machine id (0, 1 main; 2 auxiliary)");
      ("--base-port", Arg.Set_int base_port, "PORT UDP port of machine 0");
      ("--seed", Arg.Set_int seed, "SEED RNG seed");
      ("--dump", Arg.Set_string dump, "FILE where to write spans, digests and counters");
      ("--lease", Arg.Set lease, " enable leader leases");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_node.exe --id I --base-port P --seed S --dump FILE";
  if !id < 0 || !id > 2 || !base_port <= 0 || !dump = "" then begin
    prerr_endline "bench_node: --id 0..2, --base-port and --dump are required";
    exit 2
  end

(* Digest chained over the chosen log in instance order. Entries can be
   persisted out of order (pipelined commits), so later ones wait in
   [pending] until the prefix reaches them. Runs under the node lock. *)
let chain = ref (Digest.string "")

let next_instance = ref 0

let pending = Hashtbl.create 64

let checkpoints = ref [] (* (instance, hex), newest first *)

let checkpoint_every = 64

let on_put key value =
  if String.starts_with ~prefix:"log." key then
    match int_of_string_opt (String.sub key 4 (String.length key - 4)) with
    | Some i when i >= !next_instance ->
      Hashtbl.replace pending i value;
      while Hashtbl.mem pending !next_instance do
        let v = Hashtbl.find pending !next_instance in
        Hashtbl.remove pending !next_instance;
        chain := Digest.string (!chain ^ v);
        incr next_instance;
        if !next_instance mod checkpoint_every = 0 then
          checkpoints := (!next_instance, Digest.to_hex !chain) :: !checkpoints
      done
    | _ -> ()

let stores = ref []

let make_store _gid =
  let s = Probe.timed_store ~on_put (Cp_storage.Mem.store ()) in
  stores := s :: !stores;
  s

let replica = ref None

let node =
  let f = 1 in
  let universe_mains = List.init (f + 1) Fun.id in
  let universe_auxes = List.init f (fun i -> f + 1 + i) in
  let role = if List.mem !id universe_mains then Replica.Main else Replica.Aux in
  let params = { Cp_engine.Params.default with Cp_engine.Params.enable_leases = !lease } in
  let base = !base_port in
  Node.create ~storage:make_store
    ~port_of:(fun i -> base + i)
    ~id_of_port:(fun p -> p - base)
    ~id:!id ~seed:!seed
    ~build:(fun ctx ->
      let ctx = Probe.wrap_ctx ~node:!id ctx in
      let r =
        Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy ~params
          ~initial:(Cheap_paxos.Cheap.initial_config ~f)
          ~universe_mains ~universe_auxes ~app:(module Probe.Timed_kv)
      in
      replica := Some r;
      Probe.wrap_handlers ~node:!id (Replica.handlers r))
    ()

(* Node and storage counters. Lock held. *)
let counters () =
  List.concat_map Cp_storage.Storage.counter_list !stores @ Metrics.counters (Node.metrics node)

(* Counters accumulated over the periods tracing was on. *)
let traced_acc = Hashtbl.create 64

let traced_since = ref []

let traced_counters () =
  let tbl = Hashtbl.copy traced_acc in
  if Probe.g.Probe.on then
    List.iter
      (fun (n, v) ->
        let v0 = Option.value (List.assoc_opt n !traced_since) ~default:0 in
        Hashtbl.replace tbl n (v - v0 + Option.value (Hashtbl.find_opt tbl n) ~default:0))
      (counters ());
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl []

let counters_line tag l =
  tag ^ String.concat "" (List.map (fun (n, v) -> Printf.sprintf " %s=%d" n v) l) ^ "\n"

let stop = ref false

let want_on = ref false

let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_text ] 0o644 !dump

let flush_spans = ref false

(* Under the node lock: take what accumulated since the last write. *)
let drain_locked ~spans b =
  List.iter (fun (i, hex) -> Printf.bprintf b "digest %d %s\n" i hex) (List.rev !checkpoints);
  checkpoints := [];
  let p = Probe.g in
  if !want_on <> p.Probe.on then begin
    if !want_on then begin
      traced_since := counters ();
      Probe.enable ()
    end
    else begin
      List.iter (fun (n, v) -> Hashtbl.replace traced_acc n v) (traced_counters ());
      Probe.disable ()
    end;
    Printf.bprintf b "tracing %b\n" !want_on
  end;
  if spans then begin
    Probe.Recs.iter_lines p.Probe.handlers (fun l -> Printf.bprintf b "h %s\n" l);
    Probe.Recs.iter_lines p.Probe.sends (fun l -> Printf.bprintf b "s %s\n" l);
    Probe.Recs.clear p.Probe.handlers;
    Probe.Recs.clear p.Probe.sends;
    Buffer.add_string b "flushed\n"
  end;
  if p.Probe.on then Buffer.add_string b (counters_line "tcounters" (traced_counters ()));
  Printf.bprintf b "heap %d %d\n" (Probe.now_ns ()) (Gc.quick_stat ()).Gc.top_heap_words

let write_out () =
  let b = Buffer.create 4096 in
  let spans = !flush_spans in
  flush_spans := false;
  Node.with_lock node (fun () -> drain_locked ~spans b);
  output_string oc (Buffer.contents b);
  flush oc

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> want_on := true));
  Sys.set_signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> want_on := false));
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> flush_spans := true));
  let parent = Unix.getppid () in
  while not !stop do
    Thread.delay 0.02;
    write_out ();
    if Unix.getppid () <> parent then stop := true
  done;
  let b = Buffer.create 4096 in
  Node.with_lock node (fun () ->
      drain_locked ~spans:true b;
      let p = Probe.g in
      List.iter
        (fun (name, h) -> Printf.bprintf b "hist %s %s\n" name (Hist.to_string h))
        [ ("put", p.Probe.put); ("flush", p.Probe.flush); ("apply", p.Probe.apply); ("send", p.Probe.send) ];
      Buffer.add_string b (counters_line "tcounters" (traced_counters ()));
      Buffer.add_string b (counters_line "counters" (counters ()));
      Printf.bprintf b "leader %b\n"
        (match !replica with Some r -> Replica.is_leader r | None -> false);
      Printf.bprintf b "applied %d\n" !next_instance);
  Buffer.add_string b "end\n";
  output_string oc (Buffer.contents b);
  close_out oc;
  Node.shutdown node;
  exit 0
