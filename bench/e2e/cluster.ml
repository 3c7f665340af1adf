(* The UDP cluster: three bench_node processes on loopback (mains 0 and 1,
   auxiliary 2), pinned per the host's pin map, and the files they leave. *)

type t = { dir : string; pids : int option array (* None once reaped *) }

(* Every child still running, so an exit on any path stops them all. *)
let live = Hashtbl.create 8

let reap pid =
  Hashtbl.remove live pid;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter reap (Hashtbl.fold (fun pid () acc -> pid :: acc) live [])

let () = at_exit kill_all

let port_free port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* Machines use base..base+2 and the generator (client id 1000) base+1000. *)
let pick_base_port ~seed =
  let rec go attempt =
    if attempt > 200 then failwith "no free UDP ports on loopback";
    let base = 20_000 + (((Unix.getpid () * 31) + (seed * 97) + (attempt * 1013)) mod 38_000) in
    if List.for_all port_free [ base; base + 1; base + 2; base + 1000 ] then base else go (attempt + 1)
  in
  go 0

let dump_path dir id = Filename.concat dir (Printf.sprintf "node%d.dump" id)

let role_of id = match id with 0 -> `Leader | 1 -> `Follower | _ -> `Aux

let spawn ~exe ~dir ~base_port ~seed ~lease =
  Host.mkdir_p dir;
  let null = Host.devnull () in
  (* The leader last: its boot-time P1a then finds the others listening. *)
  let pids = Array.make 3 None in
  List.iter
    (fun id ->
        let log =
          Unix.openfile
            (Filename.concat dir (Printf.sprintf "node%d.log" id))
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        let argv =
          Array.append
            [|
              exe;
              "--id";
              string_of_int id;
              "--base-port";
              string_of_int base_port;
              "--seed";
              string_of_int ((seed * 1009) + id);
              "--dump";
              dump_path dir id;
            |]
            (if lease then [| "--lease" |] else [||])
        in
        let argv = Host.pinned_argv (Host.cpu_for (role_of id)) argv in
        let pid = Unix.create_process argv.(0) argv null log log in
        Unix.close log;
        Hashtbl.replace live pid ();
        pids.(id) <- Some pid)
    [ 2; 1; 0 ];
  Unix.close null;
  { dir; pids }

let signal t id sg =
  match t.pids.(id) with Some pid -> ( try Unix.kill pid sg with Unix.Unix_error _ -> ()) | None -> ()

let signal_all t sg = Array.iteri (fun id _ -> signal t id sg) t.pids

(* Move a running machine to [cpu]. *)
let pin t id cpu = Option.iter (fun pid -> Host.pin pid cpu) t.pids.(id)

(* SIGKILL one machine, now. *)
let kill t id =
  signal t id Sys.sigkill;
  Option.iter reap t.pids.(id);
  t.pids.(id) <- None

(* Ask a machine to write the spans it holds, and wait (at most 5 s) for
   the "flushed" line that ends them. *)
let flush_traces t id =
  let path = dump_path t.dir id in
  let size () = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let from = size () in
  let flushed () =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
      seek_in ic from;
      let rec scan () =
        match input_line ic with
        | "flushed" -> true
        | _ -> scan ()
        | exception End_of_file -> false
      in
      let r = scan () in
      close_in ic;
      r
  in
  signal t id Sys.sighup;
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (flushed ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done

(* SIGTERM everyone, give them 5 s to write their dumps, then SIGKILL
   whoever is left. *)
let stop t =
  signal_all t Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 5. in
  Array.iteri
    (fun id p ->
      match p with
      | None -> ()
      | Some pid ->
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ when Unix.gettimeofday () < deadline ->
            Thread.delay 0.005;
            wait ()
          | 0, _ -> kill t id
          | _ ->
            Hashtbl.remove live pid;
            t.pids.(id) <- None
          | exception Unix.Unix_error _ -> t.pids.(id) <- None
        in
        wait ())
    t.pids

(* What a node left in its dump file. *)
type dump = {
  handlers : Probe.Recs.t;
  sends : Probe.Recs.t;
  digests : (int * string) list;
  hists : (string * Hist.t) list;
  tcounters : (string * int) list; (* over traced periods; the last line wins *)
  counters : (string * int) list;
  heap : (int * int) list; (* (monotonic ns, peak heap words) every write, newest first *)
  leader : bool;
  complete : bool; (* it exited cleanly *)
}

let parse_counters rest =
  List.filter_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
      | _ -> None)
    rest

let read_dump dir id =
  let d =
    ref
      {
        handlers = Probe.Recs.create 8;
        sends = Probe.Recs.create 8;
        digests = [];
        hists = [];
        tcounters = [];
        counters = [];
        heap = [];
        leader = false;
        complete = false;
      }
  in
  (match open_in (dump_path dir id) with
  | exception Sys_error _ -> ()
  | ic ->
    (try
       while true do
         let line = input_line ic in
         match String.index_opt line ' ' with
         | None -> if line = "end" then d := { !d with complete = true }
         | Some i -> (
           let tag = String.sub line 0 i and rest = String.sub line (i + 1) (String.length line - i - 1) in
           let words = String.split_on_char ' ' rest in
           match (tag, words) with
           | "h", _ -> Probe.Recs.add_line !d.handlers rest
           | "s", _ -> Probe.Recs.add_line !d.sends rest
           | "digest", [ n; hex ] -> d := { !d with digests = (int_of_string n, hex) :: !d.digests }
           | "hist", name :: _ ->
             let h = String.sub rest (String.length name + 1) (String.length rest - String.length name - 1) in
             d := { !d with hists = (name, Hist.of_string h) :: !d.hists }
           | "tcounters", _ -> d := { !d with tcounters = parse_counters words }
           | "counters", _ -> d := { !d with counters = parse_counters words }
           | "heap", [ t; n ] -> d := { !d with heap = (int_of_string t, int_of_string n) :: !d.heap }
           | "leader", [ b ] -> d := { !d with leader = b = "true" }
           | _ -> ())
       done
     with End_of_file -> ());
    close_in ic);
  !d

(* Peak heap words as of [t] (0 if no sample that early). *)
let heap_at (d : dump) t =
  match List.find_opt (fun (at, _) -> at <= t) d.heap with Some (_, w) -> w | None -> 0

(* The mains' chosen logs agree: every digest checkpoint both reached is
   equal, and they share at least one. *)
let logs_agree (a : dump) (b : dump) =
  let common = List.filter (fun (n, _) -> List.mem_assoc n b.digests) a.digests in
  common <> [] && List.for_all (fun (n, hex) -> List.assoc n b.digests = hex) common
