(* Transport conformance: one seeded message schedule replayed over the
   three transports — deterministic simulator, real UDP sockets, in-process
   byte rings — must produce byte-identical canonical traces.

   The schedule is a pure function of its seed: a driver node emits bursts
   of mixed protocol messages (single frames and multi-frame bursts, so the
   UDP outbox sends both one-frame and many-frame datagrams) toward three
   recorder endpoints. Each recorder logs every
   delivery into its own obs ring with {e logical} coordinates — the
   per-node delivery index as the timestamp, the message's canonical
   encoding ([Codec.encode]) for the byte count, and an FNV-1a fingerprint
   of those bytes as a content check — never wall-clock time or
   transport-framing sizes, which is what makes byte identity across
   runtimes a meaningful (and achievable) assertion: if any transport
   reorders, drops, duplicates, or corrupts a frame, the dumps diverge.

   The simulator dump is committed as test/golden/transport_conformance.trace
   (regenerate with `dune exec test/golden_gen.exe`), pinning all three
   runtimes to the same delivered stream across refactors. *)

module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Ballot = Cp_proto.Ballot
module Engine = Cp_sim.Engine
module Rng = Cp_util.Rng
module Obs = Cp_obs

let receivers = [ 0; 1; 2 ]

let driver = 9

let default_seed = 77

let default_rounds = 30

(* --- seeded schedule --------------------------------------------------- *)

let mk_msg rng i =
  let ballot = Ballot.make ~round:(Rng.int rng 5) ~leader:(Rng.int rng 3) in
  let cmd seq : Types.command =
    { client = 1 + Rng.int rng 3; seq; op = Printf.sprintf "set:%d:%d" seq (Rng.int rng 100) }
  in
  match Rng.int rng 10 with
  | 0 -> Types.P1a { ballot; low = i }
  | 1 -> Types.P2a { ballot; instance = i; entry = Types.App (cmd i) }
  | 2 ->
    let n = 1 + Rng.int rng 4 in
    Types.P2a { ballot; instance = i; entry = Types.Batch (List.init n (fun j -> cmd (i + j))) }
  | 3 -> Types.P2b { ballot; instance = i; from = Rng.int rng 3 }
  | 4 -> Types.Commit { instance = i; entry = Types.App (cmd i) }
  | 5 -> Types.CommitFloor { upto = i }
  | 6 -> Types.Heartbeat { ballot; commit_floor = i; sent_at = float_of_int i *. 0.25 }
  | 7 -> Types.ClientResp { client = 1 + Rng.int rng 3; seq = i; result = String.make (Rng.int rng 48) 'r' }
  | 8 -> Types.Redirect { leader_hint = Rng.int rng 3 }
  | _ ->
    Types.CatchupResp
      { entries = [ (i, Types.Noop); (i + 1, Types.App (cmd (i + 1))) ]; snapshot = None }

(* Bursts of 1-6 messages; destinations drawn per message, so one burst can
   fan out over several receivers (several datagrams) or stack
   multiple frames onto one. *)
let schedule ~seed ~rounds =
  let rng = Rng.create seed in
  List.init rounds (fun k ->
      let n = 1 + Rng.int rng 6 in
      List.init n (fun j ->
          let dst = List.nth receivers (Rng.int rng (List.length receivers)) in
          (dst, mk_msg rng ((k * 8) + j))))

let expected_per_receiver ~seed ~rounds =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun burst ->
      List.iter
        (fun (dst, _) ->
          Hashtbl.replace tbl dst (1 + Option.value (Hashtbl.find_opt tbl dst) ~default:0))
        burst)
    (schedule ~seed ~rounds);
  fun dst -> Option.value (Hashtbl.find_opt tbl dst) ~default:0

(* --- recorders --------------------------------------------------------- *)

(* 32-bit FNV-1a: stable across OCaml versions and word sizes (unlike
   [Hashtbl.hash]), so the fingerprint lines in the golden file mean the
   same thing everywhere. *)
let fnv32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

type recorder = { r_node : int; r_trace : Obs.Trace.t; mutable r_idx : int }

let mk_recorder node = { r_node = node; r_trace = Obs.Trace.create ~capacity:4096 (); r_idx = 0 }

let record r ~src msg =
  let enc = Codec.encode msg in
  let at = float_of_int r.r_idx in
  Obs.Trace.emit r.r_trace ~at ~node:r.r_node
    (Obs.Event.Msg_recv { src; kind = Types.classify msg; bytes = String.length enc });
  Obs.Trace.emit r.r_trace ~at ~node:r.r_node
    (Obs.Event.Debug (Printf.sprintf "fp=%08x" (fnv32 enc)));
  r.r_idx <- r.r_idx + 1

let recorder_handlers r =
  {
    Engine.on_message = (fun ~src msg -> record r ~src msg);
    on_timer = (fun ~tid:_ ~tag:_ -> ());
  }

let count r = r.r_idx

let dump recorders =
  Obs.Trace.to_jsonl
    (List.concat_map (fun r -> Obs.Trace.records r.r_trace) recorders)

(* --- drivers ----------------------------------------------------------- *)

let run_sim ?(seed = default_seed) ?(rounds = default_rounds) () =
  let eng =
    Engine.create ~seed ~net:Cp_sim.Netmodel.ideal ~size_of:Types.size_of
      ~kinds:Types.kinds ~kind_index:Types.kind_index ()
  in
  let recorders = List.map mk_recorder receivers in
  List.iter2
    (fun id r -> Engine.add_node eng ~id (fun _ctx -> recorder_handlers r))
    receivers recorders;
  let dctx = ref None in
  Engine.add_node eng ~id:driver (fun ctx ->
      dctx := Some ctx;
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  List.iteri
    (fun k burst ->
      Engine.at eng (0.01 *. float_of_int (k + 1)) (fun () ->
          let ctx = Option.get !dctx in
          List.iter (fun (dst, msg) -> ctx.Engine.send dst msg) burst))
    (schedule ~seed ~rounds);
  Engine.run eng;
  dump recorders

let run_ring ?(seed = default_seed) ?(rounds = default_rounds) () =
  let fab = Cp_transport.Ring.create ~seed () in
  let recorders = List.map mk_recorder receivers in
  List.iter2
    (fun id r -> Cp_transport.Ring.add_node fab ~id ~build:(fun _ctx -> recorder_handlers r))
    receivers recorders;
  let dctx = ref None in
  Cp_transport.Ring.add_node fab ~id:driver ~build:(fun ctx ->
      dctx := Some ctx;
      { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) });
  List.iter
    (fun burst ->
      let ctx = Option.get !dctx in
      List.iter (fun (dst, msg) -> ctx.Engine.send dst msg) burst;
      Cp_transport.Ring.run fab)
    (schedule ~seed ~rounds);
  dump recorders

(* Wall-clock (loopback sockets), so delivery is awaited rather than
   stepped; per-receiver FIFO comes from UDP loopback's per-socket-pair
   ordering. Returns the dump, or raises [Failure] if deliveries don't
   complete before the deadline. *)
let run_udp ?(seed = default_seed) ?(rounds = default_rounds) ~base_port () =
  let port_of id = base_port + id in
  let id_of_port port = port - base_port in
  let recorders = List.map mk_recorder receivers in
  let mk_node id build = Cp_netio.Node.create ~port_of ~id_of_port ~id ~seed ~build () in
  let rnodes =
    List.map2 (fun id r -> mk_node id (fun _ctx -> recorder_handlers r)) receivers recorders
  in
  let dctx = ref None in
  let dnode =
    mk_node driver (fun ctx ->
        dctx := Some ctx;
        { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) })
  in
  let all = dnode :: rnodes in
  let finish () = List.iter Cp_netio.Node.shutdown all in
  Fun.protect ~finally:finish (fun () ->
      List.iter
        (fun burst ->
          Cp_netio.Node.with_lock dnode (fun () ->
              let ctx = Option.get !dctx in
              List.iter (fun (dst, msg) -> ctx.Engine.send dst msg) burst);
          (* Space bursts out so consecutive datagrams to one receiver are
             handled in arrival order well before the next burst lands. *)
          Thread.delay 0.003)
        (schedule ~seed ~rounds);
      let expected = expected_per_receiver ~seed ~rounds in
      let deadline = Unix.gettimeofday () +. 15. in
      let complete () =
        List.for_all2 (fun id r -> count r >= expected id) receivers recorders
      in
      let rec wait () =
        if complete () then ()
        else if Unix.gettimeofday () > deadline then
          failwith "transport conformance: UDP deliveries timed out"
        else begin
          Thread.delay 0.01;
          wait ()
        end
      in
      wait ();
      (* Synchronize with the receiver threads before reading the traces. *)
      List.iter (fun n -> Cp_netio.Node.with_lock n (fun () -> ())) rnodes;
      dump recorders)

let golden_file = Filename.concat "golden" "transport_conformance.trace"
