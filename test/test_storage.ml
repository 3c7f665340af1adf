(* The pluggable storage layer: Mem/Wal/Faulty instances of Storage.S, the
   typed stable-record codecs, torn-tail recovery, and backend conformance
   (same seeded cluster schedule over Mem and WAL -> identical replica
   fingerprints). *)

module Storage = Cp_storage.Storage
module Mem = Cp_storage.Mem
module Wal = Cp_storage.Wal
module Faulty = Cp_storage.Faulty
module Codec = Cp_proto.Codec
module Types = Cp_proto.Types
module Ballot = Cp_proto.Ballot
module Sc = Cp_harness.Storage_conformance

(* --- temp dirs ---------------------------------------------------------- *)

let with_tmpdir f =
  let path = Filename.temp_file "cp_storage" "" in
  Unix.unlink path;
  Unix.mkdir path 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Unix.unlink p
  in
  Fun.protect ~finally:(fun () -> try rm path with _ -> ()) (fun () -> f path)

let dump s =
  Storage.keys s |> List.map (fun k -> (k, Option.value (Storage.get s k) ~default:""))

let kv_list = Alcotest.(list (pair string string))

(* --- Mem: view semantics and counter stability -------------------------- *)

let test_mem_counter_stability () =
  (* The old Stable.sub minted fresh counters per derivation, so re-deriving
     a view with the same name silently reset its write accounting. Counters
     now live in the backend keyed by resolved prefix. *)
  let root = Mem.store () in
  let v1 = Storage.sub root ~name:"g1" in
  Storage.put v1 "a" "xx";
  Storage.put v1 "b" "yyy";
  Alcotest.(check int) "writes through first handle" 2 (Storage.write_count v1);
  let v2 = Storage.sub root ~name:"g1" in
  Alcotest.(check int) "re-derived view keeps counters" 2 (Storage.write_count v2);
  Alcotest.(check int) "re-derived view keeps bytes" 5 (Storage.bytes_written v2);
  Storage.put v2 "c" "z";
  Alcotest.(check int) "both handles share the cell" 3 (Storage.write_count v1);
  (* Sibling and nested views have their own cells. *)
  let sib = Storage.sub root ~name:"g2" in
  Alcotest.(check int) "sibling independent" 0 (Storage.write_count sib);
  let nested = Storage.sub v1 ~name:"g1" in
  Alcotest.(check int) "nested independent" 0 (Storage.write_count nested)

let test_nul_guards () =
  let root = Mem.store () in
  Alcotest.check_raises "NUL rejected in view name"
    (Invalid_argument "Storage.sub: view name contains NUL") (fun () ->
      ignore (Storage.sub root ~name:"g\x001"));
  (* The separator byte keeps concatenated namespaces collision-free: view
     "g1" key "0k" and view "g10" key "k" must be distinct slots. *)
  let a = Storage.sub root ~name:"g1" in
  let b = Storage.sub root ~name:"g10" in
  Storage.put a "0k" "from-a";
  Storage.put b "k" "from-b";
  Alcotest.(check (option string)) "g1/0k" (Some "from-a") (Storage.get a "0k");
  Alcotest.(check (option string)) "g10/k" (Some "from-b") (Storage.get b "k");
  Alcotest.(check kv_list) "a sees only its key" [ ("0k", "from-a") ] (dump a);
  Alcotest.(check kv_list) "b sees only its key" [ ("k", "from-b") ] (dump b)

(* --- stable-record codecs ----------------------------------------------- *)

let sample_headers : Codec.acceptor_header list =
  [
    (Ballot.bottom, 0);
    (Ballot.make ~round:3 ~leader:1, 3);
    (Ballot.make ~round:900 ~leader:7, 1 lsl 40);
  ]

let sample_votes : Types.vote list =
  let b = Ballot.make ~round:3 ~leader:1 in
  let cmd seq : Types.command = { client = 7; seq; op = "set:x:" ^ string_of_int seq } in
  [
    { Types.vballot = b; ventry = Types.App (cmd 4) };
    { Types.vballot = Ballot.bottom; ventry = Types.Noop };
    { Types.vballot = b; ventry = Types.Batch [ cmd 6; cmd 7 ] };
    { Types.vballot = b; ventry = Types.Reconfig (Types.Remove_main 1) };
  ]

let test_codec_roundtrips () =
  List.iter
    (fun h ->
      match Codec.decode_acceptor_header (Codec.encode_acceptor_header h) with
      | Ok h' -> Alcotest.(check bool) "acceptor header roundtrips" true (h = h')
      | Error e -> Alcotest.fail ("acceptor header: " ^ e))
    sample_headers;
  List.iter
    (fun v ->
      match Codec.decode_stable_vote (Codec.encode_stable_vote v) with
      | Ok v' -> Alcotest.(check bool) "vote roundtrips" true (v = v')
      | Error e -> Alcotest.fail ("vote: " ^ e))
    sample_votes;
  let entries =
    [
      Types.Noop;
      Types.App { client = 1; seq = 2; op = "PUT k v" };
      Types.Batch [ { client = 1; seq = 3; op = "a" }; { client = 2; seq = 1; op = "b" } ];
      Types.Reconfig (Types.Add_main 9);
    ]
  in
  List.iter
    (fun e ->
      match Codec.decode_stable_entry (Codec.encode_stable_entry e) with
      | Ok e' -> Alcotest.(check bool) "entry roundtrips" true (e = e')
      | Error err -> Alcotest.fail ("entry: " ^ err))
    entries;
  let snap =
    {
      Types.next_instance = 42;
      app_state = "state-bytes\x00binary";
      sessions = [ (1, (5, [ (5, "r5") ])); (2, (0, [])) ];
      base_config = Cp_proto.Config.make ~epoch:2 ~mains:[ 0; 1 ] ~aux_pool:[ 2 ];
      pending_configs =
        [ (44, Cp_proto.Config.make ~epoch:3 ~mains:[ 0; 3 ] ~aux_pool:[ 2 ]) ];
    }
  in
  match Codec.decode_stable_snapshot (Codec.encode_stable_snapshot snap) with
  | Ok s -> Alcotest.(check bool) "snapshot roundtrips" true (s = snap)
  | Error e -> Alcotest.fail ("snapshot: " ^ e)

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      (match Codec.decode_acceptor_header s with
      | Ok _ -> Alcotest.fail "garbage decoded as acceptor header"
      | Error _ -> ());
      (match Codec.decode_stable_vote s with
      | Ok _ -> Alcotest.fail "garbage decoded as vote"
      | Error _ -> ());
      match Codec.decode_stable_entry s with
      | Ok _ -> Alcotest.fail "garbage decoded as entry"
      | Error _ -> ())
    [ ""; "\x00"; "\xff\xff\xff"; String.make 64 '\xaa' ];
  (* A header with trailing bytes (e.g. the old image layout's vote list)
     and a torn vote record are refused too. *)
  let header = Codec.encode_acceptor_header (List.nth sample_headers 1) in
  (match Codec.decode_acceptor_header (header ^ "\x00") with
  | Ok _ -> Alcotest.fail "header with trailing bytes decoded"
  | Error _ -> ());
  let vote = Codec.encode_stable_vote (List.hd sample_votes) in
  (match Codec.decode_stable_vote (String.sub vote 0 (String.length vote - 1)) with
  | Ok _ -> Alcotest.fail "truncated vote decoded"
  | Error _ -> ());
  (* Wrong version byte: refused, not misparsed. *)
  let mentions_version e =
    let n = String.length e and m = String.length "version" in
    let rec at i = i + m <= n && (String.sub e i m = "version" || at (i + 1)) in
    at 0
  in
  let bump good = "\x02" ^ String.sub good 1 (String.length good - 1) in
  List.iter
    (fun (what, result) ->
      match result with
      | Ok () -> Alcotest.fail (what ^ ": future version decoded")
      | Error e -> Alcotest.(check bool) (what ^ " names the version") true (mentions_version e))
    [
      ( "entry",
        Result.map ignore
          (Codec.decode_stable_entry (bump (Codec.encode_stable_entry Types.Noop))) );
      ("header", Result.map ignore (Codec.decode_acceptor_header (bump header)));
      ("vote", Result.map ignore (Codec.decode_stable_vote (bump vote)));
    ]

(* --- WAL: basics, reopen, rotation, compaction -------------------------- *)

let test_wal_basics_and_reopen () =
  with_tmpdir (fun dir ->
      let s = Wal.store dir in
      Storage.put s "acceptor" "img1";
      Storage.put s "log.1" "e1";
      Storage.put s "log.2" "e2";
      Storage.remove s "log.1";
      Storage.put s "acceptor" "img2";
      Storage.flush s;
      Alcotest.(check kv_list) "live contents"
        [ ("acceptor", "img2"); ("log.2", "e2") ]
        (dump s);
      Alcotest.(check string) "backend name" "wal" (Storage.backend s);
      let st = Storage.stats s in
      Alcotest.(check bool) "fsynced once" true (st.Storage.fsyncs = 1);
      Alcotest.(check bool) "appended bytes counted" true (st.Storage.bytes_appended > 0);
      Storage.close s;
      (* Cold reopen: a real segment replay must rebuild the same index. *)
      let s2 = Wal.store dir in
      Alcotest.(check kv_list) "reopen replays"
        [ ("acceptor", "img2"); ("log.2", "e2") ]
        (dump s2);
      let st2 = Storage.stats s2 in
      Alcotest.(check bool) "recovery time recorded" true (st2.Storage.recovery_ms >= 0.);
      Storage.close s2)

let test_wal_group_commit_fsyncs () =
  with_tmpdir (fun dir ->
      let s = Wal.store dir in
      (* One effect batch: many records, one flush, one fsync. *)
      for i = 1 to 8 do
        Storage.put s ("log." ^ string_of_int i) "entry"
      done;
      Storage.flush s;
      Alcotest.(check int) "batch = one fsync" 1 (Storage.stats s).Storage.fsyncs;
      (* Clean flush is free: nothing dirty, no extra sync. *)
      Storage.flush s;
      Alcotest.(check int) "idle flush free" 1 (Storage.stats s).Storage.fsyncs;
      Storage.put s "log.9" "entry";
      Storage.flush s;
      Alcotest.(check int) "next batch syncs again" 2 (Storage.stats s).Storage.fsyncs;
      Storage.close s)

let test_wal_rotation () =
  with_tmpdir (fun dir ->
      (* Tiny segments, compaction off (huge threshold): the stream must
         rotate across many files and still replay in order. *)
      let s = Wal.store ~segment_max:128 ~compact_min:max_int dir in
      for i = 0 to 49 do
        Storage.put s (Printf.sprintf "k%02d" i) (String.make 16 (Char.chr (65 + (i mod 26))))
      done;
      Storage.flush s;
      Alcotest.(check bool) "rotated" true ((Storage.stats s).Storage.segments > 1);
      let live = dump s in
      Storage.close s;
      let s2 = Wal.store dir in
      Alcotest.(check kv_list) "multi-segment replay" live (dump s2);
      Storage.close s2)

let test_wal_compaction () =
  with_tmpdir (fun dir ->
      let s = Wal.store ~segment_max:256 ~compact_min:512 ~compact_factor:2 dir in
      (* Hammer one key: almost everything appended is dead, so checkpoints
         must reclaim it. *)
      for i = 0 to 199 do
        Storage.put s "acceptor" (Printf.sprintf "image-%03d" i);
        if i mod 4 = 3 then Storage.flush s
      done;
      Storage.flush s;
      let st = Storage.stats s in
      Alcotest.(check bool)
        (Printf.sprintf "segments bounded (%d)" st.Storage.segments)
        true
        (st.Storage.segments <= 3);
      (* On-disk footprint after compaction is far below lifetime appends. *)
      let disk =
        Sys.readdir dir |> Array.to_list
        |> List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_size)
        |> List.fold_left ( + ) 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "disk %d << appended %d" disk st.Storage.bytes_appended)
        true
        (disk * 4 < st.Storage.bytes_appended);
      Alcotest.(check kv_list) "latest value survives" [ ("acceptor", "image-199") ] (dump s);
      Storage.close s;
      let s2 = Wal.store dir in
      Alcotest.(check kv_list) "recovers after compaction" [ ("acceptor", "image-199") ]
        (dump s2);
      Storage.close s2)

let test_wal_sub_views_and_wipe () =
  with_tmpdir (fun dir ->
      let root = Wal.store dir in
      let g1 = Storage.sub root ~name:"g1" in
      let g2 = Storage.sub root ~name:"g2" in
      Storage.put g1 "k" "one";
      Storage.put g2 "k" "two";
      Storage.put root "k" "root";
      Storage.flush root;
      Alcotest.(check (option string)) "g1 isolated" (Some "one") (Storage.get g1 "k");
      Storage.wipe g1;
      Alcotest.(check (option string)) "g1 wiped" None (Storage.get g1 "k");
      Alcotest.(check (option string)) "g2 survives" (Some "two") (Storage.get g2 "k");
      Storage.close root;
      (* Views are prefix-encoded in the log itself: replay restores them. *)
      let root2 = Wal.store dir in
      let g2' = Storage.sub root2 ~name:"g2" in
      Alcotest.(check (option string)) "g2 after replay" (Some "two") (Storage.get g2' "k");
      let g1' = Storage.sub root2 ~name:"g1" in
      Alcotest.(check (option string)) "g1 stays wiped" None (Storage.get g1' "k");
      (* Root wipe deletes every view and survives reopen. *)
      Storage.wipe root2;
      Alcotest.(check kv_list) "root wipe clears" [] (dump root2);
      Storage.close root2;
      let root3 = Wal.store dir in
      Alcotest.(check kv_list) "wipe is durable" [] (dump root3);
      Storage.close root3)

(* --- torn tails: crash at every byte offset ----------------------------- *)

(* A deterministic mixed workload (puts, overwrites, removes, a sub view,
   interior flushes). Returns unit ops to apply in order. *)
let tt_workload root =
  let v = Storage.sub root ~name:"g1" in
  [
    (fun () -> Storage.put root "acceptor" "alpha");
    (fun () -> Storage.put root "log.1" "entry-one");
    (fun () -> Storage.flush root);
    (fun () -> Storage.put v "k" "view-bytes");
    (fun () -> Storage.put root "acceptor" "beta-longer-image");
    (fun () -> Storage.remove root "log.1");
    (fun () -> Storage.flush root);
    (fun () -> Storage.put root "log.2" "entry-two");
    (fun () -> Storage.put root "snapshot" (String.make 40 's'));
    (fun () -> Storage.flush root);
  ]

(* Model of the workload's live state after its first [n] ops. *)
let tt_model n =
  let h = Hashtbl.create 8 in
  let ops =
    [
      `Put ("acceptor", "alpha");
      `Put ("log.1", "entry-one");
      `Nop;
      `Put ("g1\x00k", "view-bytes");
      `Put ("acceptor", "beta-longer-image");
      `Remove "log.1";
      `Nop;
      `Put ("log.2", "entry-two");
      `Put ("snapshot", String.make 40 's');
      `Nop;
    ]
  in
  List.iteri
    (fun i op ->
      if i < n then
        match op with
        | `Put (k, v) -> Hashtbl.replace h k v
        | `Remove k -> Hashtbl.remove h k
        | `Nop -> ())
    ops;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

(* Mutation ops only (flushes append nothing): byte offset of the log after
   each op, from a clean baseline run. *)
let tt_offsets dir =
  let s = Wal.open_dir dir in
  let root = Storage.Packed ((module Wal.View), s) in
  let offsets =
    List.map
      (fun op ->
        op ();
        (Storage.stats root).Storage.bytes_appended)
      (tt_workload root)
  in
  Storage.close root;
  offsets

let test_wal_torn_tail_every_offset () =
  with_tmpdir (fun base ->
      let baseline_dir = Filename.concat base "baseline" in
      let offsets = tt_offsets baseline_dir in
      let total = List.nth offsets (List.length offsets - 1) in
      Alcotest.(check bool) "workload appends bytes" true (total > 100);
      (* For a crash after X bytes, the recovered state must be exactly the
         model state after the last op whose record ended at or before X —
         every synced record kept, any torn suffix dropped, no exception. *)
      for x = 0 to total do
        let dir = Filename.concat base (Printf.sprintf "c%04d" x) in
        let plan = Faulty.plan ~crash_after_bytes:x () in
        let s = Wal.open_dir ~io:(Faulty.io plan) dir in
        let root = Storage.Packed ((module Wal.View), s) in
        (try List.iter (fun op -> op ()) (tt_workload root) with Faulty.Crash -> ());
        (* Simulated power cut: no close, no fsync; reopen cold. *)
        let r = Wal.store dir in
        let expected =
          let rec count i = function
            | [] -> i
            | off :: rest -> if off <= x then count (i + 1) rest else i
          in
          tt_model (count 0 offsets)
        in
        Alcotest.(check kv_list) (Printf.sprintf "crash at byte %d" x) expected (dump r);
        Storage.close r
      done)

let test_wal_short_writes () =
  with_tmpdir (fun base ->
      (* 1-byte syscalls: framing must be immune to arbitrary write splits. *)
      let dir = Filename.concat base "w" in
      let plan = Faulty.plan ~short_write:1 () in
      let s = Wal.open_dir ~io:(Faulty.io plan) dir in
      let root = Storage.Packed ((module Wal.View), s) in
      List.iter (fun op -> op ()) (tt_workload root);
      let live = dump root in
      Storage.close root;
      let r = Wal.store dir in
      Alcotest.(check kv_list) "short writes invisible" live (dump r);
      Storage.close r)

let test_wal_garbage_tail () =
  with_tmpdir (fun dir ->
      let s = Wal.store dir in
      List.iter (fun op -> op ()) (tt_workload s);
      let live = dump s in
      Storage.close s;
      (* Smash garbage onto the last segment: recovery must keep every real
         record, truncate the garbage away, and never raise. *)
      let seg =
        Sys.readdir dir |> Array.to_list |> List.sort compare |> List.rev |> List.hd
      in
      let path = Filename.concat dir seg in
      let clean_size = (Unix.stat path).Unix.st_size in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc ("\xde\xad\xbe\xef" ^ String.make 60 '\x91');
      close_out oc;
      let r = Wal.store dir in
      Alcotest.(check kv_list) "garbage tail ignored" live (dump r);
      Storage.close r;
      Alcotest.(check int) "garbage truncated away" clean_size (Unix.stat path).Unix.st_size)

let test_faulty_op_level () =
  with_tmpdir (fun dir ->
      let plan = Faulty.plan ~crash_before_flush:0 () in
      let s = Faulty.store plan (Wal.store dir) in
      Alcotest.(check string) "backend composes" "faulty(wal)" (Storage.backend s);
      Storage.put s "k" "v";
      Alcotest.check_raises "first flush crashes" Faulty.Crash (fun () -> Storage.flush s);
      Alcotest.check_raises "dead after crash" Faulty.Crash (fun () ->
          ignore (Storage.get s "k")))

(* --- conformance: Mem vs WAL, fingerprint-identical ---------------------- *)

let test_conformance_mem_vs_wal () =
  with_tmpdir (fun dir ->
      let mem = Sc.run () in
      Alcotest.(check bool) "mem run completed" true mem.Sc.completed;
      (* Small segments so the cluster run really rotates and compacts. *)
      let factory, close_all = Sc.wal_factory ~segment_max:8192 ~dir () in
      let wal = Sc.run ~storage:factory () in
      Alcotest.(check bool) "wal run completed" true wal.Sc.completed;
      Alcotest.(check (list (pair int string)))
        "replica fingerprints identical across backends" mem.Sc.fingerprints
        wal.Sc.fingerprints;
      Alcotest.(check bool) "schedules left state behind" true
        (List.exists (fun (_, d) -> d <> []) wal.Sc.dumps);
      (* Cold recovery: reopening every machine's WAL directory with fresh
         handles must replay to exactly what the live run left. *)
      close_all ();
      List.iter
        (fun (id, live) ->
          Alcotest.(check kv_list)
            (Printf.sprintf "machine %d cold replay" id)
            live (Sc.reopen_dump ~dir id))
        wal.Sc.dumps)

(* --- group commit across a delivery burst --------------------------------- *)

(* 32 closed-loop clients on a WAL-backed ring fabric: the runtime flushes
   once per endpoint per pump pass, so the mains' fsyncs are shared by
   every op that pass carried. A flush per handler costs 4 per op. *)
let test_ring_wal_fsyncs_per_op () =
  with_tmpdir (fun dir ->
      let storage, close_all = Sc.wal_factory ~dir () in
      let r = Sc.ring_load ~ops:10 ~storage in
      close_all ();
      Alcotest.(check bool) "clients finished" true r.Sc.finished;
      Alcotest.(check int) "every op committed" 320 r.Sc.committed;
      let per_op = float_of_int r.Sc.fsyncs /. float_of_int r.Sc.committed in
      Alcotest.(check bool)
        (Printf.sprintf "fsyncs per op %.3f in (0, 1]" per_op)
        true
        (per_op > 0. && per_op <= 1.))

(* --- incremental acceptor persistence: recovery and growth ---------------- *)

module Replica = Cp_engine.Replica
module Engine = Cp_sim.Engine
module Counter = Cp_smr.Counter

(* f = 1: mains 0 and 1, auxiliary 2. *)
let initial = Cheap_paxos.Cheap.initial_config ~f:1

(* Build (or rebuild from what [stable] holds) machine [self]'s replica on a
   ctx that drops sends and never fires timers; tests deliver messages by
   hand through its handlers. *)
let replica_on ?(params = Cp_engine.Params.default) ~self stable =
  let ctx : Types.msg Engine.ctx =
    {
      Engine.self;
      now = (fun () -> 0.);
      send = (fun _ _ -> ());
      set_timer = (fun ?tag:_ _ -> 0);
      cancel_timer = ignore;
      rng = Cp_util.Rng.create self;
      stable;
      metrics = Cp_sim.Metrics.create ();
      emit = ignore;
      tctx = Cp_obs.Traceid.create ~origin:self;
    }
  in
  let role =
    if List.mem self initial.Cp_proto.Config.mains then Replica.Main else Replica.Aux
  in
  Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy ~params ~initial
    ~universe_mains:initial.Cp_proto.Config.mains
    ~universe_auxes:initial.Cp_proto.Config.aux_pool ~app:(module Counter)

let deliver r ~src msg = (Replica.handlers r).Engine.on_message ~src msg

let ballot4 = Ballot.make ~round:4 ~leader:0

(* Run [f] over Mem and over a WAL. [disk] is the machine's store;
   [restart ()] is what the restarted machine reads: the same table for
   Mem, a cold replay of the directory for the WAL (the live handle is not
   closed first, as after a power cut). *)
let on_backends f =
  let mem = Mem.store () in
  f ~backend:"mem" ~disk:mem ~restart:(fun () -> mem);
  with_tmpdir (fun dir ->
      let handles = ref [ Wal.store dir ] in
      Fun.protect
        ~finally:(fun () -> List.iter Storage.close !handles)
        (fun () ->
          f ~backend:"wal" ~disk:(List.hd !handles) ~restart:(fun () ->
              let s = Wal.store dir in
              handles := s :: !handles;
              s)))

let test_recover_promise_after_full_compaction () =
  on_backends (fun ~backend ~disk ~restart ->
      let params = { Cp_engine.Params.default with snapshot_every = 2 } in
      let r = replica_on ~params ~self:1 disk in
      for i = 0 to 1 do
        let entry = Types.App { client = 1000; seq = i + 1; op = Counter.inc 1 } in
        deliver r ~src:0 (Types.P2a { ballot = ballot4; instance = i; entry });
        deliver r ~src:0 (Types.Commit { instance = i; entry })
      done;
      Alcotest.(check int) (backend ^ ": snapshot compacted every vote") 0
        (Replica.acceptor_vote_count r);
      let r = replica_on ~params ~self:1 (restart ()) in
      Alcotest.(check bool)
        (backend ^ ": promise from the P2a survives")
        true
        (Ballot.equal ballot4 (Replica.acceptor_promised r));
      Alcotest.(check int) (backend ^ ": no votes") 0 (Replica.acceptor_vote_count r);
      Alcotest.(check int) (backend ^ ": floor") 2 (Replica.acceptor_floor r);
      Alcotest.(check int) (backend ^ ": executed") 2 (Replica.executed r))

let test_recover_torn_compaction () =
  on_backends (fun ~backend ~disk ~restart ->
      (* The auxiliary accepts four votes; its compaction to floor 2 then
         crashes after the header put, before the first vote removal. *)
      let plan = Faulty.plan ~crash_before_remove:0 () in
      let r = replica_on ~self:2 (Faulty.store plan disk) in
      for i = 0 to 3 do
        deliver r ~src:0 (Types.P2a { ballot = ballot4; instance = i; entry = Types.Noop })
      done;
      Alcotest.check_raises (backend ^ ": crash between header and drops") Faulty.Crash
        (fun () -> deliver r ~src:0 (Types.CommitFloor { upto = 2 }));
      let disk = restart () in
      Alcotest.(check (list string))
        (backend ^ ": header landed, drops did not")
        [ "acceptor"; "vote.0"; "vote.1"; "vote.2"; "vote.3" ]
        (Storage.keys disk);
      let r = replica_on ~self:2 disk in
      Alcotest.(check int) (backend ^ ": floor") 2 (Replica.acceptor_floor r);
      Alcotest.(check int) (backend ^ ": only votes at or above the floor") 2
        (Replica.acceptor_vote_count r);
      Alcotest.(check bool)
        (backend ^ ": promise")
        true
        (Ballot.equal ballot4 (Replica.acceptor_promised r));
      Alcotest.(check (list string))
        (backend ^ ": recovery re-drops the leftovers")
        [ "acceptor"; "vote.2"; "vote.3" ]
        (Storage.keys disk))

let test_wal_cold_reopen_fingerprint () =
  with_tmpdir (fun dir ->
      let factory, close_all = Sc.wal_factory ~dir () in
      let live = Sc.run ~storage:factory () in
      Alcotest.(check bool) "wal run completed" true live.Sc.completed;
      close_all ();
      let is_vote (k, _) = String.length k > 5 && String.sub k 0 5 = "vote." in
      Alcotest.(check bool) "the run left vote records" true
        (List.exists (fun (_, d) -> List.exists is_vote d) live.Sc.dumps);
      List.iter
        (fun (id, dump) ->
          (* The live run's store, copied, against a cold segment replay:
             a replica recovered from each must be the same replica. *)
          let copy = Mem.store () in
          List.iter (fun (k, v) -> Storage.put copy k v) dump;
          let cold = Wal.store (Filename.concat dir (Printf.sprintf "n%d" id)) in
          let from_live = replica_on ~self:id copy and from_cold = replica_on ~self:id cold in
          Alcotest.(check string)
            (Printf.sprintf "machine %d recovered fingerprint" id)
            (Replica.fingerprint from_live) (Replica.fingerprint from_cold);
          Alcotest.(check int)
            (Printf.sprintf "machine %d recovered every live vote" id)
            (List.length (List.filter is_vote dump))
            (Replica.acceptor_vote_count from_cold);
          Storage.close cold)
        live.Sc.dumps)

(* The bytes persisted per committed op must not grow with the votes the
   acceptors hold (a main compacts them only every [snapshot_every]
   instances): ops 100-150 and ops 400-450 cost the leader the same. *)
let test_bytes_per_op_flat () =
  let cluster =
    Cp_runtime.Cluster.create ~seed:5 ~policy:Cheap_paxos.Cheap.policy ~initial
      ~app:(module Counter) ()
  in
  let leader_bytes () =
    Storage.bytes_written (Engine.stable (Cp_runtime.Cluster.engine cluster) 0)
  in
  (* [ops seq] is asked for op [seq] once ops 1..seq-1 have completed. *)
  let marks = Hashtbl.create 4 in
  let ops seq =
    if List.mem seq [ 101; 151; 401; 451 ] then Hashtbl.replace marks seq (leader_bytes ());
    if seq <= 451 then Some (Counter.inc 1) else None
  in
  let _, client = Cp_runtime.Cluster.add_client cluster ~think:1e-4 ~ops () in
  Alcotest.(check bool) "finished" true
    (Cp_runtime.Cluster.run_until cluster ~deadline:30. (fun () ->
         Cp_smr.Client.is_finished client));
  Alcotest.(check (option int)) "node 0 led throughout" (Some 0)
    (Cp_runtime.Cluster.leader cluster);
  let per_op a b = float_of_int (Hashtbl.find marks b - Hashtbl.find marks a) /. 50. in
  let early = per_op 101 151 and late = per_op 401 451 in
  Alcotest.(check bool)
    (Printf.sprintf "bytes per op flat: %.1f early vs %.1f late" early late)
    true
    (Float.abs (late -. early) <= 4.)

(* --- fleet: N groups on one WAL root per machine ------------------------- *)

let fleet_run ?storage () =
  let groups = 3 in
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let fleet =
    Cp_fleet.Fleet.create ~seed:23 ?storage ~groups ~policy:Cheap_paxos.Cheap.policy
      ~initial ~app:(module Cp_smr.Kv) ()
  in
  let handles =
    List.init 3 (fun i ->
        let ops =
          Cp_workload.Workload.kv_ops
            ~rng:(Cp_util.Rng.create (800 + i))
            ~keys:48 ~read_ratio:0. ~count:25 ()
        in
        Cp_fleet.Fleet.add_client fleet ~think:1e-4 ~ops ())
  in
  (* Crash and recover a main mid-run: every hosted group loses and
     recovers its namespace of the machine's one store together. *)
  let victim = List.nth (Cp_fleet.Fleet.mains fleet) 1 in
  Cp_sim.Engine.at (Cp_fleet.Fleet.engine fleet) 0.05 (fun () ->
      Cp_fleet.Fleet.crash fleet victim);
  Cp_sim.Engine.at (Cp_fleet.Fleet.engine fleet) 0.15 (fun () ->
      Cp_fleet.Fleet.restart fleet victim);
  let finished =
    Cp_fleet.Fleet.run_until fleet ~deadline:30. (fun () ->
        List.for_all (fun (_, c) -> Cp_smr.Client.is_finished c) handles)
  in
  let ids = Cp_fleet.Fleet.mains fleet @ Cp_fleet.Fleet.auxes fleet in
  let fps =
    List.concat_map
      (fun id ->
        List.init groups (fun gid ->
            ( (id, gid),
              Cp_engine.Replica.fingerprint (Cp_fleet.Fleet.replica fleet id ~gid) )))
      ids
  in
  (finished, fps)

let test_fleet_restart_on_shared_wal () =
  with_tmpdir (fun dir ->
      let handles = ref [] in
      let storage id =
        let s = Wal.store (Filename.concat dir (Printf.sprintf "m%d" id)) in
        handles := (id, s) :: !handles;
        s
      in
      let mem_finished, mem_fps = fleet_run () in
      let wal_finished, wal_fps = fleet_run ~storage () in
      Alcotest.(check bool) "mem fleet finished" true mem_finished;
      Alcotest.(check bool) "wal fleet finished" true wal_finished;
      Alcotest.(check (list (pair (pair int int) string)))
        "per-group fingerprints identical across backends" mem_fps wal_fps;
      (* Each machine's groups share ONE root: its segment files hold every
         group's namespace, and cold replay restores each view. *)
      List.iter
        (fun (id, s) ->
          let live = dump s in
          Storage.close s;
          if live <> [] then begin
            let r = Wal.store (Filename.concat dir (Printf.sprintf "m%d" id)) in
            Alcotest.(check kv_list)
              (Printf.sprintf "machine %d shared-root replay" id)
              live (dump r);
            let views =
              List.filter_map
                (fun (k, _) ->
                  match String.index_opt k '\x00' with
                  | Some i -> Some (String.sub k 0 i)
                  | None -> None)
                live
              |> List.sort_uniq compare
            in
            Alcotest.(check bool)
              (Printf.sprintf "machine %d hosts several namespaces (%d)" id
                 (List.length views))
              true
              (List.length views >= 2);
            Storage.close r
          end)
        !handles)

(* --- storage counters on metrics surfaces -------------------------------- *)

let test_counter_list () =
  with_tmpdir (fun dir ->
      let s = Wal.store dir in
      Storage.put s "k" "vvvv";
      Storage.flush s;
      let c = Storage.counter_list s in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " present") true (List.mem_assoc name c))
        [
          "storage_writes";
          "storage_bytes_written";
          "storage_bytes_used";
          "storage_fsyncs";
          "storage_bytes_appended";
          "storage_segments";
          "storage_recovery_ms";
        ];
      Alcotest.(check int) "writes" 1 (List.assoc "storage_writes" c);
      Alcotest.(check int) "fsyncs" 1 (List.assoc "storage_fsyncs" c);
      Storage.close s)

let suite =
  [
    Alcotest.test_case "mem: counters survive re-derivation" `Quick
      test_mem_counter_stability;
    Alcotest.test_case "sub: NUL guard and collision freedom" `Quick test_nul_guards;
    Alcotest.test_case "codec: stable records roundtrip" `Quick test_codec_roundtrips;
    Alcotest.test_case "codec: garbage and versions rejected" `Quick
      test_codec_rejects_garbage;
    Alcotest.test_case "wal: basics and cold reopen" `Quick test_wal_basics_and_reopen;
    Alcotest.test_case "wal: group commit fsync accounting" `Quick
      test_wal_group_commit_fsyncs;
    Alcotest.test_case "wal: segment rotation" `Quick test_wal_rotation;
    Alcotest.test_case "wal: compaction reclaims dead bytes" `Quick test_wal_compaction;
    Alcotest.test_case "wal: sub views and wipe" `Quick test_wal_sub_views_and_wipe;
    Alcotest.test_case "wal: torn tail at every byte offset" `Slow
      test_wal_torn_tail_every_offset;
    Alcotest.test_case "wal: short writes" `Quick test_wal_short_writes;
    Alcotest.test_case "wal: garbage tail never raises" `Quick test_wal_garbage_tail;
    Alcotest.test_case "faulty: op-level crash points" `Quick test_faulty_op_level;
    Alcotest.test_case "conformance: mem and wal fingerprint-identical" `Slow
      test_conformance_mem_vs_wal;
    Alcotest.test_case "group commit: ring over wal, fsyncs per op <= 1" `Slow
      test_ring_wal_fsyncs_per_op;
    Alcotest.test_case "recovery: promise survives full compaction" `Quick
      test_recover_promise_after_full_compaction;
    Alcotest.test_case "recovery: torn compaction keeps votes above floor" `Quick
      test_recover_torn_compaction;
    Alcotest.test_case "recovery: wal cold reopen matches live fingerprint" `Slow
      test_wal_cold_reopen_fingerprint;
    Alcotest.test_case "growth: bytes per op flat as votes accumulate" `Quick
      test_bytes_per_op_flat;
    Alcotest.test_case "fleet: groups share one wal root, crash/recover" `Slow
      test_fleet_restart_on_shared_wal;
    Alcotest.test_case "counters: storage metric names" `Quick test_counter_list;
  ]
