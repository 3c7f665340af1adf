(* Transport layer: the byte ring and outbox primitives, the conformance
   suite (one seeded schedule over sim / ring / UDP must yield byte-identical
   canonical traces, pinned by a committed golden file), and a full replica
   cluster committing over the in-process ring fabric. *)

module Bytering = Cp_transport.Bytering
module Outbox = Cp_transport.Outbox
module Ring = Cp_transport.Ring
module Conformance = Cp_harness.Conformance
module Codec = Cp_proto.Codec
module Types = Cp_proto.Types
module Replica = Cp_engine.Replica
module Client = Cp_smr.Client

(* --- byte ring --------------------------------------------------------- *)

let write_str ring s =
  Bytering.write ring
    ~max:(String.length s)
    ~f:(fun buf ~pos ->
      Bytes.blit_string s 0 buf pos (String.length s);
      pos + String.length s)

let read_str ring =
  let got = ref None in
  let ok =
    Bytering.read ring ~f:(fun buf ~pos ~len -> got := Some (Bytes.sub_string buf pos len))
  in
  if ok then !got else None

let test_bytering_roundtrip () =
  let ring = Bytering.create ~capacity:256 () in
  Alcotest.(check int) "max record" (min 126 0xfffe) (Bytering.max_record ring);
  Alcotest.(check bool) "starts empty" true (Bytering.is_empty ring);
  let records = [ "a"; ""; String.make 50 'x'; "hello world" ] in
  List.iter (fun s -> Alcotest.(check (option int)) "write" (Some (String.length s)) (write_str ring s)) records;
  List.iter
    (fun s -> Alcotest.(check (option string)) "read back in order" (Some s) (read_str ring))
    records;
  Alcotest.(check (option string)) "drained" None (read_str ring);
  Alcotest.(check bool) "empty again" true (Bytering.is_empty ring)

(* Records near half the capacity force the skip-marker wrap path over and
   over; every record must still come back contiguous and intact. *)
let test_bytering_wrap () =
  let ring = Bytering.create ~capacity:256 () in
  for i = 0 to 199 do
    let s = String.make (80 + (i mod 40)) (Char.chr (Char.code 'a' + (i mod 26))) in
    (match write_str ring s with
    | Some n -> Alcotest.(check int) "committed length" (String.length s) n
    | None -> Alcotest.failf "write %d refused with an empty ring" i);
    Alcotest.(check (option string)) "wrap-preserving read" (Some s) (read_str ring)
  done

let test_bytering_full_and_refusal () =
  let ring = Bytering.create ~capacity:256 () in
  Alcotest.(check (option int)) "oversized refused" None
    (write_str ring (String.make (Bytering.max_record ring + 1) 'z'));
  let s = String.make 100 'q' in
  let written = ref 0 in
  while write_str ring s <> None do
    incr written
  done;
  Alcotest.(check bool) "filled up" true (!written >= 1);
  Alcotest.(check (option string)) "drain one" (Some s) (read_str ring);
  Alcotest.(check bool) "room again after a read" true (write_str ring s <> None)

let test_bytering_encoder_exn_commits_nothing () =
  let ring = Bytering.create ~capacity:256 () in
  (try
     ignore
       (Bytering.write ring ~max:50 ~f:(fun buf ~pos ->
            Bytes.set buf pos 'X';
            failwith "encoder blew up"));
     Alcotest.fail "exception was swallowed"
   with Failure _ -> ());
  Alcotest.(check bool) "nothing committed" true (Bytering.is_empty ring);
  ignore (write_str ring "after");
  Alcotest.(check (option string)) "ring still consistent" (Some "after") (read_str ring)

(* --- byte ring growth ---------------------------------------------------- *)

let numbered = Printf.sprintf "%s%03d"

let drain ?limit ring =
  let rec go acc =
    let got = ref "" in
    if Bytering.read ?limit ring ~f:(fun buf ~pos ~len -> got := Bytes.sub_string buf pos len)
    then go (!got :: acc)
    else List.rev acc
  in
  go []

let write_ok ring s =
  match write_str ring s with
  | Some n -> Alcotest.(check int) "committed length" (String.length s) n
  | None -> Alcotest.failf "write of %d bytes refused" (String.length s)

(* A pass snapshots [written]; a burst that grows the ring mid-pass (even
   from inside the read callback, as a handler writing to its own ring
   would) must neither reorder the unread records nor let the pass read
   past its snapshot. *)
let test_bytering_growth_mid_pass () =
  let ring = Bytering.create ~capacity:4096 () in
  Alcotest.(check int) "starts small" 1024 (Bytering.allocated ring);
  let pre = List.init 5 (fun i -> numbered (String.make 80 'a') i) in
  List.iter (write_ok ring) pre;
  let limit = Bytering.written ring in
  let post = List.init 12 (fun i -> numbered (String.make 240 'b') i) in
  Alcotest.(check (option string)) "first record" (Some (List.hd pre)) (read_str ring);
  let second = ref "" in
  Alcotest.(check bool) "second record" true
    (Bytering.read ~limit ring ~f:(fun buf ~pos ~len ->
         (* The burst lands while this record, not the buffer's first, is
            being read. *)
         List.iter (write_ok ring) post;
         second := Bytes.sub_string buf pos len));
  Alcotest.(check bool) "grew" true (Bytering.allocated ring > 1024);
  Alcotest.(check string) "window stayed valid" (List.nth pre 1) !second;
  Alcotest.(check (list string)) "pass ends at its snapshot"
    (List.filteri (fun i _ -> i >= 2) pre)
    (drain ~limit ring);
  Alcotest.(check (list string)) "later records follow, in order" post (drain ring);
  Alcotest.(check bool) "empty" true (Bytering.is_empty ring);
  Alcotest.(check int) "capacity is the bound, not the buffer" 4096 (Bytering.capacity ring)

(* Grow while the unread records wrap around the buffer's end behind a
   skip marker, then keep wrapping at the larger size. *)
let test_bytering_growth_across_wrap () =
  let ring = Bytering.create ~capacity:4096 () in
  let r i = numbered (String.make 397 (Char.chr (Char.code 'a' + (i mod 26)))) i in
  write_ok ring (r 0);
  write_ok ring (r 1);
  Alcotest.(check (list string)) "one read" [ r 0 ] (drain ~limit:1 ring);
  (* 804 bytes used, head at 402: the next record skips to offset 0. *)
  write_ok ring (r 2);
  Alcotest.(check int) "still 1 KiB after wrapping" 1024 (Bytering.allocated ring);
  write_ok ring (r 3);
  Alcotest.(check bool) "grew with a wrapped tail" true (Bytering.allocated ring > 1024);
  Alcotest.(check (list string)) "wrapped records survive growth in order" [ r 1; r 2; r 3 ]
    (drain ring);
  for i = 4 to 203 do
    write_ok ring (r i);
    if i mod 3 = 0 then write_ok ring (r (1000 + i));
    let want = if i mod 3 = 0 then [ r i; r (1000 + i) ] else [ r i ] in
    Alcotest.(check (list string)) "wrap at the grown size" want (drain ring)
  done;
  Alcotest.(check bool) "bounded by capacity" true (Bytering.allocated ring <= 4096)

(* The record budget is the capacity's, whatever the current buffer. *)
let test_bytering_max_record_from_smallest () =
  List.iter
    (fun capacity ->
      let ring = Bytering.create ~capacity () in
      Alcotest.(check int) "starts at 1 KiB at most" (min capacity 1024)
        (Bytering.allocated ring);
      let big = String.make (Bytering.max_record ring) 'm' in
      Alcotest.(check int) "budget of the full-size ring"
        (min ((capacity / 2) - 2) 0xfffe)
        (Bytering.max_record ring);
      write_ok ring "small";
      write_ok ring big;
      Alcotest.(check (list string)) "both back" [ "small"; big ] (drain ring);
      Alcotest.(check (option int)) "one byte more is refused" None
        (write_str ring (big ^ "!")))
    [ 65536; 4096; 256 ]

(* --- outbox ------------------------------------------------------------ *)

let mk_capture () =
  let sent = ref [] in
  let send ~dst buf ~off ~len = sent := (dst, Bytes.sub_string buf off len) :: !sent in
  (sent, send)

let hb i =
  Types.Heartbeat
    { ballot = Cp_proto.Ballot.make ~round:i ~leader:0; commit_floor = i; sent_at = 0.5 }

let frame ~tid msg =
  let buf = Bytes.create 4096 in
  Bytes.sub_string buf 0 (Codec.encode_into buf ~pos:0 ~gid:0 ~tid msg)

let test_outbox_single_frame () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~send () in
  let n = Outbox.append ob ~dst:4 ~tid:9 (hb 1) in
  Alcotest.(check int) "append returns frame length" (String.length (frame ~tid:9 (hb 1))) n;
  Alcotest.(check int) "pending before flush" 1 (Outbox.pending ob);
  Outbox.flush ob;
  Alcotest.(check int) "pending after flush" 0 (Outbox.pending ob);
  (* One frame goes out in the same layout as a burst: a one-frame
     datagram, length header included. *)
  Alcotest.(check (list (pair int string)))
    "single frame is a one-frame datagram"
    [ (4, frame ~tid:9 (hb 1)) ]
    !sent

let test_outbox_packs_per_destination () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~send () in
  ignore (Outbox.append ob ~dst:7 ~tid:1 (hb 1));
  ignore (Outbox.append ob ~dst:7 ~tid:2 (hb 2));
  ignore (Outbox.append ob ~dst:7 ~tid:3 (hb 3));
  ignore (Outbox.append ob ~dst:5 ~tid:4 (hb 4));
  Alcotest.(check int) "two dirty destinations" 2 (Outbox.pending ob);
  Outbox.flush ob;
  (match List.rev !sent with
  | [ (5, single); (7, packed) ] ->
    (* Ascending-destination flush order; a burst is its frames back to
       back. *)
    Alcotest.(check string) "dst 5 one frame" (frame ~tid:4 (hb 4)) single;
    Alcotest.(check string) "dst 7 three frames"
      (String.concat "" (List.map (fun i -> frame ~tid:i (hb i)) [ 1; 2; 3 ]))
      packed;
    (match Codec.decode_frames packed with
    | Ok frames ->
      Alcotest.(check int) "three frames" 3 (List.length frames);
      List.iteri
        (fun i (f : Codec.framed) ->
          Alcotest.(check int) "frame tid in order" (i + 1) f.f_tid;
          Alcotest.(check string) "frame kind" "heartbeat" (Types.classify f.f_msg))
        frames
    | Error e -> Alcotest.failf "decode_frames: %s" e)
  | l -> Alcotest.failf "unexpected datagram count %d" (List.length l));
  Outbox.flush ob;
  Alcotest.(check int) "flush is idempotent" 2 (List.length !sent)

(* A full buffer flushes mid-append and the frame retries into the empty
   buffer; nothing is lost or reordered across the datagram boundary. *)
let test_outbox_overflow_flush_retry () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~capacity:512 ~send () in
  let msg i = Types.ClientResp { client = 1; seq = i; result = String.make 100 'p' } in
  let total = 9 in
  for i = 1 to total do
    ignore (Outbox.append ob ~dst:2 ~tid:i (msg i))
  done;
  Outbox.flush ob;
  Alcotest.(check bool) "capacity forced interim datagrams" true (List.length !sent >= 2);
  let seqs =
    List.concat_map
      (fun (dst, dgram) ->
        Alcotest.(check int) "all to dst 2" 2 dst;
        match Codec.decode_frames dgram with
        | Error e -> Alcotest.failf "decode_frames: %s" e
        | Ok frames ->
          List.map
            (fun f ->
              match (f : Codec.framed).f_msg with
              | Types.ClientResp { seq; _ } -> seq
              | m -> Alcotest.failf "unexpected %s" (Types.classify m))
            frames)
      (List.rev !sent)
  in
  Alcotest.(check (list int)) "every frame, in order, across datagrams"
    (List.init total (fun i -> i + 1))
    seqs

let test_outbox_giant_frame_overflows () =
  let sent, send = mk_capture () in
  let ob = Outbox.create ~capacity:512 ~send () in
  let giant = Types.ClientResp { client = 1; seq = 1; result = String.make 4096 'g' } in
  (try
     ignore (Outbox.append ob ~dst:1 ~tid:0 giant);
     Alcotest.fail "Overflow expected"
   with Codec.Overflow -> ());
  (* The outbox stays usable for normal frames afterwards. *)
  ignore (Outbox.append ob ~dst:1 ~tid:0 (hb 1));
  Outbox.flush ob;
  Alcotest.(check int) "normal frame still goes out" 1 (List.length !sent)

(* --- conformance ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_conformance_sim_golden () =
  let path = Conformance.golden_file in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s (run `dune exec test/golden_gen.exe`)" path;
  let dump = Conformance.run_sim () in
  Alcotest.(check bool) "schedule is non-trivial" true (String.length dump > 1000);
  Alcotest.(check string) "sim dump matches committed golden" (read_file path) dump

let test_conformance_ring () =
  Alcotest.(check string) "ring dump byte-identical to sim"
    (Conformance.run_sim ()) (Conformance.run_ring ())

let test_conformance_udp () =
  Alcotest.(check string) "udp dump byte-identical to sim"
    (Conformance.run_sim ())
    (Conformance.run_udp ~base_port:46100 ())

(* Seed independence of the harness itself: a different seed yields a
   different schedule, and sim/ring still agree on it. *)
let test_conformance_other_seed () =
  let seed = 1234 in
  let sim = Conformance.run_sim ~seed () in
  Alcotest.(check bool) "distinct schedule" false (String.equal sim (Conformance.run_sim ()));
  Alcotest.(check string) "ring agrees on the other seed too" sim (Conformance.run_ring ~seed ())

(* --- a real cluster over the ring fabric ------------------------------- *)

(* Three replicas and a 25-op client on a fresh fabric: [before_run] may
   tamper with the fabric first, [storage] supplies the stores, and [tap]
   sees every message a replica receives. Returns the fabric, the client,
   and the mains' log dumps after the run. *)
let run_ring_cluster ?(before_run = ignore) ?storage ?(tap = fun _ ~src:_ _ -> ()) () =
  let initial = Cheap_paxos.Cheap.initial_config ~f:1 in
  let universe_mains = [ 0; 1 ] and universe_auxes = [ 2 ] in
  let fab = Ring.create ~seed:99 ?storage () in
  let replicas = Hashtbl.create 4 in
  let make_replica id role =
    Ring.add_node fab ~id ~build:(fun ctx ->
        let r =
          Replica.create ctx ~role ~policy:Cheap_paxos.Cheap.policy
            ~params:Cp_engine.Params.default ~initial ~universe_mains ~universe_auxes
            ~app:(module Cp_smr.Counter)
        in
        Hashtbl.replace replicas id r;
        let h = Replica.handlers r in
        {
          h with
          Cp_sim.Engine.on_message =
            (fun ~src msg ->
              tap id ~src msg;
              h.Cp_sim.Engine.on_message ~src msg);
        })
  in
  List.iter (fun id -> make_replica id Replica.Main) universe_mains;
  List.iter (fun id -> make_replica id Replica.Aux) universe_auxes;
  let client_cell = ref None in
  Ring.add_node fab ~id:1000 ~build:(fun ctx ->
      let c =
        Client.create ctx ~mains:universe_mains ~timeout:0.2
          ~ops:(fun seq -> if seq <= 25 then Some (Cp_smr.Counter.inc 1) else None)
          ()
      in
      client_cell := Some c;
      Client.handlers c);
  before_run fab;
  Ring.run ~until:20. fab;
  let dumps =
    List.map
      (fun id ->
        let r = Hashtbl.find replicas id in
        {
          Cp_checker.Consistency.node = id;
          base = Replica.log_base r;
          entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
        })
      universe_mains
  in
  (fab, Option.get !client_cell, dumps)

(* Counter handles change no counter: a seeded replica cluster's counters
   over the ring equal the committed dump the name-building path produced,
   and no per-kind counter is listed before its first message. *)
let test_ring_counters_golden () =
  let path = Cp_harness.Golden.ring_counters_file in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden file %s (run `dune exec test/golden_gen.exe`)" path;
  let dump = Cp_harness.Golden.ring_counters () in
  Alcotest.(check string) "ring counters match the committed dump" (read_file path) dump;
  String.split_on_char '\n' dump
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ node; name; v ] ->
           let per_kind =
             List.exists
               (fun p -> String.starts_with ~prefix:p name)
               [ "sent."; "recv."; "rx." ]
           in
           if per_kind && int_of_string v = 0 then
             Alcotest.failf "node %s lists %s at 0" node name
         | _ -> ())

let check_commits (_, client, dumps) =
  Alcotest.(check bool) "client finished over the ring fabric" true (Client.is_finished client);
  Alcotest.(check int) "all ops done" 25 (Client.done_count client);
  match Cp_checker.Consistency.agreement dumps with Ok () -> () | Error e -> Alcotest.fail e

(* The same replica and client builders the simulator and the UDP runtime
   host, wired over in-process byte rings: commits must complete and the
   mains' logs must agree, with zero ring drops. *)
let test_ring_cluster_commits () =
  let ((fab, _, _) as run) = run_ring_cluster () in
  check_commits run;
  List.iter
    (fun id ->
      let m = Ring.metrics fab id in
      Alcotest.(check int)
        (Printf.sprintf "node %d: no ring drops" id)
        0
        (Cp_sim.Metrics.get m "wire_drops");
      Alcotest.(check bool)
        (Printf.sprintf "node %d: wire bytes counted" id)
        true
        (Cp_sim.Metrics.get m "wire_bytes" > 0))
    [ 0; 1; 1000 ]

(* A record that does not decode (here: a length header promising more
   bytes than the record holds) is counted at its destination and
   dropped; the cluster still commits. *)
let test_ring_corrupt_record () =
  let junk = "\x05\x00\x02" in
  let inject fab =
    ignore
      (Bytering.write (Ring.link fab ~src:1000 ~dst:0) ~max:(String.length junk)
         ~f:(fun buf ~pos ->
           Bytes.blit_string junk 0 buf pos (String.length junk);
           pos + String.length junk))
  in
  let ((fab, _, _) as run) = run_ring_cluster ~before_run:inject () in
  Alcotest.(check int) "decode error counted at the destination" 1
    (Cp_sim.Metrics.get (Ring.metrics fab 0) "wire_decode_errors");
  check_commits run

(* Instances per command under [Params.default]: three replicas, a KV and 32
   closed-loop clients of 250 PUTs each (the ring_mem load) on a fresh
   fabric. While an instance is in flight the requests that arrive fill one
   batch, so 8,000 commands take at most 2,000 proposals (1,240 here).
   Ring runs are deterministic, so the count repeats exactly. *)
let test_ring_instances_per_command () =
  let clients = 32 and per_client = 250 in
  let mains = [ 0; 1 ] and auxes = [ 2 ] in
  let fab = Ring.create ~seed:7 () in
  let replicas =
    List.map
      (fun id ->
        let cell = ref None in
        Ring.add_node fab ~id ~build:(fun ctx ->
            let r =
              Replica.create ctx
                ~role:(if List.mem id mains then Replica.Main else Replica.Aux)
                ~policy:Cheap_paxos.Cheap.policy ~params:Cp_engine.Params.default
                ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
                ~universe_mains:mains ~universe_auxes:auxes ~app:(module Cp_smr.Kv)
            in
            cell := Some r;
            Replica.handlers r);
        (id, cell))
      (mains @ auxes)
  in
  let put client seq =
    let key = Printf.sprintf "k%d" (((client * 7919) + (seq * 31)) mod 1024) in
    Cp_smr.Kv.put key (Printf.sprintf "%s=%d.%d.%s" key client seq (String.make 48 'v'))
  in
  let handles =
    List.init clients (fun k ->
        let id = 1000 + k and cell = ref None in
        Ring.add_node fab ~id ~build:(fun ctx ->
            let c =
              Client.create ctx ~mains ~timeout:Cp_engine.Params.default.client_timeout
                ~ops:(fun seq -> if seq <= per_client then Some (put id seq) else None)
                ()
            in
            cell := Some c;
            Client.handlers c);
        cell)
  in
  let finished () = List.for_all (fun c -> Client.is_finished (Option.get !c)) handles in
  while (not (finished ())) && Ring.now fab < 60. do
    Ring.run ~until:(Ring.now fab +. 2e-3) fab
  done;
  Alcotest.(check bool) "every client finished" true (finished ());
  let replica id = Option.get !(List.assoc id replicas) in
  let leaders = List.filter (fun id -> Replica.is_leader (replica id)) mains in
  Alcotest.(check (list int)) "main 0 leads throughout" [ 0 ] leaders;
  let proposed = Cp_sim.Metrics.get (Ring.metrics fab 0) "proposed" in
  Alcotest.(check bool)
    (Printf.sprintf "%d proposals for %d commands (at most 2,000)" proposed
       (clients * per_client))
    true (proposed <= 2_000);
  let dumps =
    List.map
      (fun id ->
        let r = replica id in
        {
          Cp_checker.Consistency.node = id;
          base = Replica.log_base r;
          entries = Replica.log_range r ~lo:(Replica.log_base r) ~hi:max_int;
        })
      mains
  in
  match Cp_checker.Consistency.agreement dumps with Ok () -> () | Error e -> Alcotest.fail e

(* --- group commit and fencing -------------------------------------------- *)

module Storage = Cp_storage.Storage
module Faulty = Cp_storage.Faulty
module Engine = Cp_sim.Engine
module Metrics = Cp_sim.Metrics

let quiet = { Engine.on_message = (fun ~src:_ _ -> ()); on_timer = (fun ~tid:_ ~tag:_ -> ()) }

(* Endpoint 0 pings endpoint 1, whose handler puts a record and then
   replies. Link (1, 0) exists from the start and follows link (0, 1) in a
   pass, so only the pass snapshot keeps the reply from being read before
   the flush. Returns how many messages reached 0, and 1's metrics. *)
let put_then_send store =
  let fab = Ring.create ~storage:(fun id -> if id = 1 then store else Cp_storage.Mem.store ()) () in
  Ring.add_node fab ~id:1 ~build:(fun ctx ->
      {
        quiet with
        Engine.on_message =
          (fun ~src _ ->
            Storage.put ctx.Engine.stable "k" "v";
            ctx.Engine.send src (hb 2));
      });
  let got = ref 0 in
  Ring.add_node fab ~id:0 ~build:(fun ctx ->
      ctx.Engine.send 1 (hb 1);
      { quiet with Engine.on_message = (fun ~src:_ _ -> incr got) });
  ignore (Ring.link fab ~src:1 ~dst:0);
  Ring.run fab;
  (!got, Ring.metrics fab 1)

let test_ring_fenced_send () =
  let got, m = put_then_send (Cp_storage.Mem.store ()) in
  Alcotest.(check int) "the reply arrives when the flush succeeds" 1 got;
  Alcotest.(check int) "no flush error" 0 (Metrics.get m "storage_flush_errors");
  (* Endpoint 1's first flush covers [build]; the second, at the end of the
     pass that ran its handler, crashes. *)
  let got, m =
    put_then_send (Faulty.store (Faulty.plan ~crash_before_flush:1 ()) (Cp_storage.Mem.store ()))
  in
  Alcotest.(check int) "a fenced endpoint's reply never arrives" 0 got;
  Alcotest.(check int) "flush error counted" 1 (Metrics.get m "storage_flush_errors");
  Alcotest.(check int) "its unread record discarded" 1 (Metrics.get m "fenced_drops")

(* A store that knows which keys it has made durable: [flush] moves the
   keys put since the previous flush into [durable]. [on_put] sees every
   key put. *)
module Durable_keys = struct
  type t = {
    inner : Storage.t;
    unflushed : string list ref;
    durable : (string, unit) Hashtbl.t;
    on_put : string -> unit;
  }

  let backend t = Storage.backend t.inner

  let put t k v =
    t.unflushed := k :: !(t.unflushed);
    t.on_put k;
    Storage.put t.inner k v

  let get t k = Storage.get t.inner k

  let remove t k = Storage.remove t.inner k

  let mem t k = Storage.mem t.inner k

  let keys t = Storage.keys t.inner

  let sub t ~name = { t with inner = Storage.sub t.inner ~name }

  let flush t =
    Storage.flush t.inner;
    List.iter (fun k -> Hashtbl.replace t.durable k ()) !(t.unflushed);
    t.unflushed := []

  let wipe t = Storage.wipe t.inner

  let stats t = Storage.stats t.inner

  let close t = Storage.close t.inner
end

(* Main 1 crashes at the first flush after its fifth vote, so the burst
   that flush covers put a vote: the P2bs for the votes that burst put must
   never reach the leader (counted where it receives them), and the leader
   still commits every op through the auxiliary. *)
let test_ring_follower_crash_at_flush () =
  let plan = Faulty.plan () and votes = ref 0 in
  let on_put k =
    if String.starts_with ~prefix:"vote." k then begin
      incr votes;
      if !votes = 5 then plan.Faulty.crash_before_flush <- 0
    end
  in
  let dk =
    {
      Durable_keys.inner = Cp_storage.Mem.store ();
      unflushed = ref [];
      durable = Hashtbl.create 64;
      on_put;
    }
  in
  let storage id =
    if id = 1 then Faulty.store plan (Storage.Packed ((module Durable_keys), dk))
    else Cp_storage.Mem.store ()
  in
  let acked = ref [] in
  let tap id ~src (msg : Types.msg) =
    match msg with
    | Types.P2b { instance; _ } when id = 0 && src = 1 -> acked := instance :: !acked
    | _ -> ()
  in
  let fab, client, _ = run_ring_cluster ~storage ~tap () in
  let m1 = Ring.metrics fab 1 in
  Alcotest.(check int) "main 1 fenced once" 1 (Metrics.get m1 "storage_flush_errors");
  let lost =
    List.filter_map
      (fun k -> Scanf.sscanf_opt k "vote.%d%!" Fun.id)
      !(dk.Durable_keys.unflushed)
  in
  Alcotest.(check bool) "the crashed burst had put votes" true (lost <> []);
  Alcotest.(check bool) "main 1 acked votes before the crash" true (!acked <> []);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "P2b for instance %d only after its vote was durable" i)
        true
        (Hashtbl.mem dk.Durable_keys.durable (Printf.sprintf "vote.%d" i)))
    !acked;
  Alcotest.(check bool) "client finished" true (Client.is_finished client);
  Alcotest.(check int) "all ops done" 25 (Client.done_count client);
  Alcotest.(check bool) "the auxiliary took part" true
    (Metrics.get (Ring.metrics fab 2) "msgs_recv" > 0)

let suite =
  [
    Alcotest.test_case "bytering: write/read roundtrip" `Quick test_bytering_roundtrip;
    Alcotest.test_case "bytering: skip-marker wrap preserves records" `Quick test_bytering_wrap;
    Alcotest.test_case "bytering: refusal when full or oversized" `Quick
      test_bytering_full_and_refusal;
    Alcotest.test_case "bytering: encoder exception commits nothing" `Quick
      test_bytering_encoder_exn_commits_nothing;
    Alcotest.test_case "bytering: growth mid-pass keeps order and limit" `Quick
      test_bytering_growth_mid_pass;
    Alcotest.test_case "bytering: growth across a wrapped tail" `Quick
      test_bytering_growth_across_wrap;
    Alcotest.test_case "bytering: max record fits from the smallest size" `Quick
      test_bytering_max_record_from_smallest;
    Alcotest.test_case "outbox: single frame as a burst" `Quick test_outbox_single_frame;
    Alcotest.test_case "outbox: burst packs per destination" `Quick
      test_outbox_packs_per_destination;
    Alcotest.test_case "outbox: full buffer flushes and retries" `Quick
      test_outbox_overflow_flush_retry;
    Alcotest.test_case "outbox: oversized frame raises Overflow" `Quick
      test_outbox_giant_frame_overflows;
    Alcotest.test_case "conformance: sim matches committed golden" `Quick
      test_conformance_sim_golden;
    Alcotest.test_case "conformance: ring byte-identical to sim" `Quick test_conformance_ring;
    Alcotest.test_case "conformance: udp byte-identical to sim" `Slow test_conformance_udp;
    Alcotest.test_case "conformance: seeds vary the schedule" `Quick test_conformance_other_seed;
    Alcotest.test_case "ring fabric: replica cluster commits" `Slow test_ring_cluster_commits;
    Alcotest.test_case "ring fabric: counters match the committed dump" `Quick
      test_ring_counters_golden;
    Alcotest.test_case "ring fabric: corrupt record counted" `Slow test_ring_corrupt_record;
    Alcotest.test_case "ring fabric: instances per command under defaults" `Quick
      test_ring_instances_per_command;
    Alcotest.test_case "ring fabric: fenced endpoint's send never arrives" `Quick
      test_ring_fenced_send;
    Alcotest.test_case "ring fabric: follower crash at burst flush exposes no ack" `Slow
      test_ring_follower_crash_at_flush;
  ]
