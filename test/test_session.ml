(* Tests of the windowed at-most-once session state, including the
   out-of-order pipelined-client case that a single "last seq" cell would
   get wrong. *)

module Session = Cp_engine.Session

let window = 8

let test_basic_record_and_status () =
  let s = Session.create () in
  Alcotest.(check bool) "new" true (Session.status s 1 = `New);
  Session.record s ~window 1 "r1";
  Alcotest.(check bool) "cached" true (Session.status s 1 = `Cached "r1");
  Alcotest.(check bool) "next is new" true (Session.status s 2 = `New);
  Alcotest.(check int) "max_seq" 1 (Session.max_seq s)

let test_out_of_order_not_swallowed () =
  (* The regression that motivated this module: executing seq 5 must not
     make an unexecuted seq 3 look like a duplicate. *)
  let s = Session.create () in
  Session.record s ~window 5 "r5";
  Alcotest.(check bool) "3 still new" true (Session.status s 3 = `New);
  Session.record s ~window 3 "r3";
  Alcotest.(check bool) "3 cached" true (Session.status s 3 = `Cached "r3");
  Alcotest.(check bool) "5 cached" true (Session.status s 5 = `Cached "r5");
  Alcotest.(check int) "max" 5 (Session.max_seq s)

let test_record_idempotent () =
  let s = Session.create () in
  Session.record s ~window 1 "first";
  Session.record s ~window 1 "second";
  Alcotest.(check bool) "first write wins" true (Session.status s 1 = `Cached "first")

let test_eviction_advances_floor () =
  let s = Session.create () in
  for i = 1 to 20 do
    Session.record s ~window i ("r" ^ string_of_int i)
  done;
  Alcotest.(check bool) "old evicted" true (Session.status s 1 = `Evicted);
  Alcotest.(check bool) "recent cached" true (Session.status s 20 = `Cached "r20");
  Alcotest.(check bool) "cache bounded" true (Session.cached_count s <= window);
  Alcotest.(check int) "max" 20 (Session.max_seq s)

let test_floor_respects_gaps () =
  (* A gap must pin the floor: seq 1 unexecuted keeps everything above it
     cached even past the window, so 1 can still execute exactly once. *)
  let s = Session.create () in
  for i = 2 to 20 do
    Session.record s ~window i ("r" ^ string_of_int i)
  done;
  Alcotest.(check bool) "gap still new" true (Session.status s 1 = `New);
  Alcotest.(check bool) "everything above cached" true (Session.status s 2 = `Cached "r2");
  (* Filling the gap lets eviction proceed. *)
  Session.record s ~window 1 "r1";
  Alcotest.(check bool) "now evicts" true (Session.cached_count s <= window);
  Alcotest.(check bool) "low seqs evicted" true (Session.status s 1 = `Evicted)

let test_export_import_roundtrip () =
  let s = Session.create () in
  List.iter (fun i -> Session.record s ~window i ("r" ^ string_of_int i)) [ 3; 1; 2; 7 ];
  let s' = Session.import (Session.export s) in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "status %d preserved" i)
        true
        (Session.status s i = Session.status s' i))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check int) "max preserved" (Session.max_seq s) (Session.max_seq s')

(* Property: under any execution order of a set of seqs, every seq executes
   exactly once (status transitions New -> Cached/Evicted, never back). *)
let prop_exactly_once =
  QCheck.Test.make ~name:"session: exactly-once under any order" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 20))
    (fun seqs ->
      let s = Session.create () in
      let executed = Hashtbl.create 16 in
      List.for_all
        (fun seq ->
          match Session.status s seq with
          | `New ->
            if Hashtbl.mem executed seq then false (* double execution! *)
            else begin
              Hashtbl.add executed seq ();
              Session.record s ~window:4 seq ("r" ^ string_of_int seq);
              true
            end
          | `Cached _ | `Evicted -> Hashtbl.mem executed seq)
        seqs)

(* End-to-end: an open-loop (pipelined) client against a real cluster must
   complete every operation exactly once, even at depth >> 1. *)
let test_pipelined_client_end_to_end () =
  let cluster =
    Cp_runtime.Cluster.create ~seed:81 ~policy:Cheap_paxos.Cheap.policy
      ~initial:(Cheap_paxos.Cheap.initial_config ~f:1)
      ~app:(module Cp_smr.Counter) ()
  in
  let total = 400 in
  let _, client =
    Cp_runtime.Cluster.add_open_client cluster ~rate:5000. ~max_outstanding:64
      ~ops:(fun s -> if s <= total then Some (Cp_smr.Counter.inc 1) else None)
      ()
  in
  let finished =
    Cp_runtime.Cluster.run_until cluster ~deadline:10. (fun () ->
        Cp_smr.Open_client.is_finished client)
  in
  Alcotest.(check bool) "finished" true finished;
  Alcotest.(check int) "all completed" total (Cp_smr.Open_client.done_count client);
  (* Exactly-once: the counter equals the op count despite pipelining. *)
  let _, probe =
    Cp_runtime.Cluster.add_client cluster
      ~ops:(fun s -> if s = 1 then Some Cp_smr.Counter.get else None)
      ()
  in
  let ok =
    Cp_runtime.Cluster.run_until cluster ~deadline:15. (fun () ->
        Cp_smr.Client.is_finished probe)
  in
  Alcotest.(check bool) "probe" true ok;
  (match Cp_smr.Client.history probe with
  | [ (_, _, _, v) ] -> Alcotest.(check string) "exactly once" (string_of_int total) v
  | _ -> Alcotest.fail "probe history");
  match Cp_runtime.Inspect.check_safety cluster with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* The kept count never drifts from the cache it counts: after any order of
   records (duplicates, gaps, replays below the floor) under any window,
   and through [import] and [copy]. The copy must also stay independent. *)
let prop_count_matches_cache =
  QCheck.Test.make ~name:"cached_count = cached replies, also after import and copy"
    ~count:300
    QCheck.(pair (int_range 1 12) (list (int_range 1 40)))
    (fun (window, seqs) ->
      let s = Session.create () in
      let counted s = Session.cached_count s = List.length (Session.export s).Session.replies in
      let ok = ref true in
      List.iter
        (fun seq ->
          Session.record s ~window seq ("r" ^ string_of_int seq);
          ok := !ok && counted s)
        seqs;
      let imported = Session.import (Session.export s) in
      let copy = Session.copy s in
      Session.record copy ~window 41 "r41";
      !ok && counted imported && counted copy && counted s
      && Session.cached_count imported = Session.cached_count s)

(* The bytes a session keeps for snapshots always encode its [export]: a
   one-session snapshot written from [Session.write_image] equals the
   [Codec] encoding of the same snapshot built from [export]. Records come
   in and out of seq order, repeat, fall at or below the floor, under any
   window; replies vary in length so their length prefixes do too. The
   image is checked at random points (which also rebuilds stale bytes), and
   it must hold after [import] and [copy] and after further records on
   each, with the original untouched by the copy's records. *)
let prop_image_matches_export =
  let base_config = Cp_proto.Config.cheap ~f:1 in
  let image_ok s =
    let img = Session.export s in
    let reference =
      Cp_proto.Codec.encode_stable_snapshot
        {
          Cp_proto.Types.next_instance = 3;
          app_state = "app";
          sessions = [ (7, (img.Session.floor, img.Session.replies)) ];
          base_config;
          pending_configs = [];
        }
    in
    let kept =
      Cp_proto.Codec.encode_stable_snapshot_with ~next_instance:3 ~app_state:"app"
        ~sessions:[ (7, s) ] ~session_size:Session.image_size
        ~write_session:Session.write_image ~base_config ~pending_configs:[]
    in
    String.equal reference kept
  in
  let reply seq = String.make (seq * 37 mod 300) (Char.chr (97 + (seq mod 26))) in
  (* Mostly the next seq, as a client that is not pipelining sends them,
     so the window evicts and the kept bytes move to the front. *)
  let ops =
    QCheck.(
      list
        (pair
           (oneofl [ `Next; `Next; `Next; `Next; `Small; `Large ])
           (pair (int_range 1 300) (oneofl [ true; false; false; false ]))))
  in
  let run s ~window ops =
    List.for_all
      (fun (kind, (n, check)) ->
        let seq =
          match kind with
          | `Next -> Session.max_seq s + 1
          | `Small -> 1 + (n mod 40)
          | `Large -> n
        in
        Session.record s ~window seq (reply seq);
        (not check) || image_ok s)
      ops
  in
  QCheck.Test.make ~name:"write_image = Codec encoding of export, also after import and copy"
    ~count:300
    QCheck.(quad (int_range 1 12) ops ops ops)
    (fun (window, first, on_import, on_copy) ->
      let s = Session.create () in
      let ok = run s ~window first && image_ok s in
      let before = Session.export s in
      let imported = Session.import before in
      let copy = Session.copy s in
      let ok = ok && image_ok imported && image_ok copy in
      let ok = ok && run imported ~window on_import && image_ok imported in
      let ok = ok && run copy ~window on_copy && image_ok copy in
      ok && Session.export s = before && image_ok s
      && (run s ~window on_copy && image_ok s))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "basic record/status" `Quick test_basic_record_and_status;
    Alcotest.test_case "out-of-order not swallowed" `Quick test_out_of_order_not_swallowed;
    Alcotest.test_case "record idempotent" `Quick test_record_idempotent;
    Alcotest.test_case "eviction advances floor" `Quick test_eviction_advances_floor;
    Alcotest.test_case "floor respects gaps" `Quick test_floor_respects_gaps;
    Alcotest.test_case "export/import roundtrip" `Quick test_export_import_roundtrip;
    Alcotest.test_case "pipelined client end-to-end" `Quick test_pipelined_client_end_to_end;
  ]
  @ qsuite [ prop_exactly_once; prop_count_matches_cache; prop_image_matches_export ]
