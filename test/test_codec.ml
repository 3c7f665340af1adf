(* Wire-codec tests: exact roundtrips for every constructor, generated
   roundtrips of messages and of (gid, tid, msg) frames through single and
   multi-frame datagrams, totality of the frame decoder on malformed input,
   and agreement between the size model and the real encoding. *)

module Types = Cp_proto.Types
module Codec = Cp_proto.Codec
module Ballot = Cp_proto.Ballot
module Config = Cp_proto.Config

let msg_equal a b =
  (* Structural equality is fine: messages contain no functional values. *)
  a = b

let roundtrip msg =
  match Codec.decode (Codec.encode msg) with
  | Ok msg' -> msg_equal msg msg'
  | Error _ -> false

let sample_msgs =
  let b = Ballot.make ~round:3 ~leader:1 in
  let b' = Ballot.make ~round:4 ~leader:2 in
  let cmd = { Types.client = 1001; seq = 17; op = "PUT key value" } in
  let vote = { Types.vballot = b; ventry = Types.App cmd } in
  let cfg = Config.cheap ~f:2 in
  let snapshot =
    {
      Types.next_instance = 500;
      app_state = String.make 100 's';
      sessions = [ (1001, (12, [ (14, "OK"); (17, "NONE") ])); (1002, (3, [])) ];
      base_config = cfg;
      pending_configs = [ (532, Option.get (Config.remove_main cfg 1)) ];
    }
  in
  [
    Types.P1a { ballot = b; low = 42 };
    Types.P1b
      { ballot = b; from = 2; votes = [ (7, vote); (9, { vote with ventry = Types.Noop }) ];
        compacted_upto = 5 };
    Types.P1b { ballot = Ballot.bottom; from = 0; votes = []; compacted_upto = 0 };
    Types.P1Nack { ballot = b; promised = b' };
    Types.P2a { ballot = b; instance = 7; entry = Types.App cmd };
    Types.P2a
      { ballot = b;
        instance = 8;
        entry = Types.Batch [ cmd; { cmd with seq = 18; op = "" }; { cmd with client = 1002 } ]
      };
    Types.P2a { ballot = b; instance = 9; entry = Types.Batch [] };
    Types.P2a { ballot = b; instance = 0; entry = Types.Reconfig (Types.Remove_main 4) };
    Types.Commit { instance = 11; entry = Types.Batch [ cmd ] };
    Types.P2a { ballot = b; instance = 1; entry = Types.Reconfig (Types.Add_main 9) };
    Types.P2b { ballot = b; instance = 7; from = 3 };
    Types.P2Nack { ballot = b; instance = 7; promised = b' };
    Types.Commit { instance = 9; entry = Types.Noop };
    Types.CommitFloor { upto = 1234567 };
    Types.Heartbeat { ballot = b; commit_floor = 100; sent_at = 0.125 };
    Types.HeartbeatAck { ballot = b; from = 1; prefix = 99; echo = 0.125 };
    Types.CatchupReq { from = 2; from_instance = 55 };
    Types.CatchupResp { entries = [ (1, Types.Noop); (2, Types.App cmd) ]; snapshot = None };
    Types.CatchupResp { entries = []; snapshot = Some snapshot };
    Types.JoinReq { from = 6 };
    Types.ClientReq cmd;
    Types.ClientResp { client = 1001; seq = 17; result = "" };
    Types.Redirect { leader_hint = 0 };
    Types.ClientRead { client = 1001; seq = 18; op = "GET key" };
  ]

let test_roundtrip_all_constructors () =
  List.iter
    (fun msg ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Types.pp_msg msg)
        true (roundtrip msg))
    sample_msgs

let test_decode_rejects_junk () =
  List.iter
    (fun s ->
      match Codec.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "junk decoded: %S" s)
    [ ""; "\255"; "\042"; "\000"; "\001\001"; String.make 3 '\xff' ]

let test_decode_rejects_trailing () =
  let good = Codec.encode (Types.CommitFloor { upto = 1 }) in
  match Codec.decode (good ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let test_decode_rejects_truncation () =
  let good = Codec.encode (List.nth sample_msgs 1) in
  for cut = 1 to String.length good - 1 do
    match Codec.decode (String.sub good 0 cut) with
    | Error _ -> ()
    | Ok m ->
      (* A prefix that happens to decode must at least not equal the original. *)
      Alcotest.(check bool) "prefix differs" false (m = List.nth sample_msgs 1)
  done

(* --- frames ---------------------------------------------------------- *)

(* The frame grammar spelled out independently of the encoder:
   u16-le length | varint gid | varint tid | msg. *)
let frame_bytes ~gid ~tid msg =
  let b = Buffer.create 64 in
  Codec.write_varint b gid;
  Codec.write_varint b tid;
  Buffer.add_string b (Codec.encode msg);
  let n = Buffer.length b in
  Printf.sprintf "%c%c%s" (Char.chr (n land 0xff)) (Char.chr (n lsr 8)) (Buffer.contents b)

let encode_frame ~gid ~tid msg =
  let buf = Bytes.create 70_000 in
  Bytes.sub_string buf 0 (Codec.encode_into buf ~pos:0 ~gid ~tid msg)

let decode_one s =
  match Codec.decode_frames s with
  | Ok [ f ] -> Ok f
  | Ok l -> Error (Printf.sprintf "%d frames" (List.length l))
  | Error e -> Error e

let check_frame ~gid ~tid msg (f : Codec.framed) =
  Alcotest.(check int) "gid" gid f.f_gid;
  Alcotest.(check int) "tid" tid f.f_tid;
  Alcotest.(check bool) (Format.asprintf "%a" Types.pp_msg msg) true (msg_equal msg f.f_msg)

let test_scratch_encode_matches () =
  (* One reused buffer across the whole corpus (and again in reverse, so
     stale longer contents are left behind) yields exactly the bytes a
     fresh buffer does. *)
  let scratch = Bytes.create 4096 in
  let check msg =
    let stop = Codec.encode_into scratch ~pos:0 ~gid:0 ~tid:0 msg in
    Alcotest.(check string)
      (Format.asprintf "%a" Types.pp_msg msg)
      (encode_frame ~gid:0 ~tid:0 msg)
      (Bytes.sub_string scratch 0 stop)
  in
  List.iter check sample_msgs;
  List.iter check (List.rev sample_msgs)

let tid_edges = [ 0; 1; 0x100001c; ((7 + 1) lsl 24) lor 12345; max_int lsr 8; max_int; min_int; -1 ]

let test_traced_roundtrip () =
  List.iter
    (fun msg ->
      List.iter
        (fun tid ->
          match decode_one (encode_frame ~gid:0 ~tid msg) with
          | Ok f -> check_frame ~gid:0 ~tid msg f
          | Error e -> Alcotest.failf "frame decode failed (tid=%d): %s" tid e)
        tid_edges)
    sample_msgs

let test_traced_scratch_matches () =
  let scratch = Bytes.create 4096 in
  List.iter
    (fun msg ->
      let stop = Codec.encode_into scratch ~pos:0 ~gid:3 ~tid:77 msg in
      Alcotest.(check string)
        (Format.asprintf "%a" Types.pp_msg msg)
        (encode_frame ~gid:3 ~tid:77 msg)
        (Bytes.sub_string scratch 0 stop))
    sample_msgs

let varint_roundtrips n =
  let buf = Buffer.create 10 in
  Codec.write_varint buf n;
  Buffer.length buf <= 9
  &&
  match Codec.read_varint (Buffer.contents buf) ~pos:0 with
  | Ok (v, pos) -> v = n && pos = Buffer.length buf
  | Error _ -> false

let test_varint_edges () =
  List.iter
    (fun n -> Alcotest.(check bool) (string_of_int n) true (varint_roundtrips n))
    [ 0; 1; -1; 63; 64; -64; 127; 128; 300; -300; 1 lsl 20; -(1 lsl 20); 1 lsl 40 ]

let test_varint_boundaries () =
  (* Every byte-length edge of the zig-zag encoding, in both signs, plus the
     extremes: the top bit of the 63-bit word must survive (a mask of
     [land max_int] once dropped bit 62, truncating anything past 2^61). *)
  let edges =
    [ 0; 1; -1; max_int; max_int - 1; min_int; min_int + 1 ]
    @ List.concat
        (List.init 62 (fun s ->
             [ 1 lsl s; (1 lsl s) - 1; -(1 lsl s); -(1 lsl s) - 1; -(1 lsl s) + 1 ]))
  in
  List.iter
    (fun n -> Alcotest.(check bool) (string_of_int n) true (varint_roundtrips n))
    edges

let prop_varint_roundtrip =
  (* Full-range 63-bit integers, weighted toward large magnitudes: bits
     drawn uniformly, then shifted right by a random amount so every byte
     length is exercised. *)
  let gen =
    QCheck.Gen.(
      map2
        (fun bits shift -> bits asr shift)
        (map2 (fun a b -> (a lsl 32) lxor b) (int_bound ((1 lsl 30) - 1)) int)
        (int_bound 62))
  in
  QCheck.Test.make ~name:"varint roundtrips any 63-bit int" ~count:2000
    (QCheck.make gen) varint_roundtrips

let test_grouped_roundtrip () =
  let msg = Types.Commit { instance = 7; entry = Types.Noop } in
  List.iter
    (fun gid ->
      List.iter
        (fun tid ->
          match decode_one (encode_frame ~gid ~tid msg) with
          | Ok f -> check_frame ~gid ~tid msg f
          | Error e -> Alcotest.failf "frame decode failed (gid=%d): %s" gid e)
        [ 0; 9; 1 lsl 24 ])
    [ 0; 1; 7; 4095; 1 lsl 20; max_int ]

let test_grouped_rejects_bad () =
  let body = Codec.encode (Types.CommitFloor { upto = 1 }) in
  let framed s = Printf.sprintf "%c%c%s" (Char.chr (String.length s)) '\000' s in
  let reject name s =
    match Codec.decode_frames (framed s) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  reject "truncated group id" "\x80";
  reject "negative group id (zig-zag odd)" ("\x01\x00" ^ body);
  reject "group id but no trace id" "\x02";
  reject "no message" "\x02\x00";
  Alcotest.check_raises "encoder refuses a negative gid"
    (Invalid_argument "Codec.encode_into: negative group id") (fun () ->
      ignore (encode_frame ~gid:(-1) ~tid:0 (Types.CommitFloor { upto = 1 })))

let test_size_model_sane () =
  (* The analytic size model budgets a transport header (16 B) plus 8 B per
     integer field, while the codec packs varints with no header — so the
     model must upper-bound the real payload, stay within the header+field
     budget of it, and grow with it (within 3x) once payloads dominate. *)
  List.iter
    (fun msg ->
      let real = String.length (Codec.encode msg) in
      let model = Types.size_of msg in
      Alcotest.(check bool)
        (Format.asprintf "%a: real=%d model=%d" Types.pp_msg msg real model)
        true
        (model >= real / 3 && model <= 16 + (12 * real)))
    sample_msgs

(* --- zero-copy encoding ------------------------------------------------ *)

(* [encode_into] writes exactly the grammar's bytes at any offset and
   touches nothing outside them. *)
let test_encode_into_matches () =
  List.iter
    (fun msg ->
      List.iter
        (fun pos ->
          let expected = frame_bytes ~gid:12 ~tid:7777 msg in
          let buf = Bytes.make (pos + String.length expected + 5) '\xee' in
          let stop = Codec.encode_into buf ~pos ~gid:12 ~tid:7777 msg in
          Alcotest.(check int) "end position" (pos + String.length expected) stop;
          Alcotest.(check string) "bytes" expected (Bytes.sub_string buf pos (stop - pos));
          Alcotest.(check bool) "no out-of-range writes" true
            (Bytes.sub_string buf 0 pos = String.make pos '\xee'
            && Bytes.sub_string buf stop (Bytes.length buf - stop)
               = String.make (Bytes.length buf - stop) '\xee'))
        [ 0; 1; 7 ])
    sample_msgs

let test_encode_into_exact_fit_and_overflow () =
  List.iter
    (fun msg ->
      let expected = frame_bytes ~gid:0 ~tid:42 msg in
      let n = String.length expected in
      let pos = 3 in
      (* Exact fit succeeds... *)
      let buf = Bytes.create (pos + n) in
      Alcotest.(check int) "exact fit" (pos + n) (Codec.encode_into buf ~pos ~gid:0 ~tid:42 msg);
      Alcotest.(check string) "exact-fit bytes" expected (Bytes.sub_string buf pos n);
      (* ...one byte less raises, for every shortfall down to an empty
         window (the write that would land out of bounds must never
         happen). *)
      List.iter
        (fun short ->
          let small = Bytes.create (pos + n - short) in
          match Codec.encode_into small ~pos ~gid:0 ~tid:42 msg with
          | (_ : int) -> Alcotest.failf "short by %d: expected Overflow" short
          | exception Codec.Overflow -> ())
        [ 1; (n / 2) + 1; n ])
    sample_msgs

let test_decode_frames_packed () =
  let msgs =
    [ (0, 5, List.nth sample_msgs 0); (3, 0, List.nth sample_msgs 4); (0, 0, List.nth sample_msgs 8) ]
  in
  let dgram = String.concat "" (List.map (fun (gid, tid, msg) -> encode_frame ~gid ~tid msg) msgs) in
  (match Codec.decode_frames dgram with
  | Error e -> Alcotest.failf "datagram decode: %s" e
  | Ok frames ->
    Alcotest.(check int) "frame count" (List.length msgs) (List.length frames);
    List.iter2
      (fun (gid, tid, msg) (f : Codec.framed) ->
        check_frame ~gid ~tid msg f;
        Alcotest.(check int) "frame bytes" (String.length (encode_frame ~gid ~tid msg)) f.f_bytes)
      msgs frames;
    Alcotest.(check int) "frames cover the datagram" (String.length dgram)
      (List.fold_left (fun acc (f : Codec.framed) -> acc + f.f_bytes) 0 frames));
  (* A window inside a larger buffer decodes in place. *)
  let lone = List.nth sample_msgs 2 in
  let f = encode_frame ~gid:2 ~tid:9 lone in
  match Codec.decode_frames ~pos:4 ~len:(String.length f) ("junk" ^ f ^ "junk") with
  | Ok [ fr ] -> check_frame ~gid:2 ~tid:9 lone fr
  | Ok l -> Alcotest.failf "window: got %d frames" (List.length l)
  | Error e -> Alcotest.failf "window: %s" e

let test_decode_frames_rejects_malformed () =
  let reject name s =
    match Codec.decode_frames s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  let f = encode_frame ~gid:1 ~tid:5 (List.nth sample_msgs 0) in
  let body = String.sub f 2 (String.length f - 2) in
  let hdr n = Printf.sprintf "%c%c" (Char.chr (n land 0xff)) (Char.chr (n lsr 8)) in
  reject "empty datagram" "";
  reject "zero-length frame" "\x00\x00";
  reject "truncated length" "\x05";
  reject "truncated length after a frame" (f ^ "\x05");
  reject "truncated frame" (hdr (String.length body + 1) ^ body);
  reject "truncated frame body" (String.sub f 0 (String.length f - 1));
  reject "negative gid" (hdr (String.length body) ^ "\x01" ^ String.sub body 1 (String.length body - 1));
  reject "trailing bytes inside a frame" (hdr (String.length body + 1) ^ body ^ "\x01");
  reject "frame without a message" (hdr 2 ^ "\x02\x00")

let arb_msg =
  let open QCheck.Gen in
  let ballot = map2 (fun r l -> Ballot.make ~round:r ~leader:l) (int_range 0 50) (int_range 0 9) in
  let op = map (fun n -> "op" ^ string_of_int n) (int_range 0 1000) in
  let cmd = map2 (fun c (s, op) -> { Types.client = c; seq = s; op })
      (int_range 1000 1020) (pair (int_range 1 100) op) in
  let entry =
    frequency
      [ (1, return Types.Noop);
        (3, map (fun c -> Types.App c) cmd);
        (2, map (fun cs -> Types.Batch cs) (list_size (int_range 0 6) cmd));
        (1, map (fun m -> Types.Reconfig (Types.Remove_main m)) (int_range 0 9));
        (1, map (fun m -> Types.Reconfig (Types.Add_main m)) (int_range 0 9)) ]
  in
  let vote = map2 (fun b e -> { Types.vballot = b; ventry = e }) ballot entry in
  let ivotes = list_size (int_range 0 8) (pair (int_range 0 100) vote) in
  QCheck.make
    (frequency
       [ (1, map2 (fun b low -> Types.P1a { ballot = b; low }) ballot (int_range 0 100));
         (2, map3 (fun b f (vs, c) -> Types.P1b { ballot = b; from = f; votes = vs; compacted_upto = c })
              ballot (int_range 0 9) (pair ivotes (int_range 0 50)));
         (2, map3 (fun b i e -> Types.P2a { ballot = b; instance = i; entry = e })
              ballot (int_range 0 200) entry);
         (1, map3 (fun b i f -> Types.P2b { ballot = b; instance = i; from = f })
              ballot (int_range 0 200) (int_range 0 9));
         (1, map2 (fun i e -> Types.Commit { instance = i; entry = e }) (int_range 0 200) entry);
         (1, map (fun c -> Types.ClientReq c) cmd) ])

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"codec roundtrips generated messages" ~count:500 arb_msg
    roundtrip

let prop_encode_into_matches_encode =
  QCheck.Test.make ~name:"encode_into matches encode at any offset" ~count:300
    (QCheck.pair arb_msg (QCheck.int_range 0 32))
    (fun (msg, pos) ->
      let expected = frame_bytes ~gid:0 ~tid:0 msg in
      let buf = Bytes.create (pos + String.length expected) in
      Codec.encode_into buf ~pos ~gid:0 ~tid:0 msg = pos + String.length expected
      && Bytes.sub_string buf pos (String.length expected) = expected)

(* Group and trace ids weighted toward the varint edges: 0, and every
   byte-length boundary up to the full 63-bit range. *)
let arb_id ~signed =
  let open QCheck.Gen in
  let edge =
    map2
      (fun s d -> let v = (1 lsl s) + d in if signed then v else max 0 v)
      (int_range 0 62) (int_range (-1) 1)
  in
  let g = frequency [ (1, return 0); (1, return max_int); (3, edge); (3, int_bound 5000) ] in
  if signed then frequency [ (3, g); (1, map (fun v -> -v) g); (1, return min_int) ] else g

let arb_frame =
  QCheck.make
    QCheck.Gen.(triple (arb_id ~signed:false) (arb_id ~signed:true) (QCheck.gen arb_msg))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frames roundtrip any gid, tid, msg" ~count:500 arb_frame
    (fun (gid, tid, msg) ->
      match decode_one (encode_frame ~gid ~tid msg) with
      | Ok f -> f.f_gid = gid && f.f_tid = tid && msg_equal f.f_msg msg
      | Error _ -> false)

(* A burst through a small outbox: every datagram it flushes decodes, and
   their frames, concatenated, are the burst in order. *)
let prop_outbox_datagrams_roundtrip =
  QCheck.Test.make ~name:"outbox datagrams roundtrip a burst" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) arb_frame)
    (fun burst ->
      let sent = ref [] in
      let ob =
        Cp_transport.Outbox.create ~capacity:512
          ~send:(fun ~dst:_ buf ~off ~len -> sent := Bytes.sub_string buf off len :: !sent)
          ()
      in
      List.iter (fun (gid, tid, msg) -> ignore (Cp_transport.Outbox.append ob ~dst:1 ~gid ~tid msg)) burst;
      Cp_transport.Outbox.flush ob;
      let frames =
        List.concat_map
          (fun d -> match Codec.decode_frames d with Ok fs -> fs | Error e -> failwith e)
          (List.rev !sent)
      in
      List.length frames = List.length burst
      && List.for_all2
           (fun (gid, tid, msg) (f : Codec.framed) ->
             f.f_gid = gid && f.f_tid = tid && msg_equal f.f_msg msg)
           burst frames)

let prop_decode_frames_total =
  QCheck.Test.make ~name:"decode_frames never raises" ~count:2000
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun s ->
      match Codec.decode_frames s with Ok _ | Error _ -> true)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "roundtrip all constructors" `Quick test_roundtrip_all_constructors;
    Alcotest.test_case "decode rejects junk" `Quick test_decode_rejects_junk;
    Alcotest.test_case "decode rejects trailing bytes" `Quick test_decode_rejects_trailing;
    Alcotest.test_case "decode rejects truncation" `Quick test_decode_rejects_truncation;
    Alcotest.test_case "scratch encode matches allocating encode" `Quick
      test_scratch_encode_matches;
    Alcotest.test_case "traced roundtrip" `Quick test_traced_roundtrip;
    Alcotest.test_case "traced scratch encode matches" `Quick test_traced_scratch_matches;
    Alcotest.test_case "varint edges" `Quick test_varint_edges;
    Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
    Alcotest.test_case "grouped roundtrip" `Quick test_grouped_roundtrip;
    Alcotest.test_case "grouped rejects bad frames" `Quick test_grouped_rejects_bad;
    Alcotest.test_case "size model sane" `Quick test_size_model_sane;
    Alcotest.test_case "encode_into matches buffer encoding" `Quick test_encode_into_matches;
    Alcotest.test_case "encode_into exact fit and overflow" `Quick
      test_encode_into_exact_fit_and_overflow;
    Alcotest.test_case "decode_frames unpacks packed datagrams" `Quick test_decode_frames_packed;
    Alcotest.test_case "decode_frames rejects malformed packing" `Quick
      test_decode_frames_rejects_malformed;
  ]
  @ qsuite
      [
        prop_roundtrip_generated;
        prop_varint_roundtrip;
        prop_encode_into_matches_encode;
        prop_frame_roundtrip;
        prop_outbox_datagrams_roundtrip;
        prop_decode_frames_total;
      ]
