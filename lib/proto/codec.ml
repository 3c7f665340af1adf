(* Binary format:
     msg       := tag:byte payload
     int       := zig-zag varint (7 bits per byte, MSB = continuation)
     string    := varint length, bytes
     ballot    := int int
     entry     := tag:byte ...
     list      := varint count, elements
   Decoding uses a cursor and returns Result; it never raises.

   On the wire every message travels as one frame, and every datagram (or
   ring record) is one or more length-prefixed frames, a lone frame
   included:
     frame     := varint gid, varint tid, msg
     datagram  := (u16-le length, frame)+ *)

(* --- writing ---------------------------------------------------------- *)

(* One writer, two output sinks. The hot send path serializes straight into
   a caller-provided [Bytes.t] (preallocated per-peer wire buffers, ring
   transports) with no intermediate string; the [Buffer] sink remains for
   cold paths and for callers that want a growable target. Sharing the
   message grammar through this functor is what guarantees the two paths
   stay byte-identical. *)
module type SINK = sig
  type t

  val char : t -> char -> unit

  val string : t -> string -> unit
end

module Writer (Out : SINK) = struct
  let varint out n =
    (* Zig-zag so that small negative ints (round = -1 in Ballot.bottom) stay
       short. The zig-zagged value is treated as an unsigned 63-bit quantity:
       [lsr] in the loop makes a negative [z] (bit 62 set, i.e. the zig-zag of
       an int near min_int/max_int) shift down as unsigned, so the full native
       range encodes in at most 9 bytes. *)
    let z = (n lsl 1) lxor (n asr 62) in
    let rec go z =
      if z land lnot 0x7f = 0 then Out.char out (Char.chr (z land 0x7f))
      else begin
        Out.char out (Char.chr (0x80 lor (z land 0x7f)));
        go (z lsr 7)
      end
    in
    go z

  let string_ out s =
    varint out (String.length s);
    Out.string out s

  (* Floats (lease timestamps) travel as raw IEEE-754 bits, little-endian. *)
  let float_ out f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      Out.char out
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL)))
    done

  let ballot out (b : Ballot.t) =
    varint out b.Ballot.round;
    varint out b.Ballot.leader

  let reconfig out = function
    | Types.Remove_main m ->
      Out.char out '\000';
      varint out m
    | Types.Add_main m ->
      Out.char out '\001';
      varint out m

  let command out ({ client; seq; op } : Types.command) =
    varint out client;
    varint out seq;
    string_ out op

  let entry out = function
    | Types.Noop -> Out.char out '\000'
    | Types.App cmd ->
      Out.char out '\001';
      command out cmd
    | Types.Reconfig r ->
      Out.char out '\002';
      reconfig out r
    | Types.Batch cmds ->
      Out.char out '\003';
      varint out (List.length cmds);
      List.iter (command out) cmds

  let list_ out write xs =
    varint out (List.length xs);
    List.iter (write out) xs

  let vote out (v : Types.vote) =
    ballot out v.Types.vballot;
    entry out v.Types.ventry

  let ivote out (i, v) =
    varint out i;
    vote out v

  let ientry out (i, e) =
    varint out i;
    entry out e

  let config out (c : Config.t) =
    varint out c.Config.epoch;
    list_ out varint c.Config.mains;
    list_ out varint c.Config.aux_pool

  let iconfig out (i, c) =
    varint out i;
    config out c

  let reply out (seq, r) =
    varint out seq;
    string_ out r

  let session out (client, (floor, replies)) =
    varint out client;
    varint out floor;
    list_ out reply replies

  let snapshot out (s : Types.snapshot) =
    varint out s.Types.next_instance;
    string_ out s.Types.app_state;
    list_ out session s.Types.sessions;
    config out s.Types.base_config;
    list_ out iconfig s.Types.pending_configs

  let msg out (m : Types.msg) =
    match m with
    | Types.P1a { ballot = b; low } ->
      Out.char out '\000';
      ballot out b;
      varint out low
    | Types.P1b { ballot = b; from; votes; compacted_upto } ->
      Out.char out '\001';
      ballot out b;
      varint out from;
      list_ out ivote votes;
      varint out compacted_upto
    | Types.P1Nack { ballot = b; promised } ->
      Out.char out '\002';
      ballot out b;
      ballot out promised
    | Types.P2a { ballot = b; instance; entry = e } ->
      Out.char out '\003';
      ballot out b;
      varint out instance;
      entry out e
    | Types.P2b { ballot = b; instance; from } ->
      Out.char out '\004';
      ballot out b;
      varint out instance;
      varint out from
    | Types.P2Nack { ballot = b; instance; promised } ->
      Out.char out '\005';
      ballot out b;
      varint out instance;
      ballot out promised
    | Types.Commit { instance; entry = e } ->
      Out.char out '\006';
      varint out instance;
      entry out e
    | Types.CommitFloor { upto } ->
      Out.char out '\007';
      varint out upto
    | Types.Heartbeat { ballot = b; commit_floor; sent_at } ->
      Out.char out '\008';
      ballot out b;
      varint out commit_floor;
      float_ out sent_at
    | Types.HeartbeatAck { ballot = b; from; prefix; echo } ->
      Out.char out '\009';
      ballot out b;
      varint out from;
      varint out prefix;
      float_ out echo
    | Types.CatchupReq { from; from_instance } ->
      Out.char out '\010';
      varint out from;
      varint out from_instance
    | Types.CatchupResp { entries; snapshot = snap } ->
      Out.char out '\011';
      list_ out ientry entries;
      (match snap with
      | None -> Out.char out '\000'
      | Some s ->
        Out.char out '\001';
        snapshot out s)
    | Types.JoinReq { from } ->
      Out.char out '\012';
      varint out from
    | Types.ClientReq { client; seq; op } ->
      Out.char out '\013';
      varint out client;
      varint out seq;
      string_ out op
    | Types.ClientResp { client; seq; result } ->
      Out.char out '\014';
      varint out client;
      varint out seq;
      string_ out result
    | Types.Redirect { leader_hint } ->
      Out.char out '\015';
      varint out leader_hint
    | Types.ClientRead { client; seq; op } ->
      Out.char out '\016';
      varint out client;
      varint out seq;
      string_ out op
end

module Buffer_sink = struct
  type t = Buffer.t

  let char = Buffer.add_char

  let string = Buffer.add_string
end

module BW = Writer (Buffer_sink)

let write_varint = BW.varint

let write_string = BW.string_

let encode msg =
  let buf = Buffer.create 64 in
  BW.msg buf msg;
  Buffer.contents buf

(* --- zero-copy writing ------------------------------------------------- *)

(* The [Bytes] sink serializes at a cursor inside a caller-owned buffer and
   refuses to run past its end: the wire path encodes frames directly into
   preallocated per-peer output buffers (no intermediate string, no per-send
   copy), and an [Overflow] tells the caller to flush and retry rather than
   silently truncate. *)

exception Overflow

let max_datagram = 65507

type cursor = { cbuf : Bytes.t; mutable cpos : int }

module Bytes_sink = struct
  type t = cursor

  let char c ch =
    if c.cpos >= Bytes.length c.cbuf then raise Overflow;
    Bytes.unsafe_set c.cbuf c.cpos ch;
    c.cpos <- c.cpos + 1

  let string c s =
    let n = String.length s in
    if c.cpos + n > Bytes.length c.cbuf then raise Overflow;
    Bytes.blit_string s 0 c.cbuf c.cpos n;
    c.cpos <- c.cpos + n
end

module XW = Writer (Bytes_sink)

(* Write the frame after a 2-byte hole, then backfill its length: the
   header goes in last, once every byte of the frame is known to fit. *)
let encode_into buf ~pos ~gid ~tid msg =
  if gid < 0 then invalid_arg "Codec.encode_into: negative group id";
  let c = { cbuf = buf; cpos = pos + 2 } in
  XW.varint c gid;
  XW.varint c tid;
  XW.msg c msg;
  let len = c.cpos - pos - 2 in
  if len > 0xffff then raise Overflow;
  Bytes.set buf pos (Char.unsafe_chr (len land 0xff));
  Bytes.set buf (pos + 1) (Char.unsafe_chr (len lsr 8));
  c.cpos

(* --- sized writing --------------------------------------------------------- *)

(* The pieces a caller needs to keep part of a record already encoded and
   splice it in later: exact sizes, a cursor over its own bytes, and the
   [reply] element of a snapshot's session (what {!Cp_engine.Session} keeps
   for every cached reply). *)

module Count_sink = struct
  type t = int ref

  let char n _ = incr n

  let string n s = n := !n + String.length s
end

module CW = Writer (Count_sink)

let cursor buf ~pos = { cbuf = buf; cpos = pos }

let cursor_pos c = c.cpos

let put_varint = XW.varint

let put_bytes c src ~pos ~len =
  if c.cpos + len > Bytes.length c.cbuf then raise Overflow;
  Bytes.blit src pos c.cbuf c.cpos len;
  c.cpos <- c.cpos + len

let put_string = XW.string_

let put_reply c seq reply =
  XW.varint c seq;
  XW.string_ c reply

let varint_size n =
  let rec go z k = if z land lnot 0x7f = 0 then k else go (z lsr 7) (k + 1) in
  go ((n lsl 1) lxor (n asr 62)) 1

let string_size s =
  let n = String.length s in
  varint_size n + n

let reply_size seq reply = varint_size seq + string_size reply

(* --- reading ------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let read_varint s ~pos =
  let n = String.length s in
  (* The encoder emits at most 9 bytes (63 zig-zag bits, 7 per byte, the
     last byte carrying bits 56-62), so the last legal continuation leaves
     [shift] = 56; anything longer is an overlong/corrupt encoding. *)
  let rec go pos shift acc =
    if pos >= n then Error "varint: truncated"
    else if shift > 56 then Error "varint: too long"
    else begin
      let byte = Char.code s.[pos] in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then begin
        (* Un-zig-zag. *)
        let v = (acc lsr 1) lxor (-(acc land 1)) in
        Ok (v, pos + 1)
      end
      else go (pos + 1) (shift + 7) acc
    end
  in
  go pos 0 0

let read_string s ~pos =
  let* len, pos = read_varint s ~pos in
  if len < 0 || pos + len > String.length s then Error "string: truncated"
  else Ok (String.sub s pos len, pos + len)

(* Past the reply that [put_reply] wrote at [pos] of the caller's bytes. *)
let reply_end b ~pos =
  let s = Bytes.unsafe_to_string b in
  match
    let* _seq, pos = read_varint s ~pos in
    let* len, pos = read_varint s ~pos in
    Ok (pos + len)
  with
  | Ok stop -> stop
  | Error m -> invalid_arg ("Codec.reply_end: " ^ m)

let read_float s ~pos =
  if pos + 8 > String.length s then Error "float: truncated"
  else begin
    let bits = ref 0L in
    for i = 7 downto 0 do
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code s.[pos + i]))
    done;
    Ok (Int64.float_of_bits !bits, pos + 8)
  end

let read_ballot s ~pos =
  let* round, pos = read_varint s ~pos in
  let* leader, pos = read_varint s ~pos in
  Ok (Ballot.make ~round ~leader, pos)

let read_tag s ~pos =
  if pos >= String.length s then Error "tag: truncated"
  else Ok (Char.code s.[pos], pos + 1)

let read_reconfig s ~pos =
  let* tag, pos = read_tag s ~pos in
  let* m, pos = read_varint s ~pos in
  match tag with
  | 0 -> Ok (Types.Remove_main m, pos)
  | 1 -> Ok (Types.Add_main m, pos)
  | t -> Error (Printf.sprintf "reconfig: bad tag %d" t)

let read_command s ~pos =
  let* client, pos = read_varint s ~pos in
  let* seq, pos = read_varint s ~pos in
  let* op, pos = read_string s ~pos in
  Ok (({ client; seq; op } : Types.command), pos)

let read_entry s ~pos =
  let* tag, pos = read_tag s ~pos in
  match tag with
  | 0 -> Ok (Types.Noop, pos)
  | 1 ->
    let* cmd, pos = read_command s ~pos in
    Ok (Types.App cmd, pos)
  | 2 ->
    let* r, pos = read_reconfig s ~pos in
    Ok (Types.Reconfig r, pos)
  | 3 ->
    let* count, pos = read_varint s ~pos in
    if count < 0 || count > String.length s then Error "batch: bad count"
    else begin
      let rec go i pos acc =
        if i = count then Ok (Types.Batch (List.rev acc), pos)
        else
          let* cmd, pos = read_command s ~pos in
          go (i + 1) pos (cmd :: acc)
      in
      go 0 pos []
    end
  | t -> Error (Printf.sprintf "entry: bad tag %d" t)

let read_list read s ~pos =
  let* count, pos = read_varint s ~pos in
  if count < 0 || count > String.length s then Error "list: bad count"
  else begin
    let rec go i pos acc =
      if i = count then Ok (List.rev acc, pos)
      else
        let* x, pos = read s ~pos in
        go (i + 1) pos (x :: acc)
    in
    go 0 pos []
  end

let read_vote s ~pos =
  let* vballot, pos = read_ballot s ~pos in
  let* ventry, pos = read_entry s ~pos in
  Ok ({ Types.vballot; ventry }, pos)

let read_ivote s ~pos =
  let* i, pos = read_varint s ~pos in
  let* v, pos = read_vote s ~pos in
  Ok ((i, v), pos)

let read_ientry s ~pos =
  let* i, pos = read_varint s ~pos in
  let* e, pos = read_entry s ~pos in
  Ok ((i, e), pos)

let read_config s ~pos =
  let* epoch, pos = read_varint s ~pos in
  let* mains, pos = read_list read_varint s ~pos in
  let* aux_pool, pos = read_list read_varint s ~pos in
  match Config.make ~epoch ~mains ~aux_pool with
  | cfg -> Ok (cfg, pos)
  | exception Invalid_argument m -> Error ("config: " ^ m)

let read_iconfig s ~pos =
  let* i, pos = read_varint s ~pos in
  let* c, pos = read_config s ~pos in
  Ok ((i, c), pos)

let read_reply s ~pos =
  let* seq, pos = read_varint s ~pos in
  let* reply, pos = read_string s ~pos in
  Ok ((seq, reply), pos)

let read_session s ~pos =
  let* client, pos = read_varint s ~pos in
  let* floor, pos = read_varint s ~pos in
  let* replies, pos = read_list read_reply s ~pos in
  Ok ((client, (floor, replies)), pos)

let read_snapshot s ~pos =
  let* next_instance, pos = read_varint s ~pos in
  let* app_state, pos = read_string s ~pos in
  let* sessions, pos = read_list read_session s ~pos in
  let* base_config, pos = read_config s ~pos in
  let* pending_configs, pos = read_list read_iconfig s ~pos in
  Ok ({ Types.next_instance; app_state; sessions; base_config; pending_configs }, pos)

(* Parse one message starting at [pos]; returns the message and the cursor
   past it. [decode] requires the cursor to land exactly on the end of the
   string, a frame on the end of its length. *)
let decode_prefix ?(pos = 0) s =
  let result =
    let* tag, pos = read_tag s ~pos in
    match tag with
    | 0 ->
      let* ballot, pos = read_ballot s ~pos in
      let* low, pos = read_varint s ~pos in
      Ok (Types.P1a { ballot; low }, pos)
    | 1 ->
      let* ballot, pos = read_ballot s ~pos in
      let* from, pos = read_varint s ~pos in
      let* votes, pos = read_list read_ivote s ~pos in
      let* compacted_upto, pos = read_varint s ~pos in
      Ok (Types.P1b { ballot; from; votes; compacted_upto }, pos)
    | 2 ->
      let* ballot, pos = read_ballot s ~pos in
      let* promised, pos = read_ballot s ~pos in
      Ok (Types.P1Nack { ballot; promised }, pos)
    | 3 ->
      let* ballot, pos = read_ballot s ~pos in
      let* instance, pos = read_varint s ~pos in
      let* entry, pos = read_entry s ~pos in
      Ok (Types.P2a { ballot; instance; entry }, pos)
    | 4 ->
      let* ballot, pos = read_ballot s ~pos in
      let* instance, pos = read_varint s ~pos in
      let* from, pos = read_varint s ~pos in
      Ok (Types.P2b { ballot; instance; from }, pos)
    | 5 ->
      let* ballot, pos = read_ballot s ~pos in
      let* instance, pos = read_varint s ~pos in
      let* promised, pos = read_ballot s ~pos in
      Ok (Types.P2Nack { ballot; instance; promised }, pos)
    | 6 ->
      let* instance, pos = read_varint s ~pos in
      let* entry, pos = read_entry s ~pos in
      Ok (Types.Commit { instance; entry }, pos)
    | 7 ->
      let* upto, pos = read_varint s ~pos in
      Ok (Types.CommitFloor { upto }, pos)
    | 8 ->
      let* ballot, pos = read_ballot s ~pos in
      let* commit_floor, pos = read_varint s ~pos in
      let* sent_at, pos = read_float s ~pos in
      Ok (Types.Heartbeat { ballot; commit_floor; sent_at }, pos)
    | 9 ->
      let* ballot, pos = read_ballot s ~pos in
      let* from, pos = read_varint s ~pos in
      let* prefix, pos = read_varint s ~pos in
      let* echo, pos = read_float s ~pos in
      Ok (Types.HeartbeatAck { ballot; from; prefix; echo }, pos)
    | 10 ->
      let* from, pos = read_varint s ~pos in
      let* from_instance, pos = read_varint s ~pos in
      Ok (Types.CatchupReq { from; from_instance }, pos)
    | 11 ->
      let* entries, pos = read_list read_ientry s ~pos in
      let* flag, pos = read_tag s ~pos in
      if flag = 0 then Ok (Types.CatchupResp { entries; snapshot = None }, pos)
      else
        let* snap, pos = read_snapshot s ~pos in
        Ok (Types.CatchupResp { entries; snapshot = Some snap }, pos)
    | 12 ->
      let* from, pos = read_varint s ~pos in
      Ok (Types.JoinReq { from }, pos)
    | 13 ->
      let* client, pos = read_varint s ~pos in
      let* seq, pos = read_varint s ~pos in
      let* op, pos = read_string s ~pos in
      Ok (Types.ClientReq { client; seq; op }, pos)
    | 14 ->
      let* client, pos = read_varint s ~pos in
      let* seq, pos = read_varint s ~pos in
      let* result, pos = read_string s ~pos in
      Ok (Types.ClientResp { client; seq; result }, pos)
    | 15 ->
      let* leader_hint, pos = read_varint s ~pos in
      Ok (Types.Redirect { leader_hint }, pos)
    | 16 ->
      let* client, pos = read_varint s ~pos in
      let* seq, pos = read_varint s ~pos in
      let* op, pos = read_string s ~pos in
      Ok (Types.ClientRead { client; seq; op }, pos)
    | t -> Error (Printf.sprintf "msg: bad tag %d" t)
  in
  result

let decode s =
  match decode_prefix s with
  | Error m -> Error m
  | Ok (msg, pos) ->
    if pos = String.length s then Ok msg else Error "msg: trailing bytes"

(* --- frames and datagrams ---------------------------------------------- *)

type framed = { f_gid : int; f_msg : Types.msg; f_tid : int; f_bytes : int }

(* The frame occupying [\[pos, stop)] of [s], parsed in place (no per-frame
   [String.sub]). A parse that strays past [stop] into the next frame fails
   the exact-landing check, as trailing bytes inside the frame do. *)
let decode_frame s ~pos ~stop =
  let start = pos in
  let* gid, pos = read_varint s ~pos in
  if gid < 0 then Error "frame: negative group id"
  else
    let* tid, pos = read_varint s ~pos in
    let* msg, pos = decode_prefix ~pos s in
    if pos <> stop then Error "frame: trailing bytes"
    else Ok { f_gid = gid; f_msg = msg; f_tid = tid; f_bytes = stop - start + 2 }

let decode_frames ?(pos = 0) ?len s =
  let stop = match len with Some n -> pos + n | None -> String.length s in
  if pos < 0 || stop > String.length s || stop < pos then
    invalid_arg "Codec.decode_frames: window out of bounds";
  let rec go pos acc =
    if pos = stop then
      match acc with [] -> Error "datagram: no frames" | _ -> Ok (List.rev acc)
    else if pos + 2 > stop then Error "datagram: truncated length"
    else begin
      let flen = Char.code s.[pos] lor (Char.code s.[pos + 1] lsl 8) in
      let fpos = pos + 2 in
      if flen = 0 then Error "datagram: empty frame"
      else if fpos + flen > stop then Error "datagram: truncated frame"
      else
        match decode_frame s ~pos:fpos ~stop:(fpos + flen) with
        | Error m -> Error m
        | Ok f -> go (fpos + flen) (f :: acc)
    end
  in
  go pos []

(* --- stable records ----------------------------------------------------- *)

(* What the effect interpreter persists: the acceptor header, one vote, one
   chosen log entry, and the snapshot. Each record leads with a version byte
   so a future layout change can read old disks; decoding returns Result and
   requires exact landing, like the wire decoders — a half-written or
   foreign blob is an [Error], never an exception. These replace [Marshal]
   on the durable path: the bytes are defined by this grammar, not by the
   OCaml runtime's internal format, so a WAL written by one OCaml version
   reads back on another. *)

type acceptor_header = Ballot.t * int

let stable_version = 1

let encode_stable write v =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr stable_version);
  write buf v;
  Buffer.contents buf

let decode_stable what read s =
  let* v, pos = read_tag s ~pos:0 in
  if v <> stable_version then
    Error (Printf.sprintf "%s: bad version %d" what v)
  else
    let* x, pos = read s ~pos in
    if pos = String.length s then Ok x
    else Error (what ^ ": trailing bytes")

let write_acceptor_header buf ((promised, compacted) : acceptor_header) =
  BW.ballot buf promised;
  BW.varint buf compacted

let read_acceptor_header s ~pos =
  let* promised, pos = read_ballot s ~pos in
  let* compacted, pos = read_varint s ~pos in
  Ok ((promised, compacted), pos)

let encode_acceptor_header = encode_stable write_acceptor_header

let decode_acceptor_header = decode_stable "acceptor" read_acceptor_header

let encode_stable_vote = encode_stable BW.vote

let decode_stable_vote = decode_stable "vote" read_vote

let encode_stable_entry = encode_stable BW.entry

let decode_stable_entry = decode_stable "entry" read_entry

let encode_stable_snapshot = encode_stable BW.snapshot

let decode_stable_snapshot = decode_stable "snapshot" read_snapshot

(* [encode_stable_snapshot] of the snapshot these parts describe, written in
   one pass into a buffer sized up front: every session is a client id plus
   what [write_session] puts (its [floor; replies] as [BW.session] lays
   them out), so a caller that keeps those bytes copies them in. *)
let encode_stable_snapshot_with ~next_instance ~app_state ~sessions ~session_size
    ~write_session ~base_config ~pending_configs =
  let configs = ref 0 in
  CW.config configs base_config;
  CW.list_ configs CW.iconfig pending_configs;
  let count = ref 0 and session_bytes = ref 0 in
  List.iter
    (fun (client, s) ->
      incr count;
      session_bytes := !session_bytes + varint_size client + session_size s)
    sessions;
  let size =
    1 + varint_size next_instance
    + varint_size (String.length app_state)
    + String.length app_state + varint_size !count + !session_bytes + !configs
  in
  let c = cursor (Bytes.create size) ~pos:0 in
  Bytes_sink.char c (Char.chr stable_version);
  XW.varint c next_instance;
  XW.string_ c app_state;
  XW.varint c !count;
  List.iter
    (fun (client, s) ->
      XW.varint c client;
      write_session c s)
    sessions;
  XW.config c base_config;
  XW.list_ c XW.iconfig pending_configs;
  if c.cpos <> size then invalid_arg "Codec.encode_stable_snapshot_with: session_size lied";
  Bytes.unsafe_to_string c.cbuf
