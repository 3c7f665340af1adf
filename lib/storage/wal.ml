(* Append-only segmented write-ahead log: the durable {!Storage.S} instance.

   Byte format (defined, OCaml-version independent — no [Marshal]):

     segment   := record*                      file DIR/wal-%08d.seg
     record    := len:u32le crc:u32le payload  len = |payload|, crc = CRC-32(payload)
     payload   := 0x00 klen:uleb128 key value  (put: value = rest of payload)
                | 0x01 klen:uleb128 key        (remove)

   The full (prefix-resolved) key is logged, so namespaced views ({!sub})
   ride the same segment stream; the NUL separator byte keeps prefixes
   collision-free exactly as in {!Mem}.

   Durability: [put]/[remove] append via write(2) immediately (so the OS
   sees every record in order — a torn tail is always a strict prefix of
   what was appended) but do NOT sync; [flush] issues one fsync for the
   whole batch — the group-commit rule — and none when nothing was
   appended since the last one. The runtime flushes once per delivery
   burst, so every record of every step a burst carries shares one fsync:
   with 32 clients on the ring fabric, ~0.13 fsyncs per committed op.

   Recovery ([open_dir]) replays segments in order into the in-memory
   index. Replay stops at the first frame that is truncated, has an
   implausible length, or fails its CRC: everything before it (every synced
   record, and possibly a little more that the OS got to disk anyway) is
   kept, the torn tail is truncated away, and any later segments are
   deleted — garbage never raises, it is the crash suffix.

   Compaction invariant: every live key's latest record exists in some
   live segment. When the dead-record backlog exceeds
   [max compact_min (compact_factor * live_bytes)] a checkpoint rewrites
   the whole index into a fresh segment, fsyncs it, and only then deletes
   the older segments — a crash at any point of compaction recovers to the
   same index ([Drop_log]s and snapshot floors are what feed the dead
   backlog, so log compaction above drives segment compaction below). *)

type io = {
  io_write : Unix.file_descr -> Bytes.t -> int -> int -> int;
  io_fsync : Unix.file_descr -> unit;
}

let default_io = { io_write = Unix.write; io_fsync = Unix.fsync }

let max_record = 64 * 1024 * 1024 (* length-field sanity bound on recovery *)

type root = {
  dir : string;
  io : io;
  segment_max : int;
  compact_min : int;
  compact_factor : int;
  data : (string, string) Hashtbl.t; (* the live index: full key -> value *)
  views : (string, Storage.view_counters) Hashtbl.t;
  mutable fd : Unix.file_descr option; (* active segment; None after close *)
  mutable seg_hi : int; (* active segment number *)
  mutable seg_lo : int; (* oldest live segment number *)
  mutable seg_bytes : int; (* bytes in the active segment *)
  mutable dirty : bool; (* appended since the last fsync *)
  mutable live_bytes : int; (* disk bytes of the latest record per live key *)
  mutable dead_bytes : int; (* disk bytes superseded by overwrite/remove *)
  mutable fsyncs : int;
  mutable appended : int; (* lifetime physical bytes incl. framing *)
  mutable recovery_ms : float;
}

(* --- framing ----------------------------------------------------------- *)

let uleb buf n =
  let rec go n =
    if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let read_uleb s pos limit =
  let rec go pos shift acc =
    if pos >= limit || shift > 56 then None
    else begin
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
    end
  in
  go pos 0 0

let u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let read_u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let payload_put key value =
  let buf = Buffer.create (String.length key + String.length value + 8) in
  Buffer.add_char buf '\000';
  uleb buf (String.length key);
  Buffer.add_string buf key;
  Buffer.add_string buf value;
  Buffer.contents buf

let payload_remove key =
  let buf = Buffer.create (String.length key + 8) in
  Buffer.add_char buf '\001';
  uleb buf (String.length key);
  Buffer.add_string buf key;
  Buffer.contents buf

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  u32le buf (String.length payload);
  u32le buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Size on disk of the put record for (key, value): what live/dead byte
   accounting charges per index entry. *)
let uleb_len n =
  let rec go n acc = if n land lnot 0x7f = 0 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let put_disk_size key value = 8 + 1 + uleb_len (String.length key) + String.length key + String.length value

let remove_disk_size key = 8 + 1 + uleb_len (String.length key) + String.length key

(* --- segment files ----------------------------------------------------- *)

let seg_name r n = Filename.concat r.dir (Printf.sprintf "wal-%08d.seg" n)

let seg_number base =
  if
    String.length base = 16
    && String.sub base 0 4 = "wal-"
    && Filename.check_suffix base ".seg"
  then int_of_string_opt (String.sub base 4 8)
  else None

let open_seg r n =
  let fd = Unix.openfile (seg_name r n) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  r.fd <- Some fd;
  r.seg_hi <- n;
  r.seg_bytes <- (Unix.fstat fd).Unix.st_size

let active_fd r =
  match r.fd with
  | Some fd -> fd
  | None -> failwith "Wal: store is closed"

let write_all r (s : string) =
  let fd = active_fd r in
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n =
        try r.io.io_write fd b off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      (* Count what physically left before any injected crash above. *)
      r.seg_bytes <- r.seg_bytes + n;
      r.appended <- r.appended + n;
      go (off + n)
    end
  in
  go 0;
  r.dirty <- true

let fsync_root r =
  if r.dirty then begin
    r.io.io_fsync (active_fd r);
    r.fsyncs <- r.fsyncs + 1;
    r.dirty <- false
  end

let rotate_if_full r =
  if r.seg_bytes >= r.segment_max then begin
    (* Seal the full segment before abandoning it: rotation must never
       reduce durability below what a flush of the old segment gave. *)
    fsync_root r;
    Unix.close (active_fd r);
    r.fd <- None;
    open_seg r (r.seg_hi + 1)
  end

(* --- index updates with dead-byte accounting --------------------------- *)

let append_put r key value =
  rotate_if_full r;
  (match Hashtbl.find_opt r.data key with
  | Some old ->
    r.dead_bytes <- r.dead_bytes + put_disk_size key old;
    r.live_bytes <- r.live_bytes - put_disk_size key old
  | None -> ());
  write_all r (frame (payload_put key value));
  Hashtbl.replace r.data key value;
  r.live_bytes <- r.live_bytes + put_disk_size key value

let append_remove r key =
  match Hashtbl.find_opt r.data key with
  | None -> () (* removing an absent key is a no-op, as in Mem *)
  | Some old ->
    rotate_if_full r;
    write_all r (frame (payload_remove key));
    Hashtbl.remove r.data key;
    r.live_bytes <- r.live_bytes - put_disk_size key old;
    (* The superseded put and the remove record itself are both garbage
       the next checkpoint erases. *)
    r.dead_bytes <- r.dead_bytes + put_disk_size key old + remove_disk_size key

(* --- compaction -------------------------------------------------------- *)

let checkpoint r =
  (* Rewrite the whole live index into a fresh segment, sync it, and only
     then delete the older segments: every prefix of this sequence recovers
     to the same index. *)
  fsync_root r;
  Unix.close (active_fd r);
  r.fd <- None;
  let doomed_lo, doomed_hi = (r.seg_lo, r.seg_hi) in
  open_seg r (r.seg_hi + 1);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.data []
  |> List.sort compare
  |> List.iter (fun (k, v) -> write_all r (frame (payload_put k v)));
  fsync_root r;
  for n = doomed_lo to doomed_hi do
    try Unix.unlink (seg_name r n) with Unix.Unix_error _ -> ()
  done;
  r.seg_lo <- r.seg_hi;
  r.dead_bytes <- 0

let maybe_compact r =
  if
    r.dead_bytes >= r.compact_min
    && r.dead_bytes >= r.compact_factor * max 1 r.live_bytes
  then checkpoint r

(* --- recovery ---------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* Replay one segment's records into the index; returns the byte offset of
   the valid prefix (= file length iff the whole segment parsed). *)
let replay_segment r s =
  let n = String.length s in
  let rec go pos =
    if pos + 8 > n then pos
    else begin
      let len = read_u32le s pos in
      if len < 1 || len > max_record || pos + 8 + len > n then pos
      else begin
        let crc = read_u32le s (pos + 4) in
        if Crc32.update 0 s ~pos:(pos + 8) ~len <> crc then pos
        else begin
          let limit = pos + 8 + len in
          let op = Char.code s.[pos + 8] in
          match read_uleb s (pos + 9) limit with
          | Some (klen, kpos) when kpos + klen <= limit ->
            let key = String.sub s kpos klen in
            (match op with
            | 0 ->
              let value = String.sub s (kpos + klen) (limit - kpos - klen) in
              (match Hashtbl.find_opt r.data key with
              | Some old ->
                r.dead_bytes <- r.dead_bytes + put_disk_size key old;
                r.live_bytes <- r.live_bytes - put_disk_size key old
              | None -> ());
              Hashtbl.replace r.data key value;
              r.live_bytes <- r.live_bytes + put_disk_size key value
            | 1 ->
              (match Hashtbl.find_opt r.data key with
              | Some old ->
                Hashtbl.remove r.data key;
                r.live_bytes <- r.live_bytes - put_disk_size key old;
                r.dead_bytes <- r.dead_bytes + put_disk_size key old
              | None -> ());
              r.dead_bytes <- r.dead_bytes + remove_disk_size key
            | _ -> () (* unknown op inside a CRC-valid frame: skip forward *));
            go limit
          | _ -> pos (* malformed key header: stop here *)
        end
      end
    end
  in
  go 0

let recover r =
  let t0 = Unix.gettimeofday () in
  let segs =
    Sys.readdir r.dir |> Array.to_list
    |> List.filter_map seg_number
    |> List.sort compare
  in
  (match segs with
  | [] ->
    r.seg_lo <- 0;
    open_seg r 0
  | lo :: _ ->
    r.seg_lo <- lo;
    let rec walk = function
      | [] -> ()
      | n :: rest ->
        let path = seg_name r n in
        let s = read_file path in
        let valid = replay_segment r s in
        r.appended <- r.appended + valid;
        if valid < String.length s then begin
          (* Torn tail: truncate it away and drop everything after it — the
             crash suffix was never acknowledged as durable. *)
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd valid;
          Unix.close fd;
          List.iter
            (fun m -> try Unix.unlink (seg_name r m) with Unix.Unix_error _ -> ())
            rest;
          r.seg_hi <- n
        end
        else begin
          r.seg_hi <- n;
          walk rest
        end
    in
    walk segs;
    open_seg r r.seg_hi);
  r.recovery_ms <- (Unix.gettimeofday () -. t0) *. 1e3

(* --- the Storage.S instance -------------------------------------------- *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

module View = struct
  type t = { root : root; prefix : string; c : Storage.view_counters }

  let backend _ = "wal"

  let sub t ~name =
    Storage.check_view_name name;
    let prefix = t.prefix ^ name ^ "\x00" in
    { t with prefix; c = Storage.register_view t.root.views ~prefix }

  let key t k = t.prefix ^ k

  let put t k v =
    append_put t.root (key t k) v;
    t.c.Storage.vc_writes <- t.c.Storage.vc_writes + 1;
    t.c.Storage.vc_bytes <- t.c.Storage.vc_bytes + String.length v

  let get t k = Hashtbl.find_opt t.root.data (key t k)

  let remove t k = append_remove t.root (key t k)

  let mem t k = Hashtbl.mem t.root.data (key t k)

  let in_view t k =
    String.length k >= String.length t.prefix
    && String.sub k 0 (String.length t.prefix) = t.prefix

  let strip t k =
    String.sub k (String.length t.prefix) (String.length k - String.length t.prefix)

  let keys t =
    Hashtbl.fold
      (fun k _ acc -> if in_view t k then strip t k :: acc else acc)
      t.root.data []
    |> List.sort String.compare

  let flush t =
    fsync_root t.root;
    (* Compaction rides the flush boundary, so a checkpoint never splits a
       burst's records across the durability edge. *)
    maybe_compact t.root

  let wipe t =
    let r = t.root in
    if t.prefix = "" then begin
      (* Disk loss: delete every segment and start a fresh one. *)
      fsync_root r;
      Unix.close (active_fd r);
      r.fd <- None;
      for n = r.seg_lo to r.seg_hi do
        try Unix.unlink (seg_name r n) with Unix.Unix_error _ -> ()
      done;
      Hashtbl.reset r.data;
      r.live_bytes <- 0;
      r.dead_bytes <- 0;
      r.seg_lo <- r.seg_hi + 1;
      open_seg r r.seg_lo
    end
    else
      keys t |> List.iter (fun k -> append_remove r (key t k))

  let stats t =
    let r = t.root in
    let bytes_used =
      Hashtbl.fold
        (fun k v acc -> if in_view t k then acc + String.length v else acc)
        r.data 0
    in
    {
      Storage.writes = t.c.Storage.vc_writes;
      bytes_written = t.c.Storage.vc_bytes;
      bytes_used;
      fsyncs = r.fsyncs;
      bytes_appended = r.appended;
      segments = r.seg_hi - r.seg_lo + 1;
      recovery_ms = r.recovery_ms;
    }

  let close t =
    match t.root.fd with
    | None -> ()
    | Some fd ->
      (* Best-effort final sync: a failing device (or an injected crash
         plan) must not stop [close] from releasing the descriptor. *)
      (try fsync_root t.root with _ -> ());
      Unix.close fd;
      t.root.fd <- None
end

type t = View.t

let open_dir ?(segment_max = 262_144) ?(compact_min = 16_384) ?(compact_factor = 2)
    ?(io = default_io) dir =
  mkdirs dir;
  let root =
    {
      dir;
      io;
      segment_max;
      compact_min;
      compact_factor;
      data = Hashtbl.create 64;
      views = Hashtbl.create 4;
      fd = None;
      seg_hi = 0;
      seg_lo = 0;
      seg_bytes = 0;
      dirty = false;
      live_bytes = 0;
      dead_bytes = 0;
      fsyncs = 0;
      appended = 0;
      recovery_ms = 0.;
    }
  in
  recover root;
  (* Physical bytes replayed on open are history, not new traffic. *)
  root.appended <- 0;
  { View.root; prefix = ""; c = Storage.register_view root.views ~prefix:"" }

let store ?segment_max ?compact_min ?compact_factor ?io dir =
  Storage.Packed ((module View), open_dir ?segment_max ?compact_min ?compact_factor ?io dir)
