open Cp_proto
module IMap = Map.Make (Int)

type image = {
  floor : int;
  replies : (int * string) list;
}

(* The cached replies are kept twice: in [s_replies] for lookups, and as
   the bytes a snapshot stores them as ([Codec.put_reply] each, ascending
   seq) in [img], live between [img_lo] and [img_hi]. A snapshot copies
   those bytes instead of encoding every reply again. A record above
   [s_high] appends and an eviction skips the first entry; anything else (a
   record out of seq order, [import], [copy]) makes the bytes stale, and the
   next snapshot rebuilds them once from the map. *)
type t = {
  mutable s_floor : int;
  mutable s_replies : string IMap.t; (* executed seqs > floor *)
  mutable s_count : int; (* IMap.cardinal s_replies, kept so no path scans *)
  mutable s_high : int;
  mutable img : Bytes.t;
  mutable img_lo : int;
  mutable img_hi : int;
  mutable img_fresh : bool; (* [img_lo, img_hi) encodes s_replies *)
}

let make ~floor ~replies ~count ~high ~img_fresh =
  {
    s_floor = floor;
    s_replies = replies;
    s_count = count;
    s_high = high;
    img = Bytes.empty;
    img_lo = 0;
    img_hi = 0;
    img_fresh;
  }

let create () = make ~floor:0 ~replies:IMap.empty ~count:0 ~high:0 ~img_fresh:true

let status t seq =
  if seq <= t.s_floor then `Evicted
  else
    match IMap.find_opt seq t.s_replies with
    | Some reply -> `Cached reply
    | None -> `New

let mark_stale t =
  t.img_fresh <- false;
  t.img <- Bytes.empty;
  t.img_lo <- 0;
  t.img_hi <- 0

(* Move the live bytes to the front of a buffer of [cap] bytes (a fresh one
   if [cap] differs from the current size). *)
let move_live t ~cap =
  let live = t.img_hi - t.img_lo in
  let img = if cap = Bytes.length t.img then t.img else Bytes.create cap in
  Bytes.blit t.img t.img_lo img 0 live;
  t.img <- img;
  t.img_lo <- 0;
  t.img_hi <- live

let append t seq reply =
  let n = Codec.reply_size seq reply in
  if t.img_hi + n > Bytes.length t.img then
    move_live t ~cap:(max (2 * Bytes.length t.img) (max 64 (t.img_hi - t.img_lo + n)));
  let c = Codec.cursor t.img ~pos:t.img_hi in
  Codec.put_reply c seq reply;
  t.img_hi <- Codec.cursor_pos c

(* The evicted reply is the lowest cached one, so the first entry; once the
   dead prefix passes half the buffer the live bytes move to the front. *)
let drop_first t =
  t.img_lo <- Codec.reply_end t.img ~pos:t.img_lo;
  if 2 * t.img_lo > Bytes.length t.img then move_live t ~cap:(Bytes.length t.img)

(* Evict oldest replies down to the window by advancing the floor — but only
   along the contiguously-executed prefix: evicting seq s while some s' < s
   is still unexecuted would make s report `New` again and break
   at-most-once. The cache may therefore exceed the window while execution
   gaps persist; a client's gaps are bounded by its pipelining depth. *)
let advance t ~window =
  let continue = ref true in
  while !continue do
    match IMap.find_opt (t.s_floor + 1) t.s_replies with
    | Some _ when t.s_count > window ->
      t.s_replies <- IMap.remove (t.s_floor + 1) t.s_replies;
      t.s_count <- t.s_count - 1;
      t.s_floor <- t.s_floor + 1;
      if t.img_fresh then drop_first t
    | Some _ | None -> continue := false
  done

let record t ~window seq reply =
  if seq > t.s_floor && not (IMap.mem seq t.s_replies) then begin
    t.s_replies <- IMap.add seq reply t.s_replies;
    t.s_count <- t.s_count + 1;
    if seq > t.s_high then begin
      t.s_high <- seq;
      if t.img_fresh then append t seq reply
    end
    else if t.img_fresh then mark_stale t;
    advance t ~window
  end

let max_seq t = max t.s_high t.s_floor

let export t = { floor = t.s_floor; replies = IMap.bindings t.s_replies }

let import image =
  let replies =
    List.fold_left (fun m (s, r) -> IMap.add s r m) IMap.empty image.replies
  in
  let high =
    match IMap.max_binding_opt replies with Some (s, _) -> s | None -> image.floor
  in
  make ~floor:image.floor ~replies ~count:(IMap.cardinal replies) ~high ~img_fresh:false

let cached_count t = t.s_count

let copy t =
  make ~floor:t.s_floor ~replies:t.s_replies ~count:t.s_count ~high:t.s_high ~img_fresh:false

let refresh t =
  if not t.img_fresh then begin
    let n = IMap.fold (fun seq r n -> n + Codec.reply_size seq r) t.s_replies 0 in
    let img = Bytes.create n in
    let c = Codec.cursor img ~pos:0 in
    IMap.iter (Codec.put_reply c) t.s_replies;
    t.img <- img;
    t.img_lo <- 0;
    t.img_hi <- n;
    t.img_fresh <- true
  end

let image_size t =
  refresh t;
  Codec.varint_size t.s_floor + Codec.varint_size t.s_count + (t.img_hi - t.img_lo)

let write_image c t =
  refresh t;
  Codec.put_varint c t.s_floor;
  Codec.put_varint c t.s_count;
  Codec.put_bytes c t.img ~pos:t.img_lo ~len:(t.img_hi - t.img_lo)
