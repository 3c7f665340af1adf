module IMap = Map.Make (Int)

type image = {
  floor : int;
  replies : (int * string) list;
}

type t = {
  mutable s_floor : int;
  mutable s_replies : string IMap.t; (* executed seqs > floor *)
  mutable s_count : int; (* IMap.cardinal s_replies, kept so no path scans *)
  mutable s_high : int;
}

let create () = { s_floor = 0; s_replies = IMap.empty; s_count = 0; s_high = 0 }

let status t seq =
  if seq <= t.s_floor then `Evicted
  else
    match IMap.find_opt seq t.s_replies with
    | Some reply -> `Cached reply
    | None -> `New

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
      t.s_floor <- t.s_floor + 1
    | Some _ | None -> continue := false
  done

let record t ~window seq reply =
  if seq > t.s_floor && not (IMap.mem seq t.s_replies) then begin
    t.s_replies <- IMap.add seq reply t.s_replies;
    t.s_count <- t.s_count + 1;
    if seq > t.s_high then t.s_high <- seq;
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
  { s_floor = image.floor; s_replies = replies; s_count = IMap.cardinal replies; s_high = high }

let cached_count t = t.s_count

let copy t =
  { s_floor = t.s_floor; s_replies = t.s_replies; s_count = t.s_count; s_high = t.s_high }
