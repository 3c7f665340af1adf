(* Hierarchical timer wheel.

   A node hosting N replica groups re-arms every group's tick and
   retransmit timers constantly. The wheel makes [add] and [cancel] O(1):
   timers hash into fixed-size slot rings, one ring per power-of-[slots]
   granularity level, and time advances by draining level-0 slots and
   cascading a higher-level slot down each time a lower ring wraps.

   Placement is strict single-round: a timer lands in the innermost level
   whose horizon contains it, so within one level, ring order from the
   cursor is deadline order. That invariant is what makes [next_deadline]
   exact with a bounded scan (first nonempty slot per level; levels further
   out can only hold later deadlines). Deadlines beyond the outermost
   horizon go to an overflow list, re-examined whenever the outermost ring
   wraps.

   Timers fire no earlier than their deadline; quantization delays a firing
   by at most one tick. The wheel has no clock of its own — the caller
   drives it with [advance], so it works under virtual (sim) and wall
   (netio) time alike, and deterministically under the former. *)

type 'a timer = {
  id : int;
  ticks : int; (* quantized deadline: fires when the cursor reaches this tick *)
  payload : 'a;
  mutable cancelled : bool;
}

type 'a t = {
  tick : float;
  slots : int;
  levels : 'a timer list array array; (* levels.(l).(slot), unordered *)
  mutable overflow : 'a timer list;
  mutable base : int; (* next tick index to process *)
  mutable next_id : int;
  mutable live : int;
  by_id : (int, 'a timer) Hashtbl.t;
}

let create ?(tick = 2.5e-4) ?(slots = 64) ?(levels = 3) ~now () =
  if tick <= 0. then invalid_arg "Wheel.create: tick must be positive";
  if slots < 2 || levels < 1 then invalid_arg "Wheel.create: need >= 2 slots, >= 1 level";
  {
    tick;
    slots;
    levels = Array.init levels (fun _ -> Array.make slots []);
    overflow = [];
    base = int_of_float (Float.max 0. now /. tick);
    next_id = 0;
    live = 0;
    by_id = Hashtbl.create 64;
  }

let live t = t.live

let ticks_of t at = int_of_float (ceil (at /. t.tick))

(* The tick index [now] has reached. Snap-to-nearest within a relative
   tolerance so that a caller waking exactly at a quantized fire time we
   handed out (via [next_deadline]) lands on that tick despite float
   round-trip error; otherwise floor, so timers never fire early. *)
let ticks_for t now =
  let q = now /. t.tick in
  let r = Float.round q in
  if Float.abs (q -. r) <= 1e-6 *. Float.max 1. (Float.abs r) then int_of_float r
  else int_of_float (floor q)

let fire_time t ticks = float_of_int ticks *. t.tick

(* Level l spans [slots]^(l+1) ticks; [span] below is [slots]^l, the width
   of one of its slots. *)
let place t timer =
  let delta = timer.ticks - t.base in
  if delta < t.slots then begin
    (* Overdue timers (delta <= 0) land in the slot about to be processed. *)
    let tk = if delta <= 0 then t.base else timer.ticks in
    let ring = t.levels.(0) in
    let s = tk mod t.slots in
    ring.(s) <- timer :: ring.(s)
  end
  else begin
    let nlevels = Array.length t.levels in
    let rec go l span =
      if l >= nlevels then t.overflow <- timer :: t.overflow
      else if delta < span * t.slots then begin
        let ring = t.levels.(l) in
        let s = timer.ticks / span mod t.slots in
        ring.(s) <- timer :: ring.(s)
      end
      else go (l + 1) (span * t.slots)
    in
    go 1 t.slots
  end

let add t ~at payload =
  t.next_id <- t.next_id + 1;
  let timer = { id = t.next_id; ticks = ticks_of t at; payload; cancelled = false } in
  place t timer;
  Hashtbl.replace t.by_id timer.id timer;
  t.live <- t.live + 1;
  timer.id

let cancel t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> () (* unknown or already fired: no-op, like both runtimes *)
  | Some timer ->
    timer.cancelled <- true;
    Hashtbl.remove t.by_id id;
    t.live <- t.live - 1

(* Pull a higher-level slot (or the overflow) down when a lower ring wraps.
   Cancelled timers are dropped here rather than re-placed. *)
let replace_all t l =
  let re tl = List.iter (fun tm -> if not tm.cancelled then place t tm) tl in
  if l >= Array.length t.levels then begin
    let tl = t.overflow in
    t.overflow <- [];
    re tl
  end
  else begin
    let rec ipow acc e = if e = 0 then acc else ipow (acc * t.slots) (e - 1) in
    let span = ipow 1 l in
    let ring = t.levels.(l) in
    let s = t.base / span mod t.slots in
    let tl = ring.(s) in
    ring.(s) <- [];
    re tl
  end

let advance t ~now ~fire =
  let target = ticks_for t now in
  while t.base <= target do
    (* Entering a new outer span: cascade one slot per level whose ring
       just wrapped, finest level first — anything a coarser cascade
       re-places lands strictly ahead of the finer cursors, so nothing is
       dropped into a slot already passed this window. *)
    if t.base mod t.slots = 0 then begin
      let nlevels = Array.length t.levels in
      let rec spans l acc = if l > nlevels then [] else acc :: spans (l + 1) (acc * t.slots) in
      let lvl_spans = spans 1 t.slots in
      List.iteri
        (fun i span -> if t.base mod span = 0 then replace_all t (i + 1))
        lvl_spans
    end;
    let ring = t.levels.(0) in
    let s = t.base mod t.slots in
    (* Drain until quiet: [fire] may add an already-due timer, which lands
       right back in this slot and must not wait a full ring revolution.
       Fire in id order so firing is deterministic and FIFO among equal
       deadlines; future rounds of the slot stay behind. *)
    let rec drain () =
      match ring.(s) with
      | [] -> ()
      | tl ->
        let due, rest = List.partition (fun tm -> tm.ticks <= t.base) tl in
        if due <> [] then begin
          ring.(s) <- rest;
          let due = List.sort (fun a b -> compare a.id b.id) due in
          List.iter
            (fun tm ->
              if not tm.cancelled then begin
                Hashtbl.remove t.by_id tm.id;
                t.live <- t.live - 1;
                fire tm.id tm.payload
              end)
            due;
          drain ()
        end
    in
    drain ();
    t.base <- t.base + 1
  done

(* Exact earliest live deadline, O(slots * levels) slot-head probes.
   Within one level, strict single-round placement makes ring order from
   the cursor deadline order, so the first nonempty slot holds that level's
   minimum. Levels are NOT ordered against each other — a higher-level
   timer whose slot has not cascaded yet can still be earlier than
   everything in the level below (base has drifted since it was placed) —
   so every level contributes a candidate and the overall minimum wins. *)
let next_deadline t =
  if t.live = 0 then None
  else begin
    let slot_min acc tl =
      List.fold_left (fun m tm -> if tm.cancelled then m else min m tm.ticks) acc tl
    in
    let level_min l span =
      let ring = t.levels.(l) in
      let cursor = t.base / span mod t.slots in
      let rec scan i =
        if i >= t.slots then max_int
        else begin
          let s = (cursor + i) mod t.slots in
          (* A slot of only-cancelled timers must not end the scan. *)
          let v = slot_min max_int ring.(s) in
          if v = max_int then scan (i + 1) else v
        end
      in
      scan 0
    in
    let nlevels = Array.length t.levels in
    let rec levels l span acc =
      if l >= nlevels then acc else levels (l + 1) (span * t.slots) (min acc (level_min l span))
    in
    let m = levels 0 1 (slot_min max_int t.overflow) in
    if m = max_int then None else Some (fire_time t (max m t.base))
  end
