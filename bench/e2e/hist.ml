(* Log-bucketed duration histogram: fixed memory, mergeable across
   processes, quantiles within ~2% (16 buckets per octave). Samples are
   nanoseconds; sum, count and max are exact. *)

let per_octave = 16.

let buckets = 40 * 16 (* 1 ns .. 2^40 ns *)

type t = { counts : int array; mutable n : int; mutable sum : int; mutable max : int }

let create () = { counts = Array.make buckets 0; n = 0; sum = 0; max = 0 }

let index ns =
  if ns < 1 then 0
  else min (buckets - 1) (int_of_float (Float.log2 (float_of_int ns) *. per_octave))

let add t ns =
  let ns = max 0 ns in
  let i = index ns in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + ns;
  if ns > t.max then t.max <- ns

let clear t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0;
  t.sum <- 0;
  t.max <- 0

let count t = t.n

let mean_ns t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

(* Geometric midpoint of the bucket holding the q-th sample. *)
let quantile_ns t q =
  if t.n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let i = ref 0 and seen = ref t.counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + t.counts.(!i)
    done;
    Float.min (float_of_int t.max) (2. ** ((float_of_int !i +. 0.5) /. per_octave))
  end

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  dst.max <- max dst.max src.max

(* Exact integer samples, for the end-to-end percentiles. *)
module Exact = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done

  (* Linear interpolation between order statistics. *)
  let quantile t q =
    if t.n = 0 then 0.
    else
      Cp_util.Stats.quantile
        (Array.map float_of_int (let s = Array.sub t.a 0 t.n in Array.sort compare s; s))
        q
end

(* One line: "n sum max i:c i:c ..." over the non-empty buckets. *)
let to_string t =
  let b = Buffer.create 64 in
  Printf.bprintf b "%d %d %d" t.n t.sum t.max;
  Array.iteri (fun i c -> if c > 0 then Printf.bprintf b " %d:%d" i c) t.counts;
  Buffer.contents b

let of_string s =
  let t = create () in
  (match String.split_on_char ' ' (String.trim s) with
  | n :: sum :: mx :: cells ->
    t.n <- int_of_string n;
    t.sum <- int_of_string sum;
    t.max <- int_of_string mx;
    List.iter
      (fun cell ->
        match String.split_on_char ':' cell with
        | [ i; c ] -> t.counts.(int_of_string i) <- int_of_string c
        | _ -> failwith ("Hist.of_string: bad cell " ^ cell))
      cells
  | _ -> failwith "Hist.of_string: bad line");
  t
