(* Unit and property tests for the utility substrate. *)

module Rng = Cp_util.Rng
module Heap = Cp_util.Heap
module Stats = Cp_util.Stats
module Table = Cp_util.Table

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let diff = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "0 <= x < 10" true (x >= 0 && x < 10);
    let f = Rng.float rng 3.5 in
    Alcotest.(check bool) "0 <= f < 3.5" true (f >= 0. && f < 3.5);
    let u = Rng.uniform_in rng 2. 5. in
    Alcotest.(check bool) "2 <= u < 5" true (u >= 2. && u < 5.)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_bool_bias () =
  let rng = Rng.create 3 in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool rng 0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.25" rate)
    true
    (rate > 0.22 && rate < 0.28)

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2.0" mean)
    true
    (mean > 1.9 && mean < 2.1)

let test_rng_split_independent () =
  (* Splitting must not mirror the parent stream. *)
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let equal = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 parent = Rng.int64 child then incr equal
  done;
  Alcotest.(check int) "no collisions" 0 !equal

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Rng.create 13 in
  let a = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Rng.pick rng a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* --- Heap ------------------------------------------------------------- *)

let test_heap_basic () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check int) "size" 6 (Heap.size h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "next min" (Some 2) (Heap.pop h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_heap_interleaved =
  (* Interleaved push/pop agrees with a sorted-list model. *)
  QCheck.Test.make ~name:"heap matches model under interleaving" ~count:200
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := List.sort compare (x :: !model);
            true
          end
          else begin
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some y, m :: rest ->
              model := rest;
              y = m
            | Some _, [] | None, _ :: _ -> false
          end)
        ops)

let test_heap_releases_popped () =
  (* [pop] must clear the vacated backing-array slot: a popped element has to
     become collectable while the heap itself stays alive. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = ref (Bytes.create 64) in
    Weak.set w i (Some payload);
    Heap.push h (i, payload)
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 7 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "popped elements still retained" 0 !live;
  (* The heap must remain fully usable over the cleared slots. *)
  List.iter (fun i -> Heap.push h (i, ref (Bytes.create 1))) [ 3; 1; 2 ];
  (match Heap.pop h with
  | Some (k, _) -> Alcotest.(check int) "min after reuse" 1 k
  | None -> Alcotest.fail "heap unusable after clearing");
  Alcotest.(check int) "size after reuse" 2 (Heap.size h)

(* --- Stats ------------------------------------------------------------ *)

let feq name a b = Alcotest.(check (float 1e-9)) name a b

let test_stats_summary () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  feq "mean" 3. s.Stats.mean;
  feq "min" 1. s.Stats.min;
  feq "max" 5. s.Stats.max;
  feq "p50" 3. s.Stats.p50

let test_stats_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  feq "mean" 0. s.Stats.mean

let test_stats_quantile_interpolation () =
  let arr = [| 0.; 10. |] in
  feq "q0" 0. (Stats.quantile arr 0.);
  feq "q1" 10. (Stats.quantile arr 1.);
  feq "q0.5" 5. (Stats.quantile arr 0.5);
  feq "q0.25" 2.5 (Stats.quantile arr 0.25)

let test_stats_stddev () =
  feq "stddev singleton" 0. (Stats.stddev [ 4. ]);
  feq "stddev pair" (sqrt 2.) (Stats.stddev [ 1.; 3. ])

(* --- Table ------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* Right-aligned numeric column: the "1" should be padded on the left. *)
  Alcotest.(check bool) "alignment applied" true
    (String.length (List.nth (String.split_on_char '\n' out) 2) > 5)

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row: expected 2 columns, got 1") (fun () ->
      Table.add_row t [ "only" ])

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "x,y"; "plain" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv escaping" "a,b\n\"x,y\",plain\n" csv

let test_table_formats () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1" (Table.fmt_float ~decimals:1 3.14159);
  Alcotest.(check string) "pct" "25.0%" (Table.fmt_pct 0.25);
  Alcotest.(check string) "int" "42" (Table.fmt_int 42)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng rejects bad bound" `Quick test_rng_int_rejects_nonpositive;
    Alcotest.test_case "rng bool bias" `Quick test_rng_bool_bias;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng pick" `Quick test_rng_pick;
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    Alcotest.test_case "heap releases popped elements" `Quick test_heap_releases_popped;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    Alcotest.test_case "stats quantile interpolation" `Quick test_stats_quantile_interpolation;
    Alcotest.test_case "stats stddev" `Quick test_stats_stddev;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table width mismatch" `Quick test_table_width_mismatch;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table formats" `Quick test_table_formats;
  ]
  @ qsuite [ prop_heap_sorts; prop_heap_interleaved ]
