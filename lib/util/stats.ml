type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
      /. float_of_int (List.length xs - 1)
    in
    sqrt var

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.quantile: empty array";
  if q <= 0. then sorted.(0)
  else if q >= 1. then sorted.(n - 1)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let summarize xs =
  match xs with
  | [] ->
    { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  | _ ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    {
      count = Array.length arr;
      mean = mean xs;
      stddev = stddev xs;
      min = arr.(0);
      max = arr.(Array.length arr - 1);
      p50 = quantile arr 0.5;
      p90 = quantile arr 0.9;
      p99 = quantile arr 0.99;
    }
