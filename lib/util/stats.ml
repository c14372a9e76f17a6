let sum = Array.fold_left ( +. ) 0.0

let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

let geomean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (acc /. float_of_int n)
  end

let stddev xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let m = mean xs in
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (var /. float_of_int n)
  end

(* a sorted copy; Float.compare orders non-NaN samples as compare does *)
let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentiles xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let sorted = sorted xs in
  fun p ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end

let percentile xs p = percentiles xs p

let percentiles_nearest xs =
  let n = Array.length xs in
  let sorted = sorted xs in
  fun p ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile_nearest: p out of range";
    if n = 0 then 0.0
    else begin
      (* nearest-rank: rank = ceil(p/100 * n), 1-based; clamp into [1, n] so
         p = 0 returns the minimum and p = 100 (or any tiny n) the maximum *)
      sorted.(max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) - 1)
    end

let percentile_nearest xs p = percentiles_nearest xs p

let minimum xs = Array.fold_left min xs.(0) xs

let maximum xs = Array.fold_left max xs.(0) xs
