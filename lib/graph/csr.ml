type t = {
  n : int;
  m : int;
  row_ptr : int array;
  col : int array;
  weight : int array;
}

(* The one CSR builder.  Stored arcs are counting-sorted by target, then
   stably by source, so every adjacency comes out in ascending target
   order in O(n + m) words; a last pass orders the arcs of a repeated
   target by weight, which costs only the repeats. *)
let build ~who ~directed ~n src dst weight =
  let k = Array.length src in
  if Array.length dst <> k || Array.length weight <> k then invalid_arg (who ^ ": length mismatch");
  for i = 0 to k - 1 do
    let u = src.(i) and v = dst.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": vertex out of range")
  done;
  let m = if directed then k else 2 * k in
  (* by_col.(t) .. by_col.(t+1)-1: the arcs into t; row_ptr likewise out
     of each source *)
  let by_col = Array.make (n + 1) 0 in
  let row_ptr = Array.make (n + 1) 0 in
  let count s t =
    by_col.(t + 1) <- by_col.(t + 1) + 1;
    row_ptr.(s + 1) <- row_ptr.(s + 1) + 1
  in
  for i = 0 to k - 1 do
    count src.(i) dst.(i);
    if not directed then count dst.(i) src.(i)
  done;
  for v = 0 to n - 1 do
    by_col.(v + 1) <- by_col.(v + 1) + by_col.(v);
    row_ptr.(v + 1) <- row_ptr.(v + 1) + row_ptr.(v)
  done;
  let in_src = Array.make (max m 1) 0 in
  let in_w = Array.make (max m 1) 0 in
  let cursor = Array.sub by_col 0 n in
  let place s t w =
    let p = cursor.(t) in
    in_src.(p) <- s;
    in_w.(p) <- w;
    cursor.(t) <- p + 1
  in
  for i = 0 to k - 1 do
    place src.(i) dst.(i) weight.(i);
    if not directed then place dst.(i) src.(i) weight.(i)
  done;
  let col = Array.make (max m 1) 0 in
  let wt = Array.make (max m 1) 0 in
  Array.blit row_ptr 0 cursor 0 n;
  for t = 0 to n - 1 do
    for p = by_col.(t) to by_col.(t + 1) - 1 do
      let s = in_src.(p) in
      let slot = cursor.(s) in
      col.(slot) <- t;
      wt.(slot) <- in_w.(p);
      cursor.(s) <- slot + 1
    done
  done;
  for v = 0 to n - 1 do
    let lo = row_ptr.(v) in
    for i = lo + 1 to row_ptr.(v + 1) - 1 do
      let c = col.(i) and w = wt.(i) in
      let j = ref (i - 1) in
      while !j >= lo && col.(!j) = c && wt.(!j) > w do
        wt.(!j + 1) <- wt.(!j);
        decr j
      done;
      wt.(!j + 1) <- w
    done
  done;
  { n; m; row_ptr; col; weight = wt }

let of_arrays ?(directed = false) ~n src dst weight =
  build ~who:"Csr.of_arrays" ~directed ~n src dst weight

let of_edges ?(directed = false) ~n edges =
  let k = List.length edges in
  let src = Array.make k 0 and dst = Array.make k 0 and weight = Array.make k 0 in
  List.iteri
    (fun i (u, v, w) ->
      src.(i) <- u;
      dst.(i) <- v;
      weight.(i) <- w)
    edges;
  build ~who:"Csr.of_edges" ~directed ~n src dst weight

let weighted g = Array.length g.weight > 0

let degree g v = g.row_ptr.(v + 1) - g.row_ptr.(v)

(* Every per-arc reader tests [weighted] once, then runs a loop that
   reads the weight column or passes unit weights. *)
let iter_neighbors g v f =
  let lo = g.row_ptr.(v) and hi = g.row_ptr.(v + 1) - 1 in
  if weighted g then
    for i = lo to hi do
      f g.col.(i) g.weight.(i)
    done
  else
    for i = lo to hi do
      f g.col.(i) 1
    done

let fold_neighbors g v f acc =
  let acc = ref acc in
  iter_neighbors g v (fun dst w -> acc := f !acc dst w);
  !acc

let edges g =
  let weight = if weighted g then fun i -> g.weight.(i) else fun _ -> 1 in
  let out = ref [] in
  for v = g.n - 1 downto 0 do
    for i = g.row_ptr.(v + 1) - 1 downto g.row_ptr.(v) do
      out := (v, g.col.(i), weight i) :: !out
    done
  done;
  !out

let undirected_edges g =
  List.filter (fun (u, v, _) -> u <= v) (edges g)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (degree g v)
  done;
  !best

let total_weight g =
  if weighted g then begin
    let sum = ref 0 in
    for i = 0 to g.m - 1 do
      sum := !sum + g.weight.(i)
    done;
    !sum
  end
  else g.m

let is_symmetric g =
  let has_edge u v w =
    fold_neighbors g u (fun acc dst dw -> acc || (dst = v && dw = w)) false
  in
  List.for_all (fun (u, v, w) -> has_edge v u w) (edges g)

let validate g =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length g.row_ptr <> g.n + 1 then err "row_ptr length %d <> n+1" (Array.length g.row_ptr)
  else if g.row_ptr.(0) <> 0 then err "row_ptr.(0) <> 0"
  else if g.row_ptr.(g.n) <> g.m then err "row_ptr.(n) %d <> m %d" g.row_ptr.(g.n) g.m
  else begin
    let rec check_mono v =
      if v >= g.n then Ok ()
      else if g.row_ptr.(v + 1) < g.row_ptr.(v) then err "row_ptr not monotone at %d" v
      else check_mono (v + 1)
    in
    match check_mono 0 with
    | Error _ as e -> e
    | Ok () when weighted g && Array.length g.weight < g.m ->
        err "weight length %d < m %d" (Array.length g.weight) g.m
    | Ok () ->
        (* an unweighted graph's unit weights are positive *)
        let positive = if weighted g then fun i -> g.weight.(i) > 0 else fun _ -> true in
        let rec check_edges i =
          if i >= g.m then Ok ()
          else if g.col.(i) < 0 || g.col.(i) >= g.n then err "edge %d target out of range" i
          else if not (positive i) then err "edge %d weight not positive" i
          else check_edges (i + 1)
        in
        check_edges 0
  end
