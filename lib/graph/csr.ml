module Packed = Agp_util.Packed

type t = {
  n : int;
  m : int;
  row_ptr : Packed.t;
  col : Packed.t;
  weight : Packed.t;
}

let require_fits ~who ~n ~m =
  if n >= 0x8000_0000 then invalid_arg (Printf.sprintf "%s: %d vertices do not fit in 32 bits" who n);
  if m >= 0x8000_0000 then invalid_arg (Printf.sprintf "%s: %d arcs do not fit in 32 bits" who m)

(* element [i] of a column, read inline ({!Packed.get} is a call, and
   these are the references' per-arc reads); past the guard, [4 * i]
   cannot wrap and the primitive checks the rest *)
let[@inline] at a i =
  if i lsr 60 <> 0 then invalid_arg "index out of bounds";
  Int32.to_int (Packed.get32 a (4 * i))

(* element [i] of a column, written inline: [build] writes only vertex
   ids and weights it has checked *)
let[@inline] put a i x = Packed.set32 a (4 * i) (Int32.of_int x)

(* The one CSR builder.  Stored arcs are counting-sorted by target, then
   stably by source, so every adjacency comes out in ascending target
   order in O(n + m) words, written packed once per arc; the arcs of a
   repeated target are ordered by weight as they are placed, which
   costs only the repeats. *)
let build ~who ~directed ~n src dst weight =
  let k = Array.length src in
  if Array.length dst <> k || Array.length weight <> k then invalid_arg (who ^ ": length mismatch");
  let m = if directed then k else 2 * k in
  require_fits ~who ~n ~m;
  let lightest = ref 0 and heaviest = ref 0 in
  for i = 0 to k - 1 do
    let u = src.(i) and v = dst.(i) and w = weight.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (who ^ ": vertex out of range");
    if w < !lightest then lightest := w else if w > !heaviest then heaviest := w
  done;
  if not (Packed.fits !lightest && Packed.fits !heaviest) then
    invalid_arg (who ^ ": weight does not fit in 32 bits");
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
  let col = Packed.create (max m 1) in
  let wt = Packed.create (max m 1) in
  Array.blit row_ptr 0 cursor 0 n;
  (* [last.(s)]: the target of the arc last placed out of [s].  A
     repeated target's arcs sit just before its next slot, so a repeat
     is inserted among them by weight as it arrives, stably *)
  let last = Array.make n (-1) in
  for t = 0 to n - 1 do
    for p = by_col.(t) to by_col.(t + 1) - 1 do
      let s = in_src.(p) and w = in_w.(p) in
      let slot = cursor.(s) in
      let j = ref slot in
      if last.(s) = t then
        while !j > row_ptr.(s) && at col (!j - 1) = t && at wt (!j - 1) > w do
          put wt !j (at wt (!j - 1));
          decr j
        done;
      put col slot t;
      put wt !j w;
      last.(s) <- t;
      cursor.(s) <- slot + 1
    done
  done;
  { n; m; row_ptr = Packed.of_array row_ptr; col; weight = wt }

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

let[@inline] weighted g = Packed.length g.weight > 0

let[@inline] row_start g v = at g.row_ptr v

let degree g v = row_start g (v + 1) - row_start g v

(* Every per-arc reader tests [weighted] once, then runs a loop that
   reads the weight column or passes unit weights. *)
let iter_neighbors g v f =
  let lo = row_start g v and hi = row_start g (v + 1) - 1 in
  if weighted g then
    for i = lo to hi do
      f (at g.col i) (at g.weight i)
    done
  else
    for i = lo to hi do
      f (at g.col i) 1
    done

let fold_neighbors g v f acc =
  let acc = ref acc in
  iter_neighbors g v (fun dst w -> acc := f !acc dst w);
  !acc

let edges g =
  let weight = if weighted g then fun i -> at g.weight i else fun _ -> 1 in
  let out = ref [] in
  for v = g.n - 1 downto 0 do
    for i = row_start g (v + 1) - 1 downto row_start g v do
      out := (v, at g.col i, weight i) :: !out
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
      sum := !sum + at g.weight i
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
  if Packed.length g.row_ptr <> g.n + 1 then err "row_ptr length %d <> n+1" (Packed.length g.row_ptr)
  else if row_start g 0 <> 0 then err "row_ptr.(0) <> 0"
  else if row_start g g.n <> g.m then err "row_ptr.(n) %d <> m %d" (row_start g g.n) g.m
  else begin
    let rec check_mono v =
      if v >= g.n then Ok ()
      else if row_start g (v + 1) < row_start g v then err "row_ptr not monotone at %d" v
      else check_mono (v + 1)
    in
    match check_mono 0 with
    | Error _ as e -> e
    | Ok () when weighted g && Packed.length g.weight < g.m ->
        err "weight length %d < m %d" (Packed.length g.weight) g.m
    | Ok () ->
        (* an unweighted graph's unit weights are positive *)
        let positive = if weighted g then fun i -> at g.weight i > 0 else fun _ -> true in
        let rec check_edges i =
          if i >= g.m then Ok ()
          else if at g.col i < 0 || at g.col i >= g.n then err "edge %d target out of range" i
          else if not (positive i) then err "edge %d weight not positive" i
          else check_edges (i + 1)
        in
        check_edges 0
  end
