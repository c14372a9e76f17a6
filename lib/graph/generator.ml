module Rng = Agp_util.Rng
module Packed = Agp_util.Packed

let imin (a : int) b = if a <= b then a else b

let imax (a : int) b = if a >= b then a else b

(* element [k] of a column, written inline: [x] is a vertex id, an arc
   offset or a byte, which [lattice] has bounded by [Csr.require_fits] *)
let[@inline] put a k x = Packed.set32 a (4 * k) (Int32.of_int x)

(* store arc [k] -> [dst] of weight [w] when the edge exists (its
   weight only when [weighted]); the next free arc *)
let[@inline] put_arc ~weighted col weight k dst w =
  if w > 0 then begin
    put col k dst;
    if weighted then put weight k w;
    k + 1
  end
  else k

(* CSR arrays of a [width] x [height] lattice from the weight of each
   vertex's edge to its right ([rw]), down ([dw]) and down-right ([gw])
   neighbour, one byte per vertex (every weight is below 256), 0 = no
   edge.  Each edge is stored
   both ways, every adjacency in ascending target order, as
   Csr.of_edges would sort it.  A counting pass sizes the arrays; the
   fill pass then writes each vertex's arcs where the previous vertex's
   ended, which is also its [row_ptr].  Unweighted, the bytes still
   decide which edges exist, but no weight array is made. *)
let lattice ~who ~weighted ~width ~height rw dw gw =
  let n = width * height in
  let edges = ref 0 in
  for v = 0 to n - 1 do
    if Bytes.get_uint8 rw v > 0 then incr edges;
    if Bytes.get_uint8 dw v > 0 then incr edges;
    if Bytes.get_uint8 gw v > 0 then incr edges
  done;
  let m = 2 * !edges in
  Csr.require_fits ~who ~n ~m;
  let row_ptr = Packed.create (n + 1) in
  let col = Packed.create (imax m 1) in
  let weight = if weighted then Packed.create (imax m 1) else Packed.empty in
  let next = ref 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let v = (y * width) + x in
      (* up-left, up, left, right, down, down-right *)
      let k = !next in
      let k =
        if x > 0 && y > 0 then
          put_arc ~weighted col weight k (v - width - 1) (Bytes.get_uint8 gw (v - width - 1))
        else k
      in
      let k =
        if y > 0 then put_arc ~weighted col weight k (v - width) (Bytes.get_uint8 dw (v - width))
        else k
      in
      let k =
        if x > 0 then put_arc ~weighted col weight k (v - 1) (Bytes.get_uint8 rw (v - 1)) else k
      in
      let k = put_arc ~weighted col weight k (v + 1) (Bytes.get_uint8 rw v) in
      let k = put_arc ~weighted col weight k (v + width) (Bytes.get_uint8 dw v) in
      next := put_arc ~weighted col weight k (v + width + 1) (Bytes.get_uint8 gw v);
      put row_ptr (v + 1) !next
    done
  done;
  { Csr.n; m; row_ptr; col; weight }

let road ~weighted ~seed ~width ~height =
  let rng = Rng.create seed in
  let n = width * height in
  Csr.require_fits ~who:"Generator.road" ~n ~m:0;
  let rw = Bytes.make n '\000' and dw = Bytes.make n '\000' and gw = Bytes.make n '\000' in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let v = (y * width) + x in
      (* Keep the leftmost column and bottom row intact so the grid stays
         connected even when other edges are dropped. *)
      if x + 1 < width && (y = 0 || not (Rng.chance rng 0.08)) then
        Bytes.set_uint8 rw v (Rng.int_in rng 1 10);
      if y + 1 < height && (x = 0 || not (Rng.chance rng 0.08)) then
        Bytes.set_uint8 dw v (Rng.int_in rng 1 10);
      if x + 1 < width && y + 1 < height && Rng.chance rng 0.05 then
        Bytes.set_uint8 gw v (Rng.int_in rng 2 14)
    done
  done;
  lattice ~who:"Generator.road" ~weighted ~width ~height rw dw gw

(* Paper-scale road-network stand-in: a full 2-D grid (degree <= 4,
   diameter width+height-2), so multi-million-node graphs materialize in
   O(n) words.  Weights are drawn once per undirected edge, keeping the
   graph symmetric like {!road}.  Unweighted, every edge is there and no
   weight is drawn. *)
let grid ~weighted ~seed ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Generator.grid: empty grid";
  let n = width * height in
  Csr.require_fits ~who:"Generator.grid" ~n
    ~m:(2 * ((height * (width - 1)) + (width * (height - 1))));
  let rng = Rng.create seed in
  let rw = Bytes.make n '\000' and dw = Bytes.make n '\000' in
  let draw () = if weighted then Rng.int_in rng 1 10 else 1 in
  (* every right edge in id order, then every down edge; a grid one
     vertex wide (high) still draws one right (down) weight *)
  for y = 0 to height - 1 do
    for x = 0 to width - 2 do
      Bytes.set_uint8 rw ((y * width) + x) (draw ())
    done
  done;
  if width = 1 then ignore (draw ());
  for v = 0 to n - width - 1 do
    Bytes.set_uint8 dw v (draw ())
  done;
  if height = 1 then ignore (draw ());
  lattice ~who:"Generator.grid" ~weighted ~width ~height rw dw (Bytes.make n '\000')

(* An open-addressing set of non-negative ints, sized for [cap]
   insertions at load <= 1/2: -1 marks an empty cell, probes are
   linear from a multiplicative hash. *)
let int_set cap =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * cap do
    incr bits
  done;
  Array.make (1 lsl !bits) (-1)

(* add [key] to [set]; false when it was already there *)
let int_set_add set key =
  let mask = Array.length set - 1 in
  let i = ref ((key * 0x4F1BBCDCBFA53E0B) lsr 31 land mask) in
  while set.(!i) >= 0 && set.(!i) <> key do
    i := (!i + 1) land mask
  done;
  if set.(!i) = key then false
  else begin
    set.(!i) <- key;
    true
  end

(* The random graphs: a spanning backbone (each vertex v > 0 joined to
   a random earlier vertex, guaranteeing connectivity), then [tries]
   candidate extra edges, each written by [sample us vs k] into cells
   [k] of [us] and [vs], self-loops dropped; weights 1-100.  Visiting
   the backbone newest first and then the extras newest first, the
   first occurrence of each unordered pair survives, and the first [m]
   survivors make the graph. *)
let backbone_plus rng ~n ~m ~tries sample =
  let nb = imax 0 (n - 1) in
  let cap = nb + imax 0 tries in
  let us = Array.make cap 0 and vs = Array.make cap 0 and ws = Array.make cap 0 in
  let k = ref 0 in
  for v = 1 to n - 1 do
    us.(!k) <- Rng.int rng v;
    vs.(!k) <- v;
    ws.(!k) <- Rng.int_in rng 1 100;
    incr k
  done;
  for _ = 1 to tries do
    sample us vs !k;
    if us.(!k) <> vs.(!k) then begin
      ws.(!k) <- Rng.int_in rng 1 100;
      incr k
    end
  done;
  let keep = imax 0 (imin m !k) in
  let su = Array.make keep 0 and sv = Array.make keep 0 and sw = Array.make keep 0 in
  let seen = int_set keep in
  let j = ref 0 in
  let visit i =
    let u = us.(i) and v = vs.(i) in
    if !j < keep && int_set_add seen ((imin u v * n) + imax u v) then begin
      su.(!j) <- u;
      sv.(!j) <- v;
      sw.(!j) <- ws.(i);
      incr j
    end
  in
  for i = nb - 1 downto 0 do
    visit i
  done;
  for i = !k - 1 downto nb do
    visit i
  done;
  let cut a = if !j = keep then a else Array.sub a 0 !j in
  Csr.of_arrays ~n (cut su) (cut sv) (cut sw)

let random ~seed ~n ~m =
  if m < n - 1 then invalid_arg "Generator.random: m < n - 1 cannot hold the spanning backbone";
  Csr.require_fits ~who:"Generator.random" ~n ~m:(2 * m);
  let rng = Rng.create seed in
  (* Oversample then dedup; good enough for sparse graphs. *)
  backbone_plus rng ~n ~m ~tries:(2 * imax 0 (m - imax 0 (n - 1))) (fun us vs k ->
      us.(k) <- Rng.int rng n;
      vs.(k) <- Rng.int rng n)

let rmat ~seed ~scale ~edge_factor =
  if edge_factor < 1 then invalid_arg "Generator.rmat: edge_factor < 1 cannot hold the spanning backbone";
  let rng = Rng.create seed in
  let n = 1 lsl scale in
  let target = edge_factor * n in
  Csr.require_fits ~who:"Generator.rmat" ~n ~m:(2 * target);
  let a = 0.57 and b = 0.19 and c = 0.19 in
  let sample us vs k =
    us.(k) <- 0;
    vs.(k) <- 0;
    for bit = scale - 1 downto 0 do
      let r = Rng.float rng 1.0 in
      if r < a then ()
      else if r < a +. b then vs.(k) <- vs.(k) lor (1 lsl bit)
      else if r < a +. b +. c then us.(k) <- us.(k) lor (1 lsl bit)
      else begin
        us.(k) <- us.(k) lor (1 lsl bit);
        vs.(k) <- vs.(k) lor (1 lsl bit)
      end
    done
  in
  backbone_plus rng ~n ~m:target ~tries:(2 * target) sample

let points ~seed ~n ~span =
  let rng = Rng.create seed in
  Array.init n (fun _ -> (Rng.float rng span, Rng.float rng span))
