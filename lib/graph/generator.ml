module Rng = Agp_util.Rng

(* CSR arrays of a [width] x [height] lattice from the weight of each
   vertex's edge to its right ([rw]), down ([dw]) and, when given,
   down-right ([diag]) neighbour; 0 = no edge.  Each edge is stored both
   ways, every adjacency in ascending target order, as Csr.of_edges
   would sort it. *)
let lattice ~width ~height ?diag rw dw =
  let n = width * height in
  let diag_at v = match diag with Some gw -> gw.(v) | None -> 0 in
  let row_ptr = Array.make (n + 1) 0 in
  let link u w d =
    if w > 0 then begin
      row_ptr.(u + 1) <- row_ptr.(u + 1) + 1;
      row_ptr.(u + d + 1) <- row_ptr.(u + d + 1) + 1
    end
  in
  for v = 0 to n - 1 do
    link v rw.(v) 1;
    link v dw.(v) width;
    link v (diag_at v) (width + 1)
  done;
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v + 1) + row_ptr.(v)
  done;
  let m = row_ptr.(n) in
  let col = Array.make (max m 1) 0 in
  let weight = Array.make (max m 1) 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let v = (y * width) + x in
      let slot = ref row_ptr.(v) in
      let put dst w =
        if w > 0 then begin
          col.(!slot) <- dst;
          weight.(!slot) <- w;
          incr slot
        end
      in
      (* up-left, up, left, right, down, down-right *)
      if x > 0 && y > 0 then put (v - width - 1) (diag_at (v - width - 1));
      if y > 0 then put (v - width) dw.(v - width);
      if x > 0 then put (v - 1) rw.(v - 1);
      put (v + 1) rw.(v);
      put (v + width) dw.(v);
      put (v + width + 1) (diag_at v)
    done
  done;
  { Csr.n; m; row_ptr; col; weight }

let road ~seed ~width ~height =
  let rng = Rng.create seed in
  let n = width * height in
  let rw = Array.make n 0 and dw = Array.make n 0 and gw = Array.make n 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let v = (y * width) + x in
      (* Keep the leftmost column and bottom row intact so the grid stays
         connected even when other edges are dropped. *)
      if x + 1 < width && (y = 0 || not (Rng.chance rng 0.08)) then rw.(v) <- Rng.int_in rng 1 10;
      if y + 1 < height && (x = 0 || not (Rng.chance rng 0.08)) then dw.(v) <- Rng.int_in rng 1 10;
      if x + 1 < width && y + 1 < height && Rng.chance rng 0.05 then gw.(v) <- Rng.int_in rng 2 14
    done
  done;
  lattice ~width ~height ~diag:gw rw dw

(* Paper-scale road-network stand-in: a full 2-D grid (degree <= 4,
   diameter width+height-2), so multi-million-node graphs materialize in
   O(n) words.  Weights are drawn once per undirected edge, keeping the
   graph symmetric like {!road}. *)
let grid ~seed ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Generator.grid: empty grid";
  let rng = Rng.create seed in
  let n = width * height in
  let draw () = Rng.int_in rng 1 10 in
  let rw = Array.make n 0 and dw = Array.make n 0 in
  (* every right edge in id order, then every down edge; a grid one
     vertex wide (high) still draws one right (down) weight *)
  for y = 0 to height - 1 do
    for x = 0 to width - 2 do
      rw.((y * width) + x) <- draw ()
    done
  done;
  if width = 1 then ignore (draw ());
  for v = 0 to n - width - 1 do
    dw.(v) <- draw ()
  done;
  if height = 1 then ignore (draw ());
  lattice ~width ~height rw dw

(* The random graphs: a spanning backbone (each vertex v > 0 joined to
   a random earlier vertex, guaranteeing connectivity), then [tries]
   candidate extra edges from [sample], self-loops dropped; weights
   1-100.  Visiting the backbone newest first and then the extras newest
   first, the first occurrence of each unordered pair survives, and the
   first [m] survivors make the graph. *)
let backbone_plus rng ~n ~m ~tries sample =
  let nb = max 0 (n - 1) in
  let cap = nb + max 0 tries in
  let us = Array.make cap 0 and vs = Array.make cap 0 and ws = Array.make cap 0 in
  let k = ref 0 in
  let push u v =
    us.(!k) <- u;
    vs.(!k) <- v;
    ws.(!k) <- Rng.int_in rng 1 100;
    incr k
  in
  for v = 1 to n - 1 do
    push (Rng.int rng v) v
  done;
  for _ = 1 to tries do
    let u, v = sample () in
    if u <> v then push u v
  done;
  let keep = max 0 (min m !k) in
  let su = Array.make keep 0 and sv = Array.make keep 0 and sw = Array.make keep 0 in
  let seen = Hashtbl.create (2 * keep) in
  let j = ref 0 in
  let visit i =
    let u = us.(i) and v = vs.(i) in
    let key = (min u v * n) + max u v in
    if !j < keep && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
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
  let rng = Rng.create seed in
  (* Oversample then dedup; good enough for sparse graphs. *)
  backbone_plus rng ~n ~m ~tries:(2 * max 0 (m - max 0 (n - 1))) (fun () ->
      let u = Rng.int rng n and v = Rng.int rng n in
      (u, v))

let rmat ~seed ~scale ~edge_factor =
  if edge_factor < 1 then invalid_arg "Generator.rmat: edge_factor < 1 cannot hold the spanning backbone";
  let rng = Rng.create seed in
  let n = 1 lsl scale in
  let target = edge_factor * n in
  let a = 0.57 and b = 0.19 and c = 0.19 in
  let sample () =
    let u = ref 0 and v = ref 0 in
    for bit = scale - 1 downto 0 do
      let r = Rng.float rng 1.0 in
      if r < a then ()
      else if r < a +. b then v := !v lor (1 lsl bit)
      else if r < a +. b +. c then u := !u lor (1 lsl bit)
      else begin
        u := !u lor (1 lsl bit);
        v := !v lor (1 lsl bit)
      end
    done;
    (!u, !v)
  in
  backbone_plus rng ~n ~m:target ~tries:(2 * target) sample

let points ~seed ~n ~span =
  let rng = Rng.create seed in
  Array.init n (fun _ -> (Rng.float rng span, Rng.float rng span))
