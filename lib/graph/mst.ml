module Union_find = Agp_util.Union_find

type tree = {
  edges : (int * int * int) list;
  weight : int;
  components : int;
}

(* (weight, src, dst) order on int fields: no polymorphic compare, no
   tuple built per comparison *)
let edge_order ((u1, v1, w1) : int * int * int) ((u2, v2, w2) : int * int * int) =
  if w1 <> w2 then if w1 < w2 then -1 else 1
  else if u1 <> u2 then if u1 < u2 then -1 else 1
  else if v1 < v2 then -1
  else if v1 > v2 then 1
  else 0

(* the stored edges with [src <= dst], in adjacency order (unit
   weights when the graph is unweighted, as {!Csr.edges} reads them) *)
let undirected_array (g : Csr.t) =
  let k = ref 0 in
  for u = 0 to g.n - 1 do
    Csr.iter_neighbors g u (fun v _ -> if u <= v then incr k)
  done;
  let arr = Array.make !k (0, 0, 0) in
  k := 0;
  for u = 0 to g.n - 1 do
    Csr.iter_neighbors g u (fun v w ->
        if u <= v then begin
          arr.(!k) <- (u, v, w);
          incr k
        end)
  done;
  arr

let sorted_edges g =
  let arr = undirected_array g in
  Array.sort edge_order arr;
  arr

let kruskal_sorted (g : Csr.t) edges =
  let uf = Union_find.create g.n in
  let chosen = ref [] in
  let weight = ref 0 in
  Array.iter
    (fun (u, v, w) ->
      if Union_find.union uf u v then begin
        chosen := (u, v, w) :: !chosen;
        weight := !weight + w
      end)
    edges;
  { edges = List.rev !chosen; weight = !weight; components = Union_find.count_sets uf }

let kruskal g = kruskal_sorted g (sorted_edges g)

let check ?reference (g : Csr.t) r =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let uf = Union_find.create g.n in
  let rec add = function
    | [] -> Ok ()
    | (u, v, _) :: rest ->
        if Union_find.union uf u v then add rest else err "cycle through edge %d-%d" u v
  in
  match add r.edges with
  | Error _ as e -> e
  | Ok () ->
      let reference = match reference with Some t -> t | None -> kruskal g in
      if List.length r.edges <> List.length reference.edges then
        err "tree has %d edges, expected %d" (List.length r.edges) (List.length reference.edges)
      else if r.weight <> reference.weight then
        err "tree weight %d, optimal is %d" r.weight reference.weight
      else if Union_find.count_sets uf <> reference.components then
        err "component count mismatch"
      else Ok ()
