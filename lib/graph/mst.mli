(** Reference minimum spanning tree via Kruskal's algorithm — the
    sequential semantics that SPEC-MST speculates over. *)

type tree = {
  edges : (int * int * int) list;  (** chosen tree edges, in acceptance order *)
  weight : int;  (** total tree weight *)
  components : int;  (** connected components of the input (1 = spanning) *)
}

val sorted_edges : Csr.t -> (int * int * int) array
(** Undirected edge list sorted by (weight, src, dst) — the well-ordered
    task sequence of SPEC-MST. *)

val kruskal : Csr.t -> tree

val kruskal_sorted : Csr.t -> (int * int * int) array -> tree
(** [kruskal_sorted g edges]: {!kruskal} over [edges], which must be
    [sorted_edges g] (built once, e.g. per workload); no sort. *)

val check : ?reference:tree -> Csr.t -> tree -> (unit, string) result
(** Validates tree-ness (acyclic, right edge count) and weight optimality
    by comparing against [reference], by default a fresh Kruskal run
    (MST weight is unique even when the tree is not). *)
