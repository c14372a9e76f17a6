(** SPEC-MST: speculative Kruskal minimum spanning tree (Blelloch
    et al. PPoPP'12 style).

    Edges are sorted by weight host-side; each [addedge] task finds the
    component roots of its endpoints (a metered pointer chase through
    the union-find arrays) and commits the union in strict weight order
    ([Min_uncommitted] scope).  A rule squashes-and-retries any later
    edge whose endpoint overlaps a committing earlier edge, exactly the
    abort condition of §6.1.

    Memory layout: ["ea"], ["eb"], ["ew"] (sorted endpoints/weights),
    ["uf_parent"] (union-find forest read by the find prim) and
    ["mst_flag"] (1 marks a chosen edge). *)

type workload = { graph : Agp_graph.Csr.t }

val workload_of_graph : Agp_graph.Csr.t -> workload
(** @raise Invalid_argument on an unweighted graph
    ({!Agp_graph.Csr.weighted}). *)

val speculative : workload -> App_instance.t
(** @raise Invalid_argument on an unweighted graph. *)

val spec_speculative : Agp_core.Spec.t
