(** SPEC-SSSP: speculative single-source shortest paths (Bellman-Ford
    worklist, Hassaan et al. PPoPP'11 style).

    Each [relax] task proposes a candidate distance for the head of one
    edge.  A rule broadcasts committing distances so dominated in-flight
    candidates squash themselves ("distance of committing vertices are
    broadcast to all running tasks to avoid data hazard", §6.1).

    Memory layout: ["row_ptr"], ["col"], ["weight"] (CSR) and ["dist"]
    initialized to {!Agp_graph.Sssp.unreachable}. *)

type workload = {
  graph : Agp_graph.Csr.t;
  root : int;
}

val workload_of_graph : Agp_graph.Csr.t -> int -> workload
(** @raise Invalid_argument on an unweighted graph
    ({!Agp_graph.Csr.weighted}). *)

val speculative : workload -> App_instance.t
(** @raise Invalid_argument on an unweighted graph. *)

val spec_speculative : Agp_core.Spec.t
