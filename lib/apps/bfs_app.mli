(** Breadth-first search in the task/rule abstraction — both aggressive
    parallelization strategies evaluated in the paper.

    - {b SPEC-BFS} (Kulkarni et al. / TLS style): [update] tasks guard
      their write to [level] with a speculative rule that squashes a
      task when an earlier task commits the same address; [visit] tasks
      carry a staleness guard so flooded duplicate work self-squashes.
    - {b COOR-BFS} (Leiserson & Schardl style): [visit] tasks wait at a
      rendezvous until the minimum-task broadcast carries their level —
      the level-synchronized schedule without barriers.

    Memory layout (Σ): ["row_ptr"], ["col"] (CSR) and ["level"]
    initialized to {!Agp_graph.Bfs.infinity_level}.  No weight is read,
    so a BFS workload's graph may be (and at every workload scale is)
    the unweighted {!Agp_graph.Csr} form. *)

type workload = {
  graph : Agp_graph.Csr.t;
  root : int;
}

val default_workload : seed:int -> workload
(** An unweighted road-network graph (40x25 grid), root 0. *)

val workload_of_graph : Agp_graph.Csr.t -> int -> workload

val speculative : workload -> App_instance.t
(** SPEC-BFS. *)

val coordinative : workload -> App_instance.t
(** COOR-BFS. *)

val spec_speculative : Agp_core.Spec.t
(** The specification alone (for compilation/synthesis tooling). *)

val spec_coordinative : Agp_core.Spec.t
