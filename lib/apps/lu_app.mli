(** COOR-LU: coordinative blocked sparse LU factorization (Hassaan
    et al. ASPLOS'15 kinetic-dependence-graph style, over the BOTS
    sparselu kernel).

    All block tasks are pushed host-side in the sequential (k-major)
    order.  Each task's rule is a {e countdown}: it decrements on every
    [block_done] broadcast from an earlier task writing one of the
    blocks this task reads, and releases the task when the count
    reaches zero — out-of-order commits whenever dependences allow,
    with the minimum-task otherwise path guaranteeing liveness.  The
    expected counts come from the symbolic factorization (the
    scoreboard of Fig. 8).

    Payload layout (arity 13):
    [kind; k; i; j; rank; r0i; r0j; r1i; r1j; r2i; r2j; wi; wj]
    where kind is 0=lu0 1=fwd 2=bdiv 3=bmod, (rXi, rXj) are read
    blocks padded with -1, and (wi, wj) is the written block. *)

type workload = {
  matrix : Agp_sparse.Block_matrix.t;
}

val sized_workload : seed:int -> nb:int -> bs:int -> density:float -> workload

val coordinative : workload -> App_instance.t

val spec_coordinative : Agp_core.Spec.t
