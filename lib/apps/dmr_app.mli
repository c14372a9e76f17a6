(** SPEC-DMR: speculative Delaunay mesh refinement (Kulkarni et al.
    PLDI'07 style).

    Each [refine] task re-checks that its triangle is still alive and
    bad, computes the cavity its circumcenter insertion would
    retriangulate, and publishes that cavity as a bounded signature
    (a 16-entry CAM word, the problem-specific comparator template of
    §5.2).  A rule squashes-and-retries a task when an earlier
    concurrent task commits an overlapping cavity; the commit itself is
    an atomic validate-and-retriangulate kernel, so even missed events
    degrade to a retry, never to a corrupt mesh.

    Unlike the graph kernels, the rule uses the [Min_waiting] liveness
    scope: refinement order is irrelevant to correctness (any maximal
    refinement is acceptable), so out-of-order commits are embraced.

    Memory layout: ["spawn"] (queue of triangle ids; task payloads are
    spawn slots) plus synthetic ["tri_data"] addresses touched by the
    mesh kernels. *)

type workload = {
  points : (float * float) array;
}

val workload_of_points : (float * float) array -> workload

val cavity_signature_width : int
(** Entries in the broadcast cavity signature (16). *)

val speculative : workload -> App_instance.t

val spec_speculative : Agp_core.Spec.t
