(** Synthetic graph workload generators.

    The paper evaluates BFS/SSSP on the DIMACS USA road network and the
    other kernels on their original inputs.  These generators produce
    laptop-scale graphs with the structural properties that drive the
    published results (see DESIGN.md, substitution table).

    Every graph generator builds straight into {!Csr.t} arrays in
    O(n + m) words: no intermediate edge list and no comparison sort,
    and no garbage per vertex or edge: the lattices draw their weights
    into one byte per vertex and edge direction, then take a counting
    pass and one fill pass over them; the random graphs dedupe pairs in
    an int open-addressing set; and the {!Agp_util.Rng} draws allocate
    nothing.  Output is a pure function
    of the arguments, pinned bit for bit by [test/golden/graphs.txt].

    The lattices take [~weighted].  With [~weighted:false] they build
    the unweighted {!Csr} form ([weight = \[||\]]) for workloads that
    never read weights (BFS): no weight array is allocated or written,
    and [row_ptr] and [col] are bit-identical to the [~weighted:true]
    build of the same arguments. *)

val road : weighted:bool -> seed:int -> width:int -> height:int -> Csr.t
(** Planar road-network stand-in: a [width] x [height] grid where each
    node connects to its right/down neighbours, a fraction of diagonal
    shortcuts, and a small fraction of deleted edges (keeping the grid
    connected).  High diameter, degree 2-4, weights 1-10 — the regime in
    which level-synchronized BFS pays one round per level.  An edge's
    weight draw also decides whether it exists, so [~weighted:false]
    makes every draw [~weighted:true] makes, in the same order, and
    only skips storing the weights. *)

val grid : weighted:bool -> seed:int -> width:int -> height:int -> Csr.t
(** Paper-scale road-network stand-in: the full [width] x [height]
    grid (degree <= 4, diameter [width+height-2], symmetric weights
    1-10) assembled directly into CSR arrays — no intermediate edge
    list, so multi-million-node graphs build in O(n) words.  Used by
    the [large]/[huge] workload scales.  Every edge exists whatever the
    seed, so [~weighted:false] draws nothing. *)

val random : seed:int -> n:int -> m:int -> Csr.t
(** Erdős–Rényi-style multigraph-free random graph with at most [m]
    undirected edges (oversampled candidates are deduplicated, which can
    fall short) and weights 1-100.  The whole graph is always connected
    via a spanning backbone of [n - 1] edges.  Raises [Invalid_argument]
    when [m < n - 1], which could not hold the backbone. *)

val rmat : seed:int -> scale:int -> edge_factor:int -> Csr.t
(** R-MAT power-law graph with [2^scale] vertices and at most
    [edge_factor * 2^scale] undirected edges (a=0.57 b=0.19 c=0.19),
    connected via a spanning backbone; weights 1-100.  Raises
    [Invalid_argument] when [edge_factor < 1]. *)

val points : seed:int -> n:int -> span:float -> (float * float) array
(** [n] uniformly random 2-D points in [\[0,span\)]² for the DMR
    workload. *)
