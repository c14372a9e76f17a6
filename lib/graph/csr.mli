(** Compressed sparse row graphs.

    The canonical in-memory graph layout for all graph workloads: a
    vertex-indexed offset array into packed adjacency and weight arrays.
    This is also exactly the layout the accelerator models read through
    the simulated memory system, so the same arrays back both the
    software references and the hardware simulation. *)

type t = {
  n : int;  (** number of vertices *)
  m : int;  (** number of directed edges stored *)
  row_ptr : int array;  (** length [n+1]; edges of [v] are [row_ptr.(v) .. row_ptr.(v+1)-1] *)
  col : int array;  (** length [m]; target vertex per edge slot *)
  weight : int array;
      (** positive edge weights, one per edge slot (at least [m] long), or
          [\[||\]] for an unweighted graph *)
}

val of_edges : ?directed:bool -> n:int -> (int * int * int) list -> t
(** [of_edges ~n edges] builds a graph over vertices [0..n-1] from
    [(src, dst, weight)] triples.  When [directed] is [false] (default)
    each edge is stored in both directions.  Each adjacency is sorted
    by (target, weight).  Raises [Invalid_argument] on a vertex outside
    [0..n-1]. *)

val of_arrays : ?directed:bool -> n:int -> int array -> int array -> int array -> t
(** [of_arrays ~n src dst weight] is {!of_edges} over the triples
    [(src.(i), dst.(i), weight.(i))], built in O(n + m) words.  Raises
    [Invalid_argument] when the arrays differ in length. *)

val weighted : t -> bool
(** False for the unweighted form ([weight = \[||\]]).  Code that needs
    real weights (SSSP, MST) rejects an unweighted graph with this. *)

val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g v f] calls [f dst weight] for every out-edge
    ([weight] is 1 on an unweighted graph, as in every reader below). *)

val fold_neighbors : t -> int -> ('acc -> int -> int -> 'acc) -> 'acc -> 'acc

val edges : t -> (int * int * int) list
(** All stored directed edges as [(src, dst, weight)]. *)

val undirected_edges : t -> (int * int * int) list
(** One triple per undirected edge (keeps [src <= dst]). *)

val max_degree : t -> int

val total_weight : t -> int
(** Sum of stored directed edge weights ([m] when unweighted). *)

val is_symmetric : t -> bool
(** True when every stored edge has a reverse of equal weight. *)

val validate : t -> (unit, string) result
(** Structural invariants: monotone offsets, in-range targets, and a
    weight column that is either empty (unweighted) or holds [m]
    positive weights. *)
