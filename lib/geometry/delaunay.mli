(** Incremental Bowyer–Watson Delaunay triangulation.

    The triangulation lives inside a snug axis-aligned bounding square
    (10% margin around the input cloud) whose four corners are real mesh
    vertices; refinement may insert points anywhere inside it, including
    on its boundary edges.  The cavity machinery (locate → in-circle
    region → star retriangulation) is exposed because Delaunay mesh
    refinement reuses it verbatim: a DMR task is exactly "insert the
    circumcenter of a bad triangle", and the cavity is the conflict
    footprint that SPEC-DMR's rules compare between concurrent tasks. *)

type t = {
  mesh : Mesh.t;
  enclosure : int list;  (** ids of the four bounding-square corner vertices *)
  domain : float * float * float * float;
      (** [(minx, miny, maxx, maxy)] bounding box of the input points —
          the refinable region *)
}

val triangulate : Mesh.point array -> t
(** Builds the Delaunay triangulation of the points inside the bounding
    square (corners get ids 0..3; input point [i] gets id [i+4]). *)

val locate : Mesh.t -> hint:int -> Mesh.point -> int option
(** Walk from the live triangle [hint] to a live triangle containing the
    point; [None] when the point escapes the hull. *)

val cavity_of : Mesh.t -> start:int -> Mesh.point -> int list
(** Connected region of live triangles whose circumcircles contain the
    point, grown from [start] (which must contain the point). *)

val insert_point : Mesh.t -> hint:int -> Mesh.point -> (int * int list * int list) option
(** [insert_point mesh ~hint p] inserts [p], returning
    [(point_id, killed_triangles, created_triangles)], or [None] when
    [p] lies outside the hull.  Points landing exactly on a hull edge
    split that edge. *)

val is_enclosure_vertex : t -> int -> bool

val in_domain : t -> Mesh.point -> bool
(** Point lies in the input-domain bounding box. *)

val inside_domain : t -> int -> bool
(** All three corners of the triangle lie in the input domain —
    the refinability condition for DMR (exempting the coarse fringe
    between domain and enclosure breaks the boundary cascade; combined
    with circumcenter-only insertion this makes refinement provably
    terminating by a minimum-spacing packing argument). *)

val delaunay_violations : t -> int
(** Number of live triangles whose circumcircle strictly contains some
    mesh vertex — 0 for a proper Delaunay triangulation. *)
