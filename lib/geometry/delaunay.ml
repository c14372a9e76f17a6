module P = Predicates

type t = {
  mesh : Mesh.t;
  enclosure : int list;
  domain : float * float * float * float;
}

let locate mesh ~hint p =
  let max_steps = 4 * (Mesh.num_triangle_slots mesh + 4) in
  let rec walk tri steps =
    if steps > max_steps then
      (* Degenerate walk (should not happen on generated inputs); fall
         back to a linear scan for robustness. *)
      List.find_opt (fun i -> Mesh.contains mesh i p) (Mesh.live_triangles mesh)
    else begin
      let a, b, c = Mesh.vertices mesh tri in
      let pa = Mesh.point mesh a and pb = Mesh.point mesh b and pc = Mesh.point mesh c in
      (* Edge opposite vertex 0 is (b, c), etc.; for a ccw triangle the
         point is inside iff it is on the left of every directed edge. *)
      let step_through k pa pb =
        if P.orient2d pa pb p < 0.0 then Some (Mesh.neighbor mesh tri k) else None
      in
      let next =
        match step_through 2 pa pb with
        | Some n -> Some n
        | None -> begin
            match step_through 0 pb pc with
            | Some n -> Some n
            | None -> step_through 1 pc pa
          end
      in
      match next with
      | None -> Some tri
      | Some -1 -> None
      | Some n -> walk n (steps + 1)
    end
  in
  walk hint 0

let cavity_of mesh ~start p =
  let seen = Hashtbl.create 16 in
  let cavity = ref [] in
  let rec grow tri =
    if tri >= 0 && (not (Hashtbl.mem seen tri)) && Mesh.alive mesh tri then begin
      Hashtbl.add seen tri ();
      if Mesh.in_circumcircle mesh tri p then begin
        cavity := tri :: !cavity;
        for k = 0 to 2 do
          grow (Mesh.neighbor mesh tri k)
        done
      end
    end
  in
  grow start;
  (* [start] contains p, hence p is inside (or on) its circumcircle, so
     start is always part of its own cavity. *)
  !cavity

let insert_into mesh cavity p =
      let in_cavity = Hashtbl.create 16 in
      List.iter (fun t -> Hashtbl.add in_cavity t ()) cavity;
      (* Boundary edges of the cavity, with the external neighbour (or -1). *)
      let boundary = ref [] in
      List.iter
        (fun tri ->
          let a, b, c = Mesh.vertices mesh tri in
          let edge k =
            match k with
            | 0 -> (b, c)
            | 1 -> (c, a)
            | _ -> (a, b)
          in
          for k = 0 to 2 do
            let n = Mesh.neighbor mesh tri k in
            if n = -1 || not (Hashtbl.mem in_cavity n) then boundary := (edge k, n) :: !boundary
          done)
        cavity;
      List.iter (Mesh.kill mesh) cavity;
      let pid = Mesh.add_point mesh p in
      (* A point landing exactly on a hull edge is collinear with that
         boundary edge; skip the degenerate triangle (the edge splits in
         two and both halves stay on the hull). *)
      let non_degenerate ((a, b), _) =
        P.orient2d (Mesh.point mesh a) (Mesh.point mesh b) p <> 0.0
      in
      let usable = List.filter non_degenerate !boundary in
      let created = List.map (fun ((a, b), ext) -> (Mesh.add_triangle mesh pid a b, ext)) usable in
      (* External links. *)
      List.iter (fun (nt, ext) -> if ext >= 0 then Mesh.link mesh nt ext) created;
      (* Internal links: two new triangles share the spoke edge (pid, v)
         exactly when they both have boundary vertex v. *)
      let by_vertex = Hashtbl.create 16 in
      List.iter
        (fun (nt, _) ->
          let a, b, c = Mesh.vertices mesh nt in
          List.iter (fun v -> if v <> pid then Hashtbl.add by_vertex v nt) [ a; b; c ])
        created;
      let linked = Hashtbl.create 16 in
      Hashtbl.iter
        (fun v _ ->
          if not (Hashtbl.mem linked v) then begin
            Hashtbl.add linked v ();
            match Hashtbl.find_all by_vertex v with
            | [ t1; t2 ] -> Mesh.link mesh t1 t2
            | _ -> ()
          end)
        by_vertex;
      Some (pid, cavity, List.map fst created)

let insert_point mesh ~hint p =
  let px, py = p in
  if not (Float.is_finite px && Float.is_finite py) then None
  else
    match locate mesh ~hint p with
    | None -> None
    | Some start -> begin
        match cavity_of mesh ~start p with
        | [] ->
            (* An epsilon-filtered in-circle test rejected even the
               containing triangle (degenerate insertion point); refuse
               to mutate the mesh. *)
            None
        | cavity -> insert_into mesh cavity p
      end

let triangulate pts =
  (* Generous bounding square (10x the input span): refinement
     circumcenters essentially never escape it, and triangles with a
     vertex outside the input domain are exempt from refinement (see
     Refinement), so the fringe between domain and enclosure stays
     coarse. *)
  let xs = Array.map fst pts and ys = Array.map snd pts in
  let minx = Array.fold_left min infinity xs and maxx = Array.fold_left max neg_infinity xs in
  let miny = Array.fold_left min infinity ys and maxy = Array.fold_left max neg_infinity ys in
  let dx = Float.max (maxx -. minx) 1.0 and dy = Float.max (maxy -. miny) 1.0 in
  let margin = 10.0 *. Float.max dx dy in
  let x0 = minx -. margin and x1 = maxx +. margin in
  let y0 = miny -. margin and y1 = maxy +. margin in
  let mesh = Mesh.create [| (x0, y0); (x1, y0); (x1, y1); (x0, y1) |] in
  let t0 = Mesh.add_triangle mesh 0 1 2 in
  let t1 = Mesh.add_triangle mesh 0 2 3 in
  Mesh.link mesh t0 t1;
  let hint = ref t0 in
  Array.iter
    (fun p ->
      match insert_point mesh ~hint:!hint p with
      | Some (_, _, created) -> begin
          match created with
          | t :: _ -> hint := t
          | [] -> ()
        end
      | None ->
          (* Impossible: the bounding square encloses every input point. *)
          assert false)
    pts;
  { mesh; enclosure = [ 0; 1; 2; 3 ]; domain = (minx, miny, maxx, maxy) }

let is_enclosure_vertex t v = List.mem v t.enclosure

let in_domain t (x, y) =
  let minx, miny, maxx, maxy = t.domain in
  x >= minx && x <= maxx && y >= miny && y <= maxy

let inside_domain t tri =
  let a, b, c = Mesh.vertices t.mesh tri in
  in_domain t (Mesh.point t.mesh a)
  && in_domain t (Mesh.point t.mesh b)
  && in_domain t (Mesh.point t.mesh c)

let delaunay_violations t =
  let mesh = t.mesh in
  let live = Mesh.live_triangles mesh in
  let count = ref 0 in
  List.iter
    (fun tri ->
      let a, b, c = Mesh.vertices mesh tri in
      let bad = ref false in
      for v = 0 to Mesh.num_points mesh - 1 do
        if v <> a && v <> b && v <> c && Mesh.in_circumcircle mesh tri (Mesh.point mesh v) then
          bad := true
      done;
      if !bad then incr count)
    live;
  !count
