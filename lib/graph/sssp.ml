module Heap = Agp_util.Heap

let unreachable = max_int / 2

let dijkstra (g : Csr.t) root =
  let dist = Array.make g.n unreachable in
  dist.(root) <- 0;
  let heap = Heap.create (fun (d1, _) (d2, _) -> compare d1 d2) in
  Heap.push heap (0, root);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d = dist.(u) then
          Csr.iter_neighbors g u (fun v w ->
              let nd = d + w in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                Heap.push heap (nd, v)
              end);
        loop ()
  in
  loop ();
  dist

let bellman_ford (g : Csr.t) root =
  let dist = Array.make g.n unreachable in
  dist.(root) <- 0;
  let q = Queue.create () in
  let in_queue = Array.make g.n false in
  Queue.push root q;
  in_queue.(root) <- true;
  let tasks = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    in_queue.(u) <- false;
    incr tasks;
    Csr.iter_neighbors g u (fun v w ->
        let nd = dist.(u) + w in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          if not in_queue.(v) then begin
            in_queue.(v) <- true;
            Queue.push v q
          end
        end)
  done;
  (dist, !tasks)

let check_distances (g : Csr.t) root d =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length d <> g.n then err "distance array has wrong length"
  else if d.(root) <> 0 then err "root distance is %d" d.(root)
  else begin
    let rec check v =
      if v >= g.n then Ok ()
      else begin
        (* one pass over the arcs: every one relaxed, and one tight.  The
           graph is symmetric, so an incoming tight edge appears as an
           outgoing edge of [v]. *)
        let dv = d.(v) in
        let relaxed = ref true and tight = ref false in
        Csr.iter_neighbors g v (fun dst w ->
            let dd = d.(dst) in
            if dv <> unreachable && dd > dv + w then relaxed := false;
            if dd <> unreachable && dd + w = dv then tight := true);
        if not !relaxed then err "edge out of vertex %d not relaxed" v
        else if v <> root && dv <> unreachable && not !tight then
          err "vertex %d has no tight predecessor" v
        else check (v + 1)
      end
    in
    check 0
  end
