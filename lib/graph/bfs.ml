let infinity_level = max_int / 2

let levels (g : Csr.t) root =
  let level = Array.make g.n infinity_level in
  level.(root) <- 0;
  let q = Queue.create () in
  Queue.push root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.iter_neighbors g u (fun v _ ->
        if level.(v) = infinity_level then begin
          level.(v) <- level.(u) + 1;
          Queue.push v q
        end)
  done;
  level

let level_histogram levels =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      if l <> infinity_level then
        Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    levels;
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) tbl [] |> List.sort compare

let diameter_from g root =
  Array.fold_left
    (fun acc l -> if l <> infinity_level && l > acc then l else acc)
    0 (levels g root)

let check_levels (g : Csr.t) root given =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Array.length given <> g.n then err "level array has wrong length"
  else if given.(root) <> 0 then err "root level is %d, expected 0" given.(root)
  else begin
    let reference = levels g root in
    let rec check v =
      if v >= g.n then Ok ()
      else begin
        let lv = given.(v) in
        let reached_giv = lv <> infinity_level in
        if reference.(v) <> infinity_level <> reached_giv then
          err "vertex %d reachability mismatch" v
        else begin
          (* one pass over the arcs: every reached neighbour within one
             level, and one a level up *)
          let edge_ok = ref true and has_parent = ref false in
          Csr.iter_neighbors g v (fun dst _ ->
              let ld = given.(dst) in
              if ld <> infinity_level && reached_giv && abs (ld - lv) > 1 then edge_ok := false;
              if ld = lv - 1 then has_parent := true);
          if not !edge_ok then err "edge slack violated at vertex %d" v
          else if reached_giv && v <> root && not !has_parent then err "vertex %d has no parent" v
          else check (v + 1)
        end
      end
    in
    check 0
  end
