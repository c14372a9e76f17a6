(* Unit and property tests for the graph substrate. *)

open Agp_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let ok_result = Alcotest.result Alcotest.unit Alcotest.string

let triangle_graph () = Csr.of_edges ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 5) ]

(* The 6-vertex example graph of the paper's Figure 2(a): a small tree
   with a cross edge, reused by the schedule-diagram experiment. *)
let figure2_graph () =
  Csr.of_edges ~n:6 [ (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 4, 1); (3, 5, 1); (2, 3, 1) ]

(* --- Csr --- *)

let test_csr_shape () =
  let g = triangle_graph () in
  check Alcotest.int "n" 3 g.Csr.n;
  check Alcotest.int "m (undirected doubles)" 6 g.Csr.m;
  check Alcotest.int "degree 0" 2 (Csr.degree g 0);
  check Alcotest.int "max degree" 2 (Csr.max_degree g)

let test_csr_neighbors_sorted () =
  let g = figure2_graph () in
  let ns = Csr.fold_neighbors g 2 (fun acc dst _ -> dst :: acc) [] |> List.rev in
  check (Alcotest.list Alcotest.int) "sorted neighbors" [ 0; 3; 4 ] ns

let test_csr_directed () =
  let g = Csr.of_edges ~directed:true ~n:3 [ (0, 1, 7) ] in
  check Alcotest.int "one arc" 1 g.Csr.m;
  check Alcotest.int "deg 1 is 0" 0 (Csr.degree g 1)

let test_csr_symmetric () =
  check Alcotest.bool "undirected symmetric" true (Csr.is_symmetric (figure2_graph ()));
  let d = Csr.of_edges ~directed:true ~n:2 [ (0, 1, 1) ] in
  check Alcotest.bool "directed asymmetric" false (Csr.is_symmetric d)

let test_csr_validate () =
  check ok_result "valid graph" (Ok ()) (Csr.validate (figure2_graph ()));
  let broken = { (triangle_graph ()) with Csr.m = 5 } in
  check Alcotest.bool "broken rejected" true (Result.is_error (Csr.validate broken))

(* the unweighted form of a graph: same arcs, no weight column *)
let unweighted (g : Csr.t) = { g with Csr.weight = [||] }

let test_csr_unweighted_reads_unit () =
  let g = triangle_graph () in
  let u = unweighted g in
  check Alcotest.bool "weighted" true (Csr.weighted g);
  check Alcotest.bool "unweighted" false (Csr.weighted u);
  check ok_result "validate accepts the empty column" (Ok ()) (Csr.validate u);
  let unit = List.map (fun (s, d, _) -> (s, d, 1)) in
  let triple = Alcotest.(list (triple int int int)) in
  check triple "edges" (unit (Csr.edges g)) (Csr.edges u);
  check triple "undirected edges" (unit (Csr.undirected_edges g)) (Csr.undirected_edges u);
  let adj g = Csr.fold_neighbors g 0 (fun acc d w -> (d, w) :: acc) [] in
  check Alcotest.(list (pair int int)) "fold_neighbors" [ (2, 1); (1, 1) ] (adj u);
  let seen = ref [] in
  Csr.iter_neighbors u 2 (fun d w -> seen := (d, w) :: !seen);
  check Alcotest.(list (pair int int)) "iter_neighbors" [ (1, 1); (0, 1) ] !seen;
  check Alcotest.int "total weight counts arcs" g.Csr.m (Csr.total_weight u);
  check Alcotest.int "weighted total" 14 (Csr.total_weight g);
  check Alcotest.bool "symmetric" true (Csr.is_symmetric u);
  check Alcotest.bool "directed unweighted asymmetric" false
    (Csr.is_symmetric (unweighted (Csr.of_edges ~directed:true ~n:2 [ (0, 1, 1) ])));
  (* unit weights make every spanning tree minimal: n - 1 edges *)
  check Alcotest.int "mst weight" 2 (Mst.kruskal u).Mst.weight;
  check Alcotest.bool "short weight column rejected" true
    (Result.is_error (Csr.validate { g with Csr.weight = [| 1 |] }))

let test_csr_out_of_range () =
  Alcotest.check_raises "oob edge" (Invalid_argument "Csr.of_edges: vertex out of range")
    (fun () -> ignore (Csr.of_edges ~n:2 [ (0, 5, 1) ]))

let test_csr_undirected_edges () =
  let g = triangle_graph () in
  check Alcotest.int "3 undirected edges" 3 (List.length (Csr.undirected_edges g))

(* The list-and-sort CSR construction the builder replaced, kept as the
   oracle for {!Csr.of_edges}: double undirected edges, bucket by
   source, sort each adjacency by (target, weight). *)
let oracle_of_edges ?(directed = false) ~n edges =
  let all =
    if directed then edges
    else List.concat_map (fun (u, v, w) -> [ (u, v, w); (v, u, w) ]) edges
  in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Csr.of_edges: vertex out of range";
      deg.(u) <- deg.(u) + 1)
    all;
  let row_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row_ptr.(v + 1) <- row_ptr.(v) + deg.(v)
  done;
  let m = row_ptr.(n) in
  let col = Array.make (max m 1) 0 in
  let weight = Array.make (max m 1) 0 in
  let cursor = Array.copy row_ptr in
  List.iter
    (fun (u, v, w) ->
      let slot = cursor.(u) in
      col.(slot) <- v;
      weight.(slot) <- w;
      cursor.(u) <- slot + 1)
    all;
  for v = 0 to n - 1 do
    let lo = row_ptr.(v) and hi = row_ptr.(v + 1) in
    let slice = Array.init (hi - lo) (fun i -> (col.(lo + i), weight.(lo + i))) in
    Array.sort compare slice;
    Array.iteri
      (fun i (c, w) ->
        col.(lo + i) <- c;
        weight.(lo + i) <- w)
      slice
  done;
  { Csr.n; m; row_ptr; col; weight }

(* Random edge lists over a few vertices, so repeated pairs are common;
   every non-empty list also gets a self-loop and a repeat of its first
   pair under a different weight. *)
let edge_list_case =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 10 in
      let* directed = bool in
      let* es = list_size (int_range 0 40) (triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 6)) in
      let* loop = int_bound (n - 1) in
      let extra =
        match es with
        | [] -> []
        | (u, v, w) :: _ -> [ (loop, loop, w); (u, v, w + 1) ]
      in
      return (n, directed, es @ extra))
  in
  QCheck.make
    ~print:(fun (n, directed, es) ->
      Printf.sprintf "n=%d directed=%b [%s]" n directed
        (String.concat "; " (List.map (fun (u, v, w) -> Printf.sprintf "(%d,%d,%d)" u v w) es)))
    gen

let prop_of_edges_matches_oracle =
  QCheck.Test.make ~name:"of_edges equals the list-and-sort oracle" ~count:500 edge_list_case
    (fun (n, directed, es) -> Csr.of_edges ~directed ~n es = oracle_of_edges ~directed ~n es)

let test_csr_of_arrays () =
  let es = [ (0, 2, 4); (2, 1, 3); (1, 1, 2); (0, 2, 1) ] in
  let arr f = Array.of_list (List.map f es) in
  let src = arr (fun (u, _, _) -> u) and dst = arr (fun (_, v, _) -> v) and w = arr (fun (_, _, w) -> w) in
  check Alcotest.bool "same graph as of_edges" true (Csr.of_arrays ~n:3 src dst w = Csr.of_edges ~n:3 es);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Csr.of_arrays: length mismatch")
    (fun () -> ignore (Csr.of_arrays ~n:3 src dst [| 1 |]))

(* --- generators --- *)

(* cwd is _build/default/test under dune runtest; the repo root when
   launched by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let csr_digest (g : Csr.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun a ->
      Array.iter
        (fun x ->
          Buffer.add_string b (string_of_int x);
          Buffer.add_char b ' ')
        a;
      Buffer.add_char b '\n')
    [ g.row_ptr; g.col; g.weight ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the other generators that draw from Rng: floats in hex, so the
   digest is bit-exact *)
let floats_digest (xs : float list) =
  Digest.to_hex (Digest.string (String.concat " " (List.map (Printf.sprintf "%h") xs)))

let points_digest ps = floats_digest (List.concat_map (fun (x, y) -> [ x; y ]) (Array.to_list ps))

(* an absent block renders as nan, which no present block holds *)
let blocks_digest (m : Agp_sparse.Block_matrix.t) =
  floats_digest
    (List.concat_map
       (function None -> [ Float.nan ] | Some b -> Array.to_list b)
       (Array.to_list m.Agp_sparse.Block_matrix.blocks))

(* the rows of golden/graphs.txt: [(line, kind, a, b, seed, md5)] *)
let golden_graph_rows () =
  match golden_file "graphs.txt" with
  | None -> Alcotest.fail "golden/graphs.txt not found"
  | Some path ->
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.map (fun l ->
             match String.split_on_char ' ' l with
             | [ kind; a; b; seed; md5 ] ->
                 (l, kind, int_of_string a, int_of_string b, int_of_string seed, md5)
             | _ -> Alcotest.failf "malformed graph digest line %S" l)

(* golden/graphs.txt pins every generator's output bit for bit *)
let test_generator_digests () =
  List.iter
    (fun (l, kind, a, b, seed, md5) ->
      let got =
        match kind with
        | "road" -> csr_digest (Generator.road ~weighted:true ~seed ~width:a ~height:b)
        | "grid" -> csr_digest (Generator.grid ~weighted:true ~seed ~width:a ~height:b)
        | "random" -> csr_digest (Generator.random ~seed ~n:a ~m:b)
        | "rmat" -> csr_digest (Generator.rmat ~seed ~scale:a ~edge_factor:b)
        | "points" -> points_digest (Generator.points ~seed ~n:a ~span:(float_of_int b))
        | "lu" ->
            blocks_digest (Agp_sparse.Block_matrix.random_sparse ~seed ~nb:a ~bs:b ~density:0.3)
        | _ -> Alcotest.failf "unknown generator in %S" l
      in
      check Alcotest.string l md5 got)
    (golden_graph_rows ())

(* every pinned lattice, built unweighted: the same row_ptr and col,
   and no weight column *)
let test_unweighted_lattices_match () =
  let ints = Alcotest.(array int) in
  List.iter
    (fun (l, kind, a, b, seed, _) ->
      let build =
        match kind with
        | "road" -> Some (fun weighted -> Generator.road ~weighted ~seed ~width:a ~height:b)
        | "grid" -> Some (fun weighted -> Generator.grid ~weighted ~seed ~width:a ~height:b)
        | _ -> None
      in
      Option.iter
        (fun build ->
          let w = build true and u = build false in
          check Alcotest.int (l ^ " m") w.Csr.m u.Csr.m;
          check ints (l ^ " row_ptr") w.Csr.row_ptr u.Csr.row_ptr;
          check ints (l ^ " col") w.Csr.col u.Csr.col;
          check ints (l ^ " weight") [||] u.Csr.weight;
          check ok_result (l ^ " valid") (Ok ()) (Csr.validate u))
        build)
    (golden_graph_rows ())

let test_backbone_kept_or_rejected () =
  Alcotest.check_raises "random m < n - 1"
    (Invalid_argument "Generator.random: m < n - 1 cannot hold the spanning backbone")
    (fun () -> ignore (Generator.random ~seed:1 ~n:50 ~m:48));
  Alcotest.check_raises "rmat edge_factor < 1"
    (Invalid_argument "Generator.rmat: edge_factor < 1 cannot hold the spanning backbone")
    (fun () -> ignore (Generator.rmat ~seed:1 ~scale:5 ~edge_factor:0));
  (* at the bound the backbone is the whole graph *)
  let g = Generator.random ~seed:1 ~n:50 ~m:49 in
  check Alcotest.int "a spanning tree" 49 (List.length (Csr.undirected_edges g));
  Array.iter
    (fun l -> if l = Bfs.infinity_level then Alcotest.fail "tree not spanning")
    (Bfs.levels g 0)

let test_road_connected () =
  let g = Generator.road ~weighted:true ~seed:1 ~width:20 ~height:15 in
  check ok_result "valid" (Ok ()) (Csr.validate g);
  let lv = Bfs.levels g 0 in
  Array.iteri
    (fun v l -> if l = Bfs.infinity_level then Alcotest.failf "vertex %d unreachable" v)
    lv

let test_road_high_diameter () =
  let g = Generator.road ~weighted:true ~seed:2 ~width:40 ~height:40 in
  let d = Bfs.diameter_from g 0 in
  check Alcotest.bool "diameter at least width" true (d >= 40)

let test_road_low_degree () =
  let g = Generator.road ~weighted:true ~seed:3 ~width:30 ~height:30 in
  check Alcotest.bool "road degree small" true (Csr.max_degree g <= 8)

let test_random_connected () =
  let g = Generator.random ~seed:4 ~n:200 ~m:500 in
  check ok_result "valid" (Ok ()) (Csr.validate g);
  let lv = Bfs.levels g 0 in
  Array.iter (fun l -> if l = Bfs.infinity_level then Alcotest.fail "unreachable") lv

let test_rmat_skewed () =
  let g = Generator.rmat ~seed:5 ~scale:9 ~edge_factor:8 in
  check ok_result "valid" (Ok ()) (Csr.validate g);
  (* Power-law-ish: max degree far above average. *)
  let avg = float_of_int g.Csr.m /. float_of_int g.Csr.n in
  check Alcotest.bool "skewed degrees" true (float_of_int (Csr.max_degree g) > 4.0 *. avg)

let prop_generators_deterministic =
  QCheck.Test.make ~name:"generators deterministic per seed" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let a = Generator.random ~seed ~n:50 ~m:120 in
      let b = Generator.random ~seed ~n:50 ~m:120 in
      Csr.edges a = Csr.edges b)

(* --- bfs --- *)

let test_bfs_figure2 () =
  let g = figure2_graph () in
  let lv = Bfs.levels g 0 in
  check (Alcotest.array Alcotest.int) "levels" [| 0; 1; 1; 2; 2; 3 |] lv

let test_bfs_unreachable () =
  let g = Csr.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  let lv = Bfs.levels g 0 in
  check Alcotest.int "reached" 1 lv.(1);
  check Alcotest.int "unreached" Bfs.infinity_level lv.(2)

let test_bfs_histogram () =
  let g = figure2_graph () in
  let h = Bfs.level_histogram (Bfs.levels g 0) in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "histogram"
    [ (0, 1); (1, 2); (2, 2); (3, 1) ]
    h

let test_bfs_check_accepts_reference () =
  let g = Generator.road ~weighted:true ~seed:7 ~width:12 ~height:9 in
  check ok_result "reference accepted" (Ok ()) (Bfs.check_levels g 0 (Bfs.levels g 0))

let test_bfs_check_rejects_wrong () =
  let g = figure2_graph () in
  let lv = Bfs.levels g 0 in
  lv.(5) <- 1;
  check Alcotest.bool "rejects corrupted" true (Result.is_error (Bfs.check_levels g 0 lv))

let prop_bfs_levels_edge_slack =
  QCheck.Test.make ~name:"bfs adjacent levels differ by <=1" ~count:50
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = Generator.random ~seed ~n:60 ~m:150 in
      let lv = Bfs.levels g 0 in
      List.for_all (fun (u, v, _) -> abs (lv.(u) - lv.(v)) <= 1) (Csr.edges g))

(* --- sssp --- *)

let test_dijkstra_triangle () =
  let g = triangle_graph () in
  let d = Sssp.dijkstra g 0 in
  check (Alcotest.array Alcotest.int) "distances" [| 0; 1; 2 |] d

let test_bellman_ford_matches_dijkstra () =
  let g = Generator.random ~seed:8 ~n:120 ~m:400 in
  let d1 = Sssp.dijkstra g 0 in
  let d2, tasks = Sssp.bellman_ford g 0 in
  check (Alcotest.array Alcotest.int) "same distances" d1 d2;
  check Alcotest.bool "worklist did work" true (tasks >= g.Csr.n)

let test_sssp_check_accepts () =
  let g = Generator.road ~weighted:true ~seed:9 ~width:10 ~height:10 in
  check ok_result "certificate ok" (Ok ()) (Sssp.check_distances g 0 (Sssp.dijkstra g 0))

let test_sssp_check_rejects () =
  let g = triangle_graph () in
  let d = Sssp.dijkstra g 0 in
  d.(2) <- 7;
  check Alcotest.bool "rejects" true (Result.is_error (Sssp.check_distances g 0 d))

let prop_sssp_dijkstra_bellman_agree =
  QCheck.Test.make ~name:"dijkstra and bellman-ford agree" ~count:30
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = Generator.random ~seed ~n:50 ~m:130 in
      Sssp.dijkstra g 0 = fst (Sssp.bellman_ford g 0))

(* --- mst --- *)

let test_mst_triangle () =
  let r = Mst.kruskal (triangle_graph ()) in
  check Alcotest.int "weight" 2 r.Mst.weight;
  check Alcotest.int "edges" 2 (List.length r.Mst.edges);
  check Alcotest.int "spanning" 1 r.Mst.components

let test_mst_sorted_edges () =
  let edges = Mst.sorted_edges (triangle_graph ()) in
  let weights = Array.to_list (Array.map (fun (_, _, w) -> w) edges) in
  check (Alcotest.list Alcotest.int) "ascending" [ 1; 1; 5 ] weights

let test_mst_check_accepts () =
  let g = Generator.random ~seed:10 ~n:80 ~m:200 in
  check ok_result "self check" (Ok ()) (Mst.check g (Mst.kruskal g))

let test_mst_check_rejects_cycle () =
  let g = triangle_graph () in
  let bogus = { (Mst.kruskal g) with Mst.edges = [ (0, 1, 1); (1, 2, 1); (0, 2, 5) ] } in
  check Alcotest.bool "cycle rejected" true (Result.is_error (Mst.check g bogus))

let test_mst_disconnected () =
  let g = Csr.of_edges ~n:4 [ (0, 1, 2); (2, 3, 3) ] in
  let r = Mst.kruskal g in
  check Alcotest.int "forest edges" 2 (List.length r.Mst.edges);
  check Alcotest.int "components" 2 r.Mst.components

let prop_mst_weight_leq_any_tree =
  QCheck.Test.make ~name:"kruskal weight minimal vs random spanning tree" ~count:30
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = Generator.random ~seed ~n:30 ~m:70 in
      let mst = Mst.kruskal g in
      (* Build some spanning tree greedily in arbitrary edge order. *)
      let uf = Agp_util.Union_find.create g.Csr.n in
      let w = ref 0 in
      List.iter
        (fun (u, v, ew) -> if Agp_util.Union_find.union uf u v then w := !w + ew)
        (Csr.undirected_edges g);
      mst.Mst.weight <= !w)

(* the int comparator orders edges as polymorphic [compare] on
   (weight, src, dst) did, over graphs with repeated weights and
   self-loops *)
let prop_mst_sorted_edges_order =
  QCheck.Test.make ~name:"sorted_edges is the (weight, src, dst) order" ~count:30
    QCheck.(int_range 0 500)
    (fun seed ->
      let rng = Agp_util.Rng.create seed in
      let n = 20 in
      let edges =
        List.init 60 (fun _ ->
            (Agp_util.Rng.int rng n, Agp_util.Rng.int rng n, 1 + Agp_util.Rng.int rng 4))
      in
      let g = Csr.of_edges ~n edges in
      let want = Array.of_list (Csr.undirected_edges g) in
      Array.sort (fun (u1, v1, w1) (u2, v2, w2) -> compare (w1, u1, v1) (w2, u2, v2)) want;
      let got = Mst.sorted_edges g in
      got = want && Mst.kruskal_sorted g got = Mst.kruskal g)

let () =
  Alcotest.run "agp_graph"
    [
      ( "csr",
        [
          Alcotest.test_case "shape" `Quick test_csr_shape;
          Alcotest.test_case "neighbors sorted" `Quick test_csr_neighbors_sorted;
          Alcotest.test_case "directed" `Quick test_csr_directed;
          Alcotest.test_case "symmetry" `Quick test_csr_symmetric;
          Alcotest.test_case "validate" `Quick test_csr_validate;
          Alcotest.test_case "unweighted reads unit weights" `Quick test_csr_unweighted_reads_unit;
          Alcotest.test_case "out of range" `Quick test_csr_out_of_range;
          Alcotest.test_case "undirected edges" `Quick test_csr_undirected_edges;
          Alcotest.test_case "of_arrays" `Quick test_csr_of_arrays;
          qtest prop_of_edges_matches_oracle;
        ] );
      ( "generator",
        [
          Alcotest.test_case "road connected" `Quick test_road_connected;
          Alcotest.test_case "road high diameter" `Quick test_road_high_diameter;
          Alcotest.test_case "road low degree" `Quick test_road_low_degree;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "rmat skewed" `Quick test_rmat_skewed;
          Alcotest.test_case "golden digests" `Quick test_generator_digests;
          Alcotest.test_case "unweighted lattices match" `Quick test_unweighted_lattices_match;
          Alcotest.test_case "backbone kept or rejected" `Quick test_backbone_kept_or_rejected;
          qtest prop_generators_deterministic;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "figure-2 levels" `Quick test_bfs_figure2;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "histogram" `Quick test_bfs_histogram;
          Alcotest.test_case "check accepts reference" `Quick test_bfs_check_accepts_reference;
          Alcotest.test_case "check rejects wrong" `Quick test_bfs_check_rejects_wrong;
          qtest prop_bfs_levels_edge_slack;
        ] );
      ( "sssp",
        [
          Alcotest.test_case "dijkstra triangle" `Quick test_dijkstra_triangle;
          Alcotest.test_case "bellman-ford matches" `Quick test_bellman_ford_matches_dijkstra;
          Alcotest.test_case "certificate accepts" `Quick test_sssp_check_accepts;
          Alcotest.test_case "certificate rejects" `Quick test_sssp_check_rejects;
          qtest prop_sssp_dijkstra_bellman_agree;
        ] );
      ( "mst",
        [
          Alcotest.test_case "triangle" `Quick test_mst_triangle;
          Alcotest.test_case "sorted edges" `Quick test_mst_sorted_edges;
          Alcotest.test_case "check accepts" `Quick test_mst_check_accepts;
          Alcotest.test_case "check rejects cycle" `Quick test_mst_check_rejects_cycle;
          Alcotest.test_case "disconnected forest" `Quick test_mst_disconnected;
          qtest prop_mst_weight_leq_any_tree;
          qtest prop_mst_sorted_edges_order;
        ] );
    ]
