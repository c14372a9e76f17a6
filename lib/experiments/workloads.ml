module Generator = Agp_graph.Generator

type scale =
  | Small
  | Medium
  | Default
  | Large
  | Huge

let scale_of_string = function
  | "small" -> Ok Small
  | "medium" -> Ok Medium
  | "default" -> Ok Default
  | "large" -> Ok Large
  | "huge" -> Ok Huge
  | s -> Error (Printf.sprintf "unknown scale %S (use small|medium|default|large|huge)" s)

let scale_name = function
  | Small -> "small"
  | Medium -> "medium"
  | Default -> "default"
  | Large -> "large"
  | Huge -> "huge"

let bfs_graph scale ~seed =
  match scale with
  | Small -> Generator.road ~weighted:false ~seed ~width:40 ~height:25
  | Medium -> Generator.road ~weighted:false ~seed ~width:150 ~height:100
  (* large enough that the 64 KB CCI cache covers only a few percent of
     the working set — the bandwidth-bound regime of the paper's
     24M-node road network *)
  | Default -> Generator.road ~weighted:false ~seed ~width:350 ~height:220
  (* paper-scale road graphs for the compiled engine: ~1M and ~4.2M
     nodes, built straight into CSR (the ROADMAP item-1 exit
     criterion) *)
  | Large -> Generator.grid ~weighted:false ~seed ~width:1024 ~height:1024
  | Huge -> Generator.grid ~weighted:false ~seed ~width:2048 ~height:2048

let spec_bfs scale ~seed = Agp_apps.Bfs_app.speculative { graph = bfs_graph scale ~seed; root = 0 }

let coor_bfs scale ~seed = Agp_apps.Bfs_app.coordinative { graph = bfs_graph scale ~seed; root = 0 }

let sssp_graph scale ~seed =
  (* low-diameter random graphs keep chaotic Bellman-Ford's
     re-relaxation factor bounded; the road graphs of the BFS rows would
     inflate SPEC-SSSP to millions of flooded tasks *)
  match scale with
  | Small -> Generator.random ~seed ~n:600 ~m:1800
  | Medium | Default | Large | Huge -> Generator.random ~seed ~n:3000 ~m:9000

let spec_sssp scale ~seed =
  Agp_apps.Sssp_app.speculative { graph = sssp_graph scale ~seed; root = 0 }

let mst_graph scale ~seed =
  match scale with
  | Small -> Generator.random ~seed ~n:400 ~m:1200
  | Medium | Default | Large | Huge -> Generator.random ~seed ~n:2500 ~m:7500

let spec_mst scale ~seed = Agp_apps.Mst_app.speculative { graph = mst_graph scale ~seed }

let dmr_points scale ~seed =
  match scale with
  | Small -> Generator.points ~seed ~n:120 ~span:100.0
  | Medium | Default | Large | Huge -> Generator.points ~seed ~n:350 ~span:100.0

let spec_dmr scale ~seed = Agp_apps.Dmr_app.speculative { points = dmr_points scale ~seed }

let coor_lu scale ~seed =
  match scale with
  | Small -> Agp_apps.Lu_app.coordinative (Agp_apps.Lu_app.sized_workload ~seed ~nb:6 ~bs:6 ~density:0.3)
  | Medium ->
      Agp_apps.Lu_app.coordinative
        (Agp_apps.Lu_app.sized_workload ~seed ~nb:12 ~bs:48 ~density:0.3)
  | Default | Large | Huge ->
      (* BOTS-like scale: the matrix exceeds the Xeon's 25 MB LLC, so
         the software baseline pays DRAM exactly as the FPGA pays QPI —
         the regime of the paper's evaluation.  The larger scales only
         grow the graph apps: LU's working set is already there. *)
      Agp_apps.Lu_app.coordinative
        (Agp_apps.Lu_app.sized_workload ~seed ~nb:16 ~bs:64 ~density:0.3)

(* The one list of apps: [all], [app_names] and [find] derive from it,
   so adding an app touches this table only. *)
let registry =
  [
    ("spec-bfs", spec_bfs);
    ("coor-bfs", coor_bfs);
    ("spec-sssp", spec_sssp);
    ("spec-mst", spec_mst);
    ("spec-dmr", spec_dmr);
    ("coor-lu", coor_lu);
  ]

let all scale ~seed = List.map (fun (_, build) -> build scale ~seed) registry

let app_names = List.map fst registry

let find name scale ~seed =
  match List.assoc_opt name registry with
  | Some build -> Ok (build scale ~seed)
  | None ->
      Error
        (Printf.sprintf "unknown application %S (known: %s)" name
           (String.concat ", " app_names))
