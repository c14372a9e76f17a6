(* Graph analytics on the generated accelerators: run both aggressive
   parallelization strategies for BFS plus speculative SSSP and MST on a
   synthetic road network, comparing the FPGA model against the
   software-baseline models through the backend registry — a miniature
   of the paper's §6.3. *)

module App_instance = Agp_apps.App_instance
module Accelerator = Agp_hw.Accelerator
module Backend = Agp_backend.Backend
module Table = Agp_util.Table

let () =
  let seed = 7 in
  let road = Agp_graph.Generator.road ~weighted:false ~seed ~width:80 ~height:50 in
  Printf.printf "road network: %d vertices, %d arcs, BFS depth %d\n" road.Agp_graph.Csr.n
    road.Agp_graph.Csr.m
    (Agp_graph.Bfs.diameter_from road 0);
  let random = Agp_graph.Generator.random ~seed ~n:1500 ~m:4500 in
  let apps =
    [
      Agp_apps.Bfs_app.speculative { graph = road; root = 0 };
      Agp_apps.Bfs_app.coordinative { graph = road; root = 0 };
      Agp_apps.Sssp_app.speculative { graph = random; root = 0 };
      Agp_apps.Mst_app.speculative { graph = random };
    ]
  in
  let t =
    Table.create
      [ "app"; "FPGA ms"; "1-core ms"; "10-core ms"; "squashed"; "util"; "cache hit" ]
  in
  List.iter
    (fun (app : App_instance.t) ->
      let hw = Backend.run (Backend.simulator ()) app in
      (match hw.Backend.check with
      | Ok () -> ()
      | Error e -> failwith (app.App_instance.app_name ^ ": " ^ e));
      let report =
        match Backend.simulated_report hw with
        | Some r -> r
        | None -> assert false
      in
      let cpu =
        match Backend.cpu_report (Backend.run Backend.cpu_1core app) with
        | Some r -> r
        | None -> assert false
      in
      let stats = report.Accelerator.engine_stats in
      Table.add_row t
        [
          app.App_instance.app_name;
          Table.cell_float ~decimals:3 (report.Accelerator.seconds *. 1e3);
          Table.cell_float ~decimals:3 (cpu.Agp_baseline.Cpu_model.seconds_1core *. 1e3);
          Table.cell_float ~decimals:3 (cpu.Agp_baseline.Cpu_model.seconds_10core *. 1e3);
          string_of_int (stats.Agp_core.Engine.aborted + stats.Agp_core.Engine.retried);
          Printf.sprintf "%.1f%%" (100.0 *. report.Accelerator.utilization);
          Printf.sprintf "%.1f%%" (100.0 *. report.Accelerator.mem_hit_rate);
        ])
    apps;
  Table.print t;
  print_endline "(all accelerator results validated against the substrate references)"
