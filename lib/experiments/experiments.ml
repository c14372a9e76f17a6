module App_instance = Agp_apps.App_instance
module Accelerator = Agp_hw.Accelerator
module Config = Agp_hw.Config
module Resource = Agp_hw.Resource
module Cpu_model = Agp_baseline.Cpu_model
module Opencl_model = Agp_baseline.Opencl_model
module Backend = Agp_backend.Backend
module Table = Agp_util.Table

(* All platform executions go through the Agp_backend registry; the
   helpers below unwrap the native reports the tables are built from
   and keep the "every accelerated run is validated" guarantee. *)

let accelerate ?(config = Config.default) (app : App_instance.t) =
  let res = Backend.run (Backend.simulator ~config ()) app in
  begin
    match res.Backend.check with
    | Ok () -> ()
    | Error e ->
        failwith (Printf.sprintf "%s: accelerator result invalid: %s" app.App_instance.app_name e)
  end;
  match Backend.simulated_report res with
  | Some report -> report
  | None -> assert false

let cpu_model (app : App_instance.t) =
  match Backend.cpu_report (Backend.run Backend.cpu_1core app) with
  | Some report -> report
  | None -> assert false

(* --- Figure 9 --- *)

type fig9_row = {
  app : string;
  fpga_s : float;
  cpu1_s : float;
  cpu10_s : float;
  speedup_vs_1 : float;
  speedup_vs_10 : float;
  utilization : float;
}

let fig9 ?(scale = Workloads.Default) ?(seed = 42) () =
  List.map
    (fun app ->
      let hw = accelerate app in
      let cpu = cpu_model app in
      {
        app = app.App_instance.app_name;
        fpga_s = hw.Accelerator.seconds;
        cpu1_s = cpu.Cpu_model.seconds_1core;
        cpu10_s = cpu.Cpu_model.seconds_10core;
        speedup_vs_1 = cpu.Cpu_model.seconds_1core /. hw.Accelerator.seconds;
        speedup_vs_10 = cpu.Cpu_model.seconds_10core /. hw.Accelerator.seconds;
        utilization = hw.Accelerator.utilization;
      })
    (Workloads.all scale ~seed)

let print_fig9 rows =
  let t =
    Table.create [ "app"; "FPGA (ms)"; "1-core (ms)"; "10-core (ms)"; "vs 1-core"; "vs 10-core" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.app;
          Table.cell_float ~decimals:3 (r.fpga_s *. 1e3);
          Table.cell_float ~decimals:3 (r.cpu1_s *. 1e3);
          Table.cell_float ~decimals:3 (r.cpu10_s *. 1e3);
          Table.cell_ratio r.speedup_vs_1;
          Table.cell_ratio r.speedup_vs_10;
        ])
    rows;
  Table.print t

(* --- Figure 10 --- *)

type fig10_row = {
  app10 : string;
  factor : float;
  speedup_over_1x : float;
  utilization10 : float;
  aborted : int;
}

let fig10 ?(scale = Workloads.Medium) ?(seed = 42) ?(factors = [ 1.0; 2.0; 4.0; 8.0 ]) () =
  List.concat_map
    (fun app ->
      (* each run takes a fresh instance of the one workload *)
      let runs =
        List.map
          (fun factor ->
            (factor, accelerate ~config:(Config.scale_bandwidth Config.default factor) app))
          factors
      in
      match runs with
      | [] -> []
      | (_, base) :: _ ->
          List.map
            (fun (factor, hw) ->
              {
                app10 = app.App_instance.app_name;
                factor;
                speedup_over_1x = base.Accelerator.seconds /. hw.Accelerator.seconds;
                utilization10 = hw.Accelerator.utilization;
                aborted =
                  hw.Accelerator.engine_stats.Agp_core.Engine.aborted
                  + hw.Accelerator.engine_stats.Agp_core.Engine.retried;
              })
            runs)
    (Workloads.all scale ~seed)

let print_fig10 rows =
  let t = Table.create [ "app"; "QPI x"; "speedup"; "utilization"; "squashed tasks" ] in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.app10;
          Printf.sprintf "%gx" r.factor;
          Table.cell_ratio r.speedup_over_1x;
          Printf.sprintf "%.1f%%" (100.0 *. r.utilization10);
          string_of_int r.aborted;
        ])
    rows;
  Table.print t;
  (* the figure's visual: one speedup curve per app over the sweep *)
  let apps = List.sort_uniq compare (List.map (fun r -> r.app10) rows) in
  let curves =
    List.map
      (fun app ->
        ( app,
          Array.of_list
            (List.filter_map (fun r -> if r.app10 = app then Some r.speedup_over_1x else None) rows)
        ))
      apps
  in
  print_endline "speedup vs bandwidth (left-to-right = 1x..8x):";
  print_endline (Agp_util.Chart.series curves)

(* --- Table 1 --- *)

type table1 = {
  opencl_s : float;
  spec_bfs_s : float;
  coor_bfs_s : float;
  opencl_rounds : int;
}

let table1 ?(scale = Workloads.Default) ?(seed = 42) () =
  let spec_app = Workloads.spec_bfs scale ~seed in
  let opencl =
    (* the AOCL baseline models its rounds over the very graph the
       SPEC-BFS workload was built from (graph_source) *)
    match Backend.opencl_report (Backend.run Backend.opencl spec_app) with
    | Some report -> report
    | None -> assert false
  in
  let spec_hw = accelerate spec_app in
  let coor_hw = accelerate (Workloads.coor_bfs scale ~seed) in
  {
    opencl_s = opencl.Opencl_model.seconds;
    spec_bfs_s = spec_hw.Accelerator.seconds;
    coor_bfs_s = coor_hw.Accelerator.seconds;
    opencl_rounds = opencl.Opencl_model.rounds;
  }

let print_table1 t1 =
  let t = Table.create [ "accelerator"; "OpenCL"; "SPEC-BFS"; "COOR-BFS" ] in
  Table.add_row t
    [
      "best time (s)";
      Table.cell_float ~decimals:4 t1.opencl_s;
      Table.cell_float ~decimals:4 t1.spec_bfs_s;
      Table.cell_float ~decimals:4 t1.coor_bfs_s;
    ];
  Table.add_row t
    [
      "vs OpenCL";
      "1.00x";
      Table.cell_ratio (t1.opencl_s /. t1.spec_bfs_s);
      Table.cell_ratio (t1.opencl_s /. t1.coor_bfs_s);
    ];
  Table.print t

(* --- resource breakdown --- *)

type resource_row = {
  rapp : string;
  pipelines_used : (string * int) list;
  alms : int;
  registers : int;
  brams : int;
  rule_register_share : float;
  fits_device : bool;
}

let resources () =
  let specs =
    [
      ("SPEC-BFS", Agp_apps.Bfs_app.spec_speculative);
      ("COOR-BFS", Agp_apps.Bfs_app.spec_coordinative);
      ("SPEC-SSSP", Agp_apps.Sssp_app.spec_speculative);
      ("SPEC-MST", Agp_apps.Mst_app.spec_speculative);
      ("SPEC-DMR", Agp_apps.Dmr_app.spec_speculative);
      ("COOR-LU", Agp_apps.Lu_app.spec_coordinative);
    ]
  in
  List.map
    (fun (name, sp) ->
      let pipes = Resource.heuristic_pipelines sp ~max_per_set:8 in
      let cfg = Config.with_pipelines Config.default pipes in
      let b = Resource.breakdown sp cfg in
      {
        rapp = name;
        pipelines_used = pipes;
        alms = b.Resource.total.Resource.alms;
        registers = b.Resource.total.Resource.registers;
        brams = b.Resource.total.Resource.brams;
        rule_register_share = b.Resource.register_share_rules;
        fits_device = Resource.fits b;
      })
    specs

let print_resources rows =
  let t =
    Table.create [ "app"; "pipelines"; "ALMs"; "registers"; "M20K"; "rule-engine regs"; "fits" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.rapp;
          String.concat " "
            (List.map (fun (s, n) -> Printf.sprintf "%s:%d" s n) r.pipelines_used);
          string_of_int r.alms;
          string_of_int r.registers;
          string_of_int r.brams;
          Printf.sprintf "%.1f%%" (100.0 *. r.rule_register_share);
          string_of_bool r.fits_device;
        ])
    rows;
  Table.print t

(* --- Figure 2(b): schedule diagrams --- *)

let schedule_diagram () =
  (* The 6-vertex example of Fig. 2(a): 0-1, 0-2, 1-3, 2-4, 2-3, 3-5.
     Two-stage pipeline: V visits a vertex (dequeues, scans neighbours),
     U updates a neighbour (writes its level, enqueues a visit). *)
  let g =
    Agp_graph.Csr.of_edges ~n:6
      [ (0, 1, 1); (0, 2, 1); (1, 3, 1); (2, 4, 1); (2, 3, 1); (3, 5, 1) ]
  in
  let buf = Buffer.create 512 in
  let render title (timeline : (string * string) list list) =
    Buffer.add_string buf (title ^ "\n");
    let lanes = [ "V"; "U" ] in
    List.iter
      (fun lane ->
        Buffer.add_string buf ("  " ^ lane ^ ": ");
        List.iter
          (fun slot ->
            let cell =
              match List.assoc_opt lane slot with
              | Some v -> v
              | None -> "."
            in
            Buffer.add_string buf (Printf.sprintf "%-3s" cell))
          timeline;
        Buffer.add_char buf '\n')
      lanes;
    Buffer.add_char buf '\n'
  in
  let inf = Agp_graph.Bfs.infinity_level in
  (* barrier-synchronized: all visits of a level, barrier, all updates,
     barrier *)
  let barrier_timeline () =
    let level = Array.make 6 inf in
    level.(0) <- 0;
    let frontier = ref [ 0 ] in
    let timeline = ref [] in
    while !frontier <> [] do
      let updates = ref [] in
      List.iter
        (fun v ->
          timeline := [ ("V", string_of_int v) ] :: !timeline;
          Agp_graph.Csr.iter_neighbors g v (fun w _ ->
              if level.(w) = inf then updates := (w, level.(v) + 1) :: !updates))
        !frontier;
      timeline := [ ("V", "|"); ("U", "|") ] :: !timeline;
      let next = ref [] in
      List.iter
        (fun (w, l) ->
          if level.(w) = inf then begin
            level.(w) <- l;
            next := w :: !next;
            timeline := [ ("U", string_of_int w) ] :: !timeline
          end)
        (List.rev !updates);
      timeline := [ ("V", "|"); ("U", "|") ] :: !timeline;
      frontier := List.rev !next
    done;
    List.rev !timeline
  in
  (* dataflow: each stage fires as soon as a token waits in its input
     queue — both stages active in the same slot *)
  let dataflow_timeline () =
    let level = Array.make 6 inf in
    level.(0) <- 0;
    let visits = Queue.create () and updates = Queue.create () in
    Queue.push 0 visits;
    let timeline = ref [] in
    while (not (Queue.is_empty visits)) || not (Queue.is_empty updates) do
      let slot = ref [] in
      if not (Queue.is_empty visits) then begin
        let v = Queue.pop visits in
        slot := ("V", string_of_int v) :: !slot;
        Agp_graph.Csr.iter_neighbors g v (fun w _ ->
            if level.(w) = inf && not (Queue.fold (fun acc (x, _) -> acc || x = w) false updates)
            then Queue.push (w, level.(v) + 1) updates)
      end;
      if not (Queue.is_empty updates) then begin
        let w, l = Queue.pop updates in
        if level.(w) = inf then begin
          level.(w) <- l;
          Queue.push w visits
        end;
        slot := ("U", string_of_int w) :: !slot
      end;
      timeline := !slot :: !timeline
    done;
    List.rev !timeline
  in
  render "Synthesized (barrier-synchronized kernels, '|' = barrier):" (barrier_timeline ());
  render "Handcrafted / rule-scheduled (dataflow, stages overlap):" (dataflow_timeline ());
  Buffer.contents buf
