(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) and, per table/figure, registers a Bechamel
   micro-benchmark of the machinery behind it.

   Scale can be overridden with AGP_BENCH_SCALE=small|medium|default
   (default: Default — the EXPERIMENTS.md headline workloads, ~10
   minutes end to end; the Fig. 10 sweep always runs at Medium to keep
   its 24 accelerator runs affordable). *)

open Bechamel
open Toolkit
module Experiments = Agp_exp.Experiments
module Workloads = Agp_exp.Workloads
module Backend = Agp_backend.Backend

let scale =
  match Sys.getenv_opt "AGP_BENCH_SCALE" with
  | Some s -> begin
      match Workloads.scale_of_string s with
      | Ok sc -> sc
      | Error e ->
          prerr_endline e;
          exit 1
    end
  | None -> Workloads.Default

let scale_name = Workloads.scale_name scale

(* --json [--json-out PATH]: also write the whole evaluation as a
   machine-readable run report (BENCH_<stamp>.json by default), the
   artifact `agp diff` compares across commits. *)
let json_out =
  let argv = Array.to_list Sys.argv in
  let rec find_out = function
    | "--json-out" :: path :: _ -> Some path
    | _ :: rest -> find_out rest
    | [] -> None
  in
  match find_out argv with
  | Some _ as p -> p
  | None ->
      if List.mem "--json" argv then begin
        let t = Unix.localtime (Unix.time ()) in
        Some
          (Printf.sprintf "BENCH_%04d%02d%02d_%02d%02d%02d.json" (t.Unix.tm_year + 1900)
             (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec)
      end
      else None

module Json = Agp_obs.Json

let json_sections : (string * Json.t) list ref = ref []
let add_section name j = json_sections := (name, j) :: !json_sections

let write_json_report () =
  match json_out with
  | None -> ()
  | Some path ->
      let report =
        Agp_obs.Report.v ~kind:"bench" ~app:"all"
          ~meta:[ ("scale", Json.String scale_name) ]
          ~sections:(List.rev !json_sections) ()
      in
      let oc =
        try open_out path
        with Sys_error e ->
          Printf.eprintf "cannot write bench report: %s\n" e;
          exit 1
      in
      output_string oc (Agp_obs.Report.to_string report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s (schema v%d; diff two of these with `agp diff`)\n" path
        Agp_obs.Report.schema_version

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* --- bechamel plumbing: one Test.make per experiment, timed against
   the monotonic clock, reported as ns/run --- *)

let bench_cases : (string * (unit -> unit)) list ref = ref []

let register name fn = bench_cases := (name, fn) :: !bench_cases

let run_microbenches () =
  section "Bechamel micro-benchmarks (ns per run)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let estimates = ref [] in
  List.iter
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let raw = Benchmark.all cfg instances test in
      let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
      let merged = Analyze.merge ols instances results in
      let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
      Hashtbl.iter
        (fun case ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "  %-34s %12.0f ns/run\n%!" case est;
              estimates := (case, Json.Float est) :: !estimates
          | Some _ | None -> Printf.printf "  %-34s (no estimate)\n%!" case)
        clock)
    (List.rev !bench_cases);
  (* microbenchmark timings are machine-dependent: name them so the
     diff direction heuristic treats them as informational, not gating *)
  add_section "microbench_ns_per_run" (Json.Obj (List.rev !estimates))

(* --- Table 1 --- *)

let table1 () =
  section "Table 1 — BFS: OpenCL HLS vs generated accelerators";
  let t1 = Experiments.table1 ~scale () in
  Experiments.print_table1 t1;
  Printf.printf "(OpenCL model iterated %d host rounds)\n" t1.Experiments.opencl_rounds;
  add_section "table1"
    (Json.Obj
       [
         ("opencl_seconds", Json.Float t1.Experiments.opencl_s);
         ("spec_bfs_seconds", Json.Float t1.Experiments.spec_bfs_s);
         ("coor_bfs_seconds", Json.Float t1.Experiments.coor_bfs_s);
         ("opencl_rounds", Json.Int t1.Experiments.opencl_rounds);
       ]);
  register "table1/opencl-model" (fun () ->
      ignore (Agp_baseline.Opencl_model.run_bfs (Workloads.bfs_graph Workloads.Small ~seed:42) 0))

(* --- Figure 9 --- *)

let fig9 () =
  section "Figure 9 — speedup over 1-core and 10-core software";
  let rows = Experiments.fig9 ~scale () in
  Experiments.print_fig9 rows;
  let v1 = List.map (fun r -> r.Experiments.speedup_vs_1) rows in
  let v10 = List.map (fun r -> r.Experiments.speedup_vs_10) rows in
  Printf.printf "vs 1-core range: %.2fx .. %.2fx (paper: 2.3x .. 5.9x)\n"
    (List.fold_left Float.min infinity v1)
    (List.fold_left Float.max 0.0 v1);
  Printf.printf "vs 10-core range: %.2fx .. %.2fx (paper: 0.5x .. 1.9x)\n"
    (List.fold_left Float.min infinity v10)
    (List.fold_left Float.max 0.0 v10);
  add_section "fig9"
    (Json.Obj
       (List.map
          (fun r ->
            ( r.Experiments.app,
              Json.Obj
                [
                  ("fpga_seconds", Json.Float r.Experiments.fpga_s);
                  ("cpu1_seconds", Json.Float r.Experiments.cpu1_s);
                  ("cpu10_seconds", Json.Float r.Experiments.cpu10_s);
                  ("speedup_vs_1", Json.Float r.Experiments.speedup_vs_1);
                  ("speedup_vs_10", Json.Float r.Experiments.speedup_vs_10);
                  ("utilization", Json.Float r.Experiments.utilization);
                ] ))
          rows));
  register "fig9/accelerator-spec-bfs-small" (fun () ->
      let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
      let run = app.Agp_apps.App_instance.fresh () in
      ignore
        (Agp_hw.Accelerator.run ~spec:app.Agp_apps.App_instance.spec
           ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
           ~initial:run.Agp_apps.App_instance.initial ()));
  register "fig9/cpu-model-spec-bfs-small" (fun () ->
      ignore (Agp_baseline.Cpu_model.run (Workloads.spec_bfs Workloads.Small ~seed:42)))

(* --- Figure 10 --- *)

let fig10 () =
  section "Figure 10 — QPI bandwidth sweep (speedup over 1x / utilization)";
  let rows = Experiments.fig10 () in
  Experiments.print_fig10 rows;
  add_section "fig10"
    (Json.Obj
       (List.map
          (fun r ->
            ( Printf.sprintf "%s_bw%gx" r.Experiments.app10 r.Experiments.factor,
              Json.Obj
                [
                  ("speedup_over_1x", Json.Float r.Experiments.speedup_over_1x);
                  ("utilization", Json.Float r.Experiments.utilization10);
                  ("aborted", Json.Int r.Experiments.aborted);
                ] ))
          rows));
  register "fig10/memory-burst-64-lines" (fun () ->
      let mem = Agp_hw.Memory.create Agp_hw.Config.default in
      ignore
        (Agp_hw.Memory.access_burst mem ~now:0 ~n:64
           ~addr:(fun i -> i * 4096)
           ~is_write:(fun _ -> false)))

(* --- §6.2 resources --- *)

let resources () =
  section "Section 6.2 — FPGA resource breakdown (Stratix V 5SGXEA7)";
  let rows = Experiments.resources () in
  Experiments.print_resources rows;
  let shares = List.map (fun r -> r.Experiments.rule_register_share) rows in
  Printf.printf "rule-engine register share: %.1f%% .. %.1f%% (paper: 4.8%% .. 10%%)\n"
    (100.0 *. List.fold_left Float.min infinity shares)
    (100.0 *. List.fold_left Float.max 0.0 shares);
  add_section "resources"
    (Json.Obj
       (List.map
          (fun r ->
            ( r.Experiments.rapp,
              Json.Obj
                [
                  ("alms", Json.Int r.Experiments.alms);
                  ("registers", Json.Int r.Experiments.registers);
                  ("brams", Json.Int r.Experiments.brams);
                  ("rule_register_share", Json.Float r.Experiments.rule_register_share);
                  ("fits", Json.Bool r.Experiments.fits_device);
                ] ))
          rows));
  register "resources/heuristic-sizing" (fun () ->
      let sp = Agp_apps.Bfs_app.spec_speculative in
      let g = Agp_dataflow.Bdfg.of_program (Agp_core.Opcode.compile sp) in
      ignore (Agp_hw.Resource.heuristic_pipelines sp g ~max_per_set:8))

(* --- Figure 2(b) --- *)

let schedules () =
  section "Figure 2(b) — schedule diagrams on the 6-vertex example";
  print_string (Experiments.schedule_diagram ());
  register "fig2/bdfg-compile-all" (fun () ->
      List.iter
        (fun sp -> ignore (Agp_dataflow.Bdfg.of_program (Agp_core.Opcode.compile sp)))
        [
          Agp_apps.Bfs_app.spec_speculative;
          Agp_apps.Sssp_app.spec_speculative;
          Agp_apps.Mst_app.spec_speculative;
          Agp_apps.Dmr_app.spec_speculative;
          Agp_apps.Lu_app.spec_coordinative;
        ])

(* --- substrate micro-benchmarks (ablation-adjacent) --- *)

let substrates () =
  register "substrate/delaunay-triangulate-200" (fun () ->
      ignore (Agp_geometry.Delaunay.triangulate (Agp_graph.Generator.points ~seed:1 ~n:200 ~span:100.0)));
  register "substrate/sparselu-factorize-6x6" (fun () ->
      let m = Agp_sparse.Block_matrix.random_sparse ~seed:2 ~nb:6 ~bs:8 ~density:0.3 in
      ignore (Agp_sparse.Sparse_lu.factorize m));
  register "substrate/kruskal-2500" (fun () ->
      ignore (Agp_graph.Mst.kruskal (Agp_graph.Generator.random ~seed:3 ~n:2500 ~m:7500)));
  register "substrate/sequential-oracle-bfs" (fun () ->
      let app = Workloads.spec_bfs Workloads.Small ~seed:4 in
      let run = app.Agp_apps.App_instance.fresh () in
      ignore
        (Agp_core.Semantics.run ~initial:run.Agp_apps.App_instance.initial
           (Agp_core.Semantics.oracle ()) app.Agp_apps.App_instance.spec
           run.Agp_apps.App_instance.bindings run.Agp_apps.App_instance.state))

(* --- work amplification (the flooding of §6.3, quantified) --- *)

let amplification () =
  section "Work amplification — activated vs. necessary tasks (flooding)";
  Agp_exp.Amplification.print (Agp_exp.Amplification.table ~scale:Workloads.Small ());
  register "amplification/spec-bfs" (fun () ->
      ignore (Agp_exp.Amplification.measure (Workloads.spec_bfs Workloads.Small ~seed:42)))

(* --- observability overhead (the Agp_obs null-sink gate) --- *)

let observability () =
  section (Printf.sprintf "Observability — sink overhead on a full accelerator run (SPEC-BFS, %s)" scale_name);
  let simulate sink =
    let app = Workloads.spec_bfs scale ~seed:42 in
    let run = app.Agp_apps.App_instance.fresh () in
    ignore
      (Agp_hw.Accelerator.run ~sink ~spec:app.Agp_apps.App_instance.spec
         ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
         ~initial:run.Agp_apps.App_instance.initial ())
  in
  let time_best sink_of =
    (* best of 5 to shake scheduler noise out of a wall-clock compare *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Sys.time () in
      simulate (sink_of ());
      best := Float.min !best (Sys.time () -. t0)
    done;
    !best
  in
  let null_s = time_best (fun () -> Agp_obs.Sink.null) in
  let collect_s = time_best (fun () -> Agp_obs.Sink.collect ()) in
  let overhead = (collect_s -. null_s) /. Float.max 1e-9 null_s in
  Printf.printf "null sink:    %.4f s\nfull capture: %.4f s (+%.1f%%)\n" null_s collect_s
    (100.0 *. overhead);
  (* the null sink must cost nothing: disabled instrumentation is a
     predicted-false branch, so a *capturing* run staying within ~2x of
     the null run bounds the branch cost at far below measurement noise *)
  let gate_ok = collect_s <= 2.0 *. Float.max 1e-9 null_s in
  if gate_ok then
    print_endline "null-sink overhead gate: OK (full capture within 2x of disabled)"
  else print_endline "null-sink overhead gate: WARN (capture cost unexpectedly high)";
  add_section "observability"
    (Json.Obj
       [
         ("null_sink_best_of_5_s", Json.Float null_s);
         ("full_capture_best_of_5_s", Json.Float collect_s);
         ("overhead_info_frac", Json.Float overhead);
         ("gate_ok", Json.Bool gate_ok);
       ]);
  let ring = Agp_obs.Sink.ring ~capacity:4096 in
  register "obs/sink-emit-null" (fun () ->
      Agp_obs.Sink.emit Agp_obs.Sink.null ~ts:0
        (Agp_obs.Event.Queue_full { set = "visit"; pipe = 0 }));
  register "obs/sink-emit-ring" (fun () ->
      Agp_obs.Sink.emit ring ~ts:0 (Agp_obs.Event.Queue_full { set = "visit"; pipe = 0 }));
  register "obs/attribution-charge" (fun () ->
      let a = Agp_obs.Attribution.create [ "visit" ] in
      Agp_obs.Attribution.charge a ~slot:0 Agp_obs.Attribution.Busy 1)

(* --- backend registry: one app across every execution substrate --- *)

let backends () =
  section (Printf.sprintf "Backend registry — SPEC-BFS across every substrate (%s)" scale_name);
  let app = Workloads.spec_bfs scale ~seed:42 in
  let t = Agp_util.Table.create [ "backend"; "tasks"; "time"; "check" ] in
  let rows = ref [] in
  List.iter
    (fun (b : Backend.t) ->
      if b.Backend.supports app = Ok () then begin
        let res = Backend.run b app in
        let tasks =
          match res.Backend.tasks_run with
          | Some n -> string_of_int n
          | None -> "-"
        in
        let time =
          match res.Backend.seconds with
          | Some s -> Printf.sprintf "%.3f ms" (s *. 1e3)
          | None -> "-"
        in
        let check =
          if not b.Backend.capabilities.Backend.validates then "n/a"
          else
            match res.Backend.check with
            | Ok () -> "ok"
            | Error e -> "FAIL: " ^ e
        in
        rows :=
          ( b.Backend.name,
            Json.Obj
              (List.concat
                 [
                   (match res.Backend.tasks_run with
                   | Some n -> [ ("tasks", Json.Int n) ]
                   | None -> []);
                   (match res.Backend.seconds with
                   | Some s -> [ ("seconds", Json.Float s) ]
                   | None -> []);
                   [ ("check_ok", Json.Bool (res.Backend.check = Ok ())) ];
                 ]) )
          :: !rows;
        Agp_util.Table.add_row t [ b.Backend.name; tasks; time; check ]
      end
      else Agp_util.Table.add_row t [ b.Backend.name; "-"; "-"; "unsupported" ])
    Backend.all;
  Agp_util.Table.print t;
  add_section "backends" (Json.Obj (List.rev !rows));
  register "backend/sequential-spec-bfs-small" (fun () ->
      ignore (Backend.run Backend.sequential (Workloads.spec_bfs Workloads.Small ~seed:42)))

(* --- ablations --- *)

let ablations () =
  section "Ablation — rule-engine lanes (SPEC-BFS, medium road graph)";
  let app = Workloads.spec_bfs Workloads.Medium ~seed:42 in
  let t = Agp_util.Table.create [ "lanes"; "cycles"; "utilization" ] in
  let lane_rows = ref [] in
  List.iter
    (fun lanes ->
      let run = app.Agp_apps.App_instance.fresh () in
      let config = { Agp_hw.Config.default with Agp_hw.Config.rule_lanes = lanes } in
      let r =
        Agp_hw.Accelerator.run ~config ~spec:app.Agp_apps.App_instance.spec
          ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
          ~initial:run.Agp_apps.App_instance.initial ()
      in
      lane_rows :=
        ( Printf.sprintf "lanes%d" lanes,
          Json.Obj
            [
              ("cycles", Json.Int r.Agp_hw.Accelerator.cycles);
              ("utilization", Json.Float r.Agp_hw.Accelerator.utilization);
            ] )
        :: !lane_rows;
      Agp_util.Table.add_row t
        [
          string_of_int lanes;
          string_of_int r.Agp_hw.Accelerator.cycles;
          Printf.sprintf "%.1f%%" (100.0 *. r.Agp_hw.Accelerator.utilization);
        ])
    [ 16; 64; 256 ];
  Agp_util.Table.print t;
  section "Ablation — pipeline replication (SPEC-BFS, medium road graph)";
  let t = Agp_util.Table.create [ "pipelines/set"; "cycles" ] in
  let pipe_rows = ref [] in
  List.iter
    (fun n ->
      let run = app.Agp_apps.App_instance.fresh () in
      let config =
        Agp_hw.Config.with_pipelines Agp_hw.Config.default [ ("visit", n); ("update", n) ]
      in
      let r =
        Agp_hw.Accelerator.run ~config ~spec:app.Agp_apps.App_instance.spec
          ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
          ~initial:run.Agp_apps.App_instance.initial ()
      in
      pipe_rows :=
        (Printf.sprintf "pipes%d" n, Json.Obj [ ("cycles", Json.Int r.Agp_hw.Accelerator.cycles) ])
        :: !pipe_rows;
      Agp_util.Table.add_row t [ string_of_int n; string_of_int r.Agp_hw.Accelerator.cycles ])
    [ 1; 2; 4; 8 ];
  Agp_util.Table.print t;
  add_section "ablations"
    (Json.Obj
       [
         ("rule_lanes", Json.Obj (List.rev !lane_rows));
         ("pipeline_replication", Json.Obj (List.rev !pipe_rows));
       ])

(* --- simulator throughput (the cycles/sec ratchet) --- *)

let sim_throughput () =
  section
    (Printf.sprintf "Simulator throughput — simulated cycles per host second (SPEC-BFS, %s)"
       scale_name);
  let run_once () =
    let app = Workloads.spec_bfs scale ~seed:42 in
    let run = app.Agp_apps.App_instance.fresh () in
    Agp_hw.Accelerator.run ~spec:app.Agp_apps.App_instance.spec
      ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
      ~initial:run.Agp_apps.App_instance.initial ()
  in
  (* best of 5: the ratchet gate wants the machine's capability, not its
     scheduler noise *)
  let best = ref (run_once ()) in
  for _ = 1 to 4 do
    let r = run_once () in
    if r.Agp_hw.Accelerator.sim_cycles_per_sec > !best.Agp_hw.Accelerator.sim_cycles_per_sec then
      best := r
  done;
  let r = !best in
  Printf.printf "%d cycles in %.4f s -> %.3g simulated cycles/sec (best of 5)\n"
    r.Agp_hw.Accelerator.cycles r.Agp_hw.Accelerator.wall_seconds
    r.Agp_hw.Accelerator.sim_cycles_per_sec;
  Printf.printf "minor heap: %.1f words/cycle\n" r.Agp_hw.Accelerator.minor_words_per_cycle;
  add_section "sim_throughput"
    (Json.Obj
       [
         ("cycles", Json.Int r.Agp_hw.Accelerator.cycles);
         ("sim_cycles_per_sec", Json.Float r.Agp_hw.Accelerator.sim_cycles_per_sec);
         ("minor_words_per_cycle", Json.Float r.Agp_hw.Accelerator.minor_words_per_cycle);
       ])

(* --- software runtime throughput (the steps/sec ratchet) --- *)

let runtime_throughput () =
  section
    (Printf.sprintf
       "Software runtime throughput — scheduler steps per host second (SPEC-SSSP, %s, 8 workers)"
       scale_name);
  let app = Workloads.spec_sssp scale ~seed:42 in
  let run_once () =
    let run = app.Agp_apps.App_instance.fresh () in
    let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
    let r =
      Agp_core.Semantics.run ~initial:run.Agp_apps.App_instance.initial
        (Agp_core.Semantics.pipelined ()) app.Agp_apps.App_instance.spec
        run.Agp_apps.App_instance.bindings run.Agp_apps.App_instance.state
    in
    let words = Gc.minor_words () -. w0 in
    (r, Float.max 1e-9 (Unix.gettimeofday () -. t0), words)
  in
  (* best of 5, as the simulator ratchet; the minor words repeat exactly *)
  let best = ref (run_once ()) in
  for _ = 1 to 4 do
    let ((_, s, _) as x) = run_once () in
    let _, b, _ = !best in
    if s < b then best := x
  done;
  let r, seconds, words = !best in
  let steps = r.Agp_core.Semantics.steps in
  let ops = r.Agp_core.Semantics.stats.Agp_core.Engine.ops_executed in
  let steps_per_sec = float_of_int steps /. seconds in
  let words_per_op = words /. float_of_int (max 1 ops) in
  Printf.printf "%d steps (%d ops) in %.4f s -> %.3g steps/sec, %.3g ops/sec (best of 5)\n" steps
    ops seconds steps_per_sec
    (float_of_int ops /. seconds);
  Printf.printf "minor heap: %.3f words/op\n" words_per_op;
  add_section "runtime_throughput"
    (Json.Obj
       [
         ("steps", Json.Int steps);
         ("ops", Json.Int ops);
         ("runtime_steps_per_sec", Json.Float steps_per_sec);
         ("ops_per_sec", Json.Float (float_of_int ops /. seconds));
         ("minor_words_per_op", Json.Float words_per_op);
       ])

(* --- serving saturation (the Agp_serve daemon under offered load) --- *)

let serve_saturation () =
  section "Serving — saturation sweep against an in-process agp-serve daemon";
  let module Serve_server = Agp_serve.Server in
  let module Loadgen = Agp_serve.Loadgen in
  (* requests always run the small workload: the sweep measures the
     serving path (admission, batching, shard dispatch), not substrate
     scaling, and offered rates must outrun request latency to find a
     knee.  The sweep itself scales with AGP_BENCH_SCALE. *)
  let rates, duration_s =
    match scale with
    | Workloads.Small -> ([ 25.0; 50.0 ], 1.0)
    | Workloads.Medium | Workloads.Default | Workloads.Large | Workloads.Huge ->
        ([ 25.0; 50.0; 100.0; 200.0 ], 2.0)
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "agp-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let addr = Serve_server.Unix_path sock in
  let server = Serve_server.create () in
  let daemon = Thread.create (fun () -> Serve_server.listen server ~addr) () in
  let result =
    Loadgen.saturation
      ~spec:{ Loadgen.default_spec with Loadgen.tenant = "bench" }
      ~addr ~rates ~duration_s ()
  in
  (match Loadgen.shutdown addr with
  | Ok _ -> ()
  | Error _ -> Serve_server.shutdown server);
  Thread.join daemon;
  match result with
  | Error e -> Printf.printf "serve saturation sweep failed: %s\n" e
  | Ok summaries ->
      print_endline (Loadgen.render summaries);
      let doc = Loadgen.report summaries in
      add_section "serve_saturation" (Json.Obj doc.Agp_obs.Report.sections)

let () =
  Printf.printf "aggrpipe benchmark harness — reproduction of ISCA'17 evaluation\n";
  Printf.printf "workload scale: %s\n" scale_name;
  table1 ();
  fig9 ();
  fig10 ();
  resources ();
  schedules ();
  amplification ();
  observability ();
  backends ();
  ablations ();
  substrates ();
  sim_throughput ();
  runtime_throughput ();
  serve_saturation ();
  run_microbenches ();
  write_json_report ();
  print_endline "\nbench: done"
