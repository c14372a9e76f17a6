(* Tests for the software-baseline timing models. *)

module Cpu_model = Agp_baseline.Cpu_model
module Opencl_model = Agp_baseline.Opencl_model
module Workloads = Agp_exp.Workloads

let check = Alcotest.check

let bfs_app () = Workloads.spec_bfs Workloads.Small ~seed:42

let test_cpu_model_runs () =
  let r = Cpu_model.run (bfs_app ()) in
  check Alcotest.bool "positive 1-core time" true (r.Cpu_model.seconds_1core > 0.0);
  check Alcotest.bool "positive 10-core time" true (r.Cpu_model.seconds_10core > 0.0);
  check Alcotest.bool "tasks counted" true (r.Cpu_model.tasks > 100);
  check Alcotest.bool "accesses traced" true (r.Cpu_model.accesses > r.Cpu_model.tasks)

let test_cpu_model_parallel_faster () =
  let r = Cpu_model.run (bfs_app ()) in
  check Alcotest.bool "10 cores beat 1 core" true
    (r.Cpu_model.seconds_10core < r.Cpu_model.seconds_1core);
  check Alcotest.bool "but not superlinearly" true
    (r.Cpu_model.seconds_1core /. r.Cpu_model.seconds_10core < 11.0)

let test_cpu_model_deterministic () =
  let a = Cpu_model.run (bfs_app ()) and b = Cpu_model.run (bfs_app ()) in
  check (Alcotest.float 1e-12) "same 1-core" a.Cpu_model.seconds_1core b.Cpu_model.seconds_1core;
  check (Alcotest.float 1e-12) "same 10-core" a.Cpu_model.seconds_10core
    b.Cpu_model.seconds_10core

let test_cpu_model_more_work_more_time () =
  let small = Cpu_model.run (bfs_app ()) in
  let bigger =
    Cpu_model.run
      (Agp_apps.Bfs_app.speculative
         { graph = Agp_graph.Generator.road ~weighted:true ~seed:42 ~width:80 ~height:50; root = 0 })
  in
  check Alcotest.bool "bigger graph costs more" true
    (bigger.Cpu_model.seconds_1core > small.Cpu_model.seconds_1core)

let test_cpu_model_l1_behaviour () =
  let r = Cpu_model.run (bfs_app ()) in
  check Alcotest.bool "l1 hit rate sane" true
    (r.Cpu_model.l1_hit_rate > 0.1 && r.Cpu_model.l1_hit_rate <= 1.0)

let test_opencl_rounds_follow_depth () =
  let g = Agp_graph.Generator.road ~weighted:true ~seed:3 ~width:30 ~height:10 in
  let depth = Agp_graph.Bfs.diameter_from g 0 in
  let r = Opencl_model.run_bfs g 0 in
  check Alcotest.int "one round per level" (depth + 1) r.Opencl_model.rounds;
  check Alcotest.int "two launches per round" (2 * r.Opencl_model.rounds)
    r.Opencl_model.kernel_launches

let test_opencl_dominated_by_rounds () =
  (* Two graphs with equal vertex count: the deeper one must cost more
     (host round trips dominate on high-diameter inputs — the Table 1
     mechanism). *)
  let deep = Agp_graph.Generator.road ~weighted:true ~seed:4 ~width:300 ~height:2 in
  let shallow = Agp_graph.Generator.random ~seed:4 ~n:600 ~m:1800 in
  let rd = Opencl_model.run_bfs deep 0 and rs = Opencl_model.run_bfs shallow 0 in
  check Alcotest.bool "deep graph slower" true (rd.Opencl_model.seconds > rs.Opencl_model.seconds)

let test_opencl_vs_accelerator_gap () =
  (* the Table 1 claim at test scale: the OpenCL model is at least an
     order of magnitude behind the generated accelerator *)
  let g = Workloads.bfs_graph Workloads.Small ~seed:42 in
  let opencl = Opencl_model.run_bfs g 0 in
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let run = app.Agp_apps.App_instance.fresh () in
  let hw =
    Agp_hw.Accelerator.run ~spec:app.Agp_apps.App_instance.spec
      ~bindings:run.Agp_apps.App_instance.bindings ~state:run.Agp_apps.App_instance.state
      ~initial:run.Agp_apps.App_instance.initial ()
  in
  check Alcotest.bool "at least 10x gap" true
    (opencl.Opencl_model.seconds /. hw.Agp_hw.Accelerator.seconds > 10.0)

(* --- pinned model numbers: every app at small scale, seeds 1/7/42,
   must reproduce the CPU model's counts and, in [%h], its hit rate
   and both times, as recorded in golden/cpu-model.txt. --- *)

let cpu_fingerprint (r : Cpu_model.report) =
  Printf.sprintf
    "tasks=%d ops=%d accesses=%d parallel_steps=%d l1_hit_rate=%h seconds_1core=%h \
     seconds_10core=%h"
    r.Cpu_model.tasks r.Cpu_model.ops r.Cpu_model.accesses r.Cpu_model.parallel_steps
    r.Cpu_model.l1_hit_rate r.Cpu_model.seconds_1core r.Cpu_model.seconds_10core

(* cwd is _build/default/test under dune runtest; the repo root when
   launched by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let test_cpu_model_pinned () =
  let table =
    match golden_file "cpu-model.txt" with
    | None -> Alcotest.fail "golden/cpu-model.txt not found"
    | Some path ->
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        |> List.map (fun l ->
               match String.split_on_char ' ' l with
               | app :: seed :: fp -> ((app, int_of_string seed), String.concat " " fp)
               | _ -> Alcotest.failf "malformed cpu-model line %S" l)
  in
  let seeds = List.sort_uniq compare (List.map (fun ((_, s), _) -> s) table) in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (app : Agp_apps.App_instance.t) ->
          let name = app.Agp_apps.App_instance.app_name in
          match List.assoc_opt (name, seed) table with
          | None -> Alcotest.failf "no pinned cpu-model row for %s seed %d" name seed
          | Some want ->
              incr checked;
              check Alcotest.string
                (Printf.sprintf "%s seed %d" name seed)
                want
                (cpu_fingerprint (Cpu_model.run app)))
        (Workloads.all Workloads.Small ~seed))
    seeds;
  check Alcotest.int "every pinned row checked" (List.length table) !checked;
  check Alcotest.bool "every app x seed 1/7/42" true
    (List.length table = 3 * List.length (Workloads.all Workloads.Small ~seed:1))

(* --- a failing run leaves the state's access stream off and empty:
   the second task's prim reports an access, then raises. --- *)

module State = Agp_core.State
module Spec = Agp_core.Spec
module Value = Agp_core.Value

let failing_prim_app () =
  let st = State.create () in
  State.add_int_array st "cell" [| 0 |];
  let spec : Spec.t =
    {
      spec_name = "boom";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body = [ Spec.Prim ([], "boom", [ Spec.Param 0 ]) ];
          };
        ];
      rules = [];
    }
  in
  let bindings : Spec.bindings =
    {
      prims =
        [
          ( "boom",
            fun ctx args ->
              State.touch ctx.Spec.state "cell" 0 true;
              if Value.to_int (List.hd args) = 2 then failwith "boom";
              [] );
        ];
      expected = [];
    }
  in
  let initial = List.map (fun i -> ("t", [ Value.Int i ])) [ 1; 2; 3 ] in
  let app : Agp_apps.App_instance.t =
    {
      app_name = "BOOM";
      spec;
      fresh =
        (fun () -> { state = st; bindings; initial; check = (fun () -> Ok ()) });
      kernel_flops = [];
      fpga_ilp = 8;
      sw_task_overhead = 300;
      cpu_flops_per_cycle = 4.0;
      fpga_mlp = 4;
      graph_source = None;
    }
  in
  (app, st)

let test_stream_off_after_failure () =
  let stream_off name st =
    State.touch st "cell" 0 false;
    check Alcotest.int (name ^ ": stream off and empty") 0 (State.trace_length st)
  in
  let app, st = failing_prim_app () in
  Alcotest.check_raises "cpu model" (Failure "boom") (fun () -> ignore (Cpu_model.run app));
  stream_off "cpu model" st;
  let app, st = failing_prim_app () in
  let run = app.Agp_apps.App_instance.fresh () in
  Alcotest.check_raises "accelerator" (Failure "boom") (fun () ->
      ignore
        (Agp_hw.Accelerator.run ~spec:app.Agp_apps.App_instance.spec
           ~bindings:run.Agp_apps.App_instance.bindings ~state:st
           ~initial:run.Agp_apps.App_instance.initial ()));
  stream_off "accelerator" st

let () =
  Alcotest.run "agp_baseline"
    [
      ( "cpu_model",
        [
          Alcotest.test_case "runs" `Quick test_cpu_model_runs;
          Alcotest.test_case "parallel faster" `Quick test_cpu_model_parallel_faster;
          Alcotest.test_case "deterministic" `Quick test_cpu_model_deterministic;
          Alcotest.test_case "monotone in work" `Quick test_cpu_model_more_work_more_time;
          Alcotest.test_case "l1 behaviour" `Quick test_cpu_model_l1_behaviour;
          Alcotest.test_case "pinned numbers" `Quick test_cpu_model_pinned;
          Alcotest.test_case "stream off after a failure" `Quick test_stream_off_after_failure;
        ] );
      ( "opencl_model",
        [
          Alcotest.test_case "rounds follow depth" `Quick test_opencl_rounds_follow_depth;
          Alcotest.test_case "dominated by rounds" `Quick test_opencl_dominated_by_rounds;
          Alcotest.test_case "gap vs accelerator" `Quick test_opencl_vs_accelerator_gap;
        ] );
    ]
