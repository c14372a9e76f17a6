(* Tests for the dataflow IR and the cycle-level accelerator model. *)

module Bdfg = Agp_dataflow.Bdfg
module Config = Agp_hw.Config
module Memory = Agp_hw.Memory
module Resource = Agp_hw.Resource
module Accelerator = Agp_hw.Accelerator
module App_instance = Agp_apps.App_instance
module Bfs_app = Agp_apps.Bfs_app
module Sssp_app = Agp_apps.Sssp_app
module Mst_app = Agp_apps.Mst_app
module Dmr_app = Agp_apps.Dmr_app
module Lu_app = Agp_apps.Lu_app

let check = Alcotest.check
let ok_result = Alcotest.result Alcotest.unit Alcotest.string

(* --- BDFG --- *)

let graph sp = Bdfg.of_program (Agp_core.Opcode.compile sp)

let all_specs =
  [
    Bfs_app.spec_speculative;
    Bfs_app.spec_coordinative;
    Sssp_app.spec_speculative;
    Mst_app.spec_speculative;
    Dmr_app.spec_speculative;
    Lu_app.spec_coordinative;
  ]

let test_bdfg_compiles_all () =
  List.iter
    (fun sp ->
      let g = graph sp in
      match Bdfg.validate g with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" sp.Agp_core.Spec.spec_name e)
    all_specs

let test_bdfg_structure_bfs () =
  let g = graph Bfs_app.spec_speculative in
  let update = Bdfg.actors_of_set g "update" in
  let has kind = List.exists (fun a -> a.Bdfg.kind = kind) update in
  check Alcotest.bool "has entry" true (has Bdfg.Entry);
  check Alcotest.bool "has rendezvous" true (has Bdfg.Rendezvous);
  check Alcotest.bool "has rule alloc" true (has (Bdfg.Rule_alloc "level_guard"));
  check Alcotest.bool "has event port" true (has (Bdfg.Event "commit_level"));
  check Alcotest.bool "has squash" true (has Bdfg.Squash);
  check Alcotest.bool "has visit spawner" true (has (Bdfg.Spawn "visit"));
  check Alcotest.bool "stage count positive" true (Bdfg.stage_count g "update" > 5)

let test_bdfg_switch_branches () =
  let g = graph Bfs_app.spec_speculative in
  let switches =
    List.filter (fun a -> a.Bdfg.kind = Bdfg.Switch) (Bdfg.actors_of_set g "update")
  in
  check Alcotest.bool "switches exist" true (switches <> []);
  List.iter
    (fun sw ->
      let succ = Bdfg.successors g sw.Bdfg.id in
      check Alcotest.bool "true branch" true (List.exists (fun (_, b) -> b = Some true) succ);
      check Alcotest.bool "false branch" true (List.exists (fun (_, b) -> b = Some false) succ))
    switches

let test_bdfg_dot () =
  let g = graph Lu_app.spec_coordinative in
  let dot = Bdfg.to_dot g in
  check Alcotest.bool "digraph" true (String.length dot > 50);
  check Alcotest.bool "has cluster" true
    (String.length dot > 0 && String.index_opt dot '{' <> None)

(* --- memory model --- *)

let test_memory_hit_miss () =
  let mem = Memory.create Config.default in
  let t1 = Memory.access mem ~now:0 ~addr:0 ~is_write:false in
  check Alcotest.bool "miss slower than hit latency" true (t1 > Config.default.Config.hit_latency);
  let t2 = Memory.access mem ~now:t1 ~addr:8 ~is_write:false in
  check Alcotest.int "same line hits" (t1 + Config.default.Config.hit_latency) t2;
  let s = Memory.stats mem in
  check Alcotest.int "one miss" 1 s.Memory.misses;
  check Alcotest.int "one hit" 1 s.Memory.hits

let test_memory_bandwidth_throttles () =
  (* Many concurrent misses must serialize on the link: with scaled-up
     bandwidth the same burst completes sooner. *)
  let burst cfg =
    let mem = Memory.create cfg in
    Memory.access_burst mem ~now:0 ~n:64 ~addr:(fun i -> i * 4096) ~is_write:(fun _ -> false)
  in
  let slow = burst Config.default in
  let fast = burst (Config.scale_bandwidth Config.default 8.0) in
  check Alcotest.bool "8x bandwidth is faster" true (fast < slow)

let test_memory_conflict_eviction () =
  let mem = Memory.create Config.default in
  let cache_span = Config.default.Config.cache_bytes in
  ignore (Memory.access mem ~now:0 ~addr:0 ~is_write:false);
  ignore (Memory.access mem ~now:100 ~addr:cache_span ~is_write:false);
  (* same set, different tag: evicted *)
  ignore (Memory.access mem ~now:200 ~addr:0 ~is_write:false);
  check Alcotest.int "three misses" 3 (Memory.stats mem).Memory.misses

(* --- resource model --- *)

let test_resource_breakdown () =
  let b = Resource.breakdown Bfs_app.spec_speculative Config.default in
  check Alcotest.bool "fits device" true (Resource.fits b);
  check Alcotest.bool "rule regs share in paper band" true
    (b.Resource.register_share_rules > 0.01 && b.Resource.register_share_rules < 0.25)

let test_resource_heuristic_replicates () =
  let pipes = Resource.heuristic_pipelines Bfs_app.spec_speculative ~max_per_set:8 in
  List.iter (fun (_, n) -> check Alcotest.bool "replicated" true (n >= 2)) pipes;
  let cfg = Config.with_pipelines Config.default pipes in
  check Alcotest.bool "still fits" true (Resource.fits (Resource.breakdown Bfs_app.spec_speculative cfg))

let test_resource_scale_monotone () =
  let one = Resource.breakdown Bfs_app.spec_speculative Config.default in
  let four =
    Resource.breakdown Bfs_app.spec_speculative
      (Config.with_pipelines Config.default [ ("visit", 4); ("update", 4) ])
  in
  check Alcotest.bool "more pipelines, more ALMs" true
    (four.Resource.total.Resource.alms > one.Resource.total.Resource.alms)

(* --- accelerator end to end --- *)

let accel_check app =
  let run = app.App_instance.fresh () in
  let report =
    Accelerator.run ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
      ~state:run.App_instance.state ~initial:run.App_instance.initial ()
  in
  (report, run.App_instance.check ())

let test_accel_bfs () =
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph (Agp_graph.Generator.road ~weighted:true ~seed:3 ~width:12 ~height:8) 0) in
  let report, result = accel_check app in
  check ok_result "levels valid" (Ok ()) result;
  check Alcotest.bool "took cycles" true (report.Accelerator.cycles > 100);
  check Alcotest.bool "utilization sane" true
    (report.Accelerator.utilization > 0.0 && report.Accelerator.utilization <= 1.0)

let test_accel_coor_bfs () =
  let app = Bfs_app.coordinative (Bfs_app.workload_of_graph (Agp_graph.Generator.road ~weighted:true ~seed:3 ~width:12 ~height:8) 0) in
  let _, result = accel_check app in
  check ok_result "levels valid" (Ok ()) result

let test_accel_sssp () =
  let app = Sssp_app.speculative (Sssp_app.workload_of_graph (Agp_graph.Generator.random ~seed:7 ~n:60 ~m:150) 0) in
  let _, result = accel_check app in
  check ok_result "distances valid" (Ok ()) result

let test_accel_mst () =
  let app = Mst_app.speculative (Mst_app.workload_of_graph (Agp_graph.Generator.random ~seed:9 ~n:50 ~m:120)) in
  let _, result = accel_check app in
  check ok_result "tree optimal" (Ok ()) result

let test_accel_dmr () =
  let app = Dmr_app.speculative (Dmr_app.workload_of_points (Agp_graph.Generator.points ~seed:13 ~n:60 ~span:100.0)) in
  let _, result = accel_check app in
  check ok_result "mesh refined" (Ok ()) result

let test_accel_lu () =
  let app = Lu_app.coordinative (Lu_app.sized_workload ~seed:15 ~nb:4 ~bs:4 ~density:0.35) in
  let _, result = accel_check app in
  check ok_result "residual small" (Ok ()) result

let test_accel_bandwidth_helps () =
  (* the working set must exceed the 64 KB cache or QPI never matters *)
  let g = Agp_graph.Generator.road ~weighted:true ~seed:4 ~width:60 ~height:60 in
  let time factor =
    let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
    let run = app.App_instance.fresh () in
    let config = Config.scale_bandwidth Config.default factor in
    let report =
      Accelerator.run ~config ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
        ~state:run.App_instance.state ~initial:run.App_instance.initial ()
    in
    report.Accelerator.cycles
  in
  let base = time 1.0 and fast = time 8.0 in
  check Alcotest.bool "8x qpi speeds up bfs" true (fast < base)

let test_accel_more_pipelines_not_slower () =
  let g = Agp_graph.Generator.road ~weighted:true ~seed:5 ~width:16 ~height:10 in
  let time pipes =
    let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
    let run = app.App_instance.fresh () in
    let config = Config.with_pipelines Config.default pipes in
    (Accelerator.run ~config ~spec:app.App_instance.spec
       ~bindings:run.App_instance.bindings ~state:run.App_instance.state
       ~initial:run.App_instance.initial ())
      .Accelerator.cycles
  in
  let one = time [ ("visit", 1); ("update", 1) ] in
  let four = time [ ("visit", 4); ("update", 4) ] in
  check Alcotest.bool "4 pipelines not slower" true (four <= one)

let prop_accel_matches_runtime_all_apps =
  QCheck.Test.make ~name:"accelerator equals software runtime (sssp/mst)" ~count:6
    QCheck.(int_range 0 500)
    (fun seed ->
      let apps =
        [
          Sssp_app.speculative
            (Sssp_app.workload_of_graph (Agp_graph.Generator.random ~seed ~n:40 ~m:100) 0);
          Mst_app.speculative
            (Mst_app.workload_of_graph (Agp_graph.Generator.random ~seed ~n:30 ~m:80));
        ]
      in
      List.for_all
        (fun (app : App_instance.t) ->
          let run = app.App_instance.fresh () in
          ignore
            (Accelerator.run ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
               ~state:run.App_instance.state ~initial:run.App_instance.initial ());
          run.App_instance.check () = Ok ())
        apps)

let test_accel_lane_starvation_still_correct () =
  (* tiny lane budget: heavy stalling but never wrong answers or
     deadlock, thanks to the priority lane *)
  let g = Agp_graph.Generator.road ~weighted:true ~seed:8 ~width:14 ~height:9 in
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
  let run = app.App_instance.fresh () in
  let config = { Config.default with Config.rule_lanes = 2 } in
  ignore
    (Accelerator.run ~config ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
       ~state:run.App_instance.state ~initial:run.App_instance.initial ());
  check ok_result "correct under 2 lanes" (Ok ()) (run.App_instance.check ())

(* Allocator stalls wait instead of polling: a slot stalled at the
   rule-lane allocator is tested again only when a lane may be its own.
   SPEC-SSSP at small scale stalls on every seed.  Re-polling every
   stalled slot every cycle made 4.9M-5.4M allocator tests at seeds
   1/7/42, against 102k-123k executed ops; waiting makes about 3 per
   op.  The invariant checker allocates, so it is off for these runs
   even under AGP_CHECK=1; the rule_lanes=16 event-digest rows of
   test_conformance run the stall path under it. *)
let test_accel_stalls_wait () =
  List.iter
    (fun seed ->
      let app = Agp_exp.Workloads.spec_sssp Agp_exp.Workloads.Small ~seed in
      let run = app.App_instance.fresh () in
      Agp_core.Engine.set_check_invariants false;
      let r =
        Fun.protect
          ~finally:(fun () ->
            Agp_core.Engine.set_check_invariants (Sys.getenv_opt "AGP_CHECK" = Some "1"))
          (fun () ->
            Accelerator.run ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
              ~state:run.App_instance.state ~initial:run.App_instance.initial ())
      in
      let ops = r.Accelerator.engine_stats.Agp_core.Engine.ops_executed in
      check ok_result (Printf.sprintf "seed %d correct" seed) (Ok ()) (run.App_instance.check ());
      check Alcotest.bool
        (Printf.sprintf "seed %d: some task stalled at the allocator" seed)
        true (r.Accelerator.stall_rechecks > 0);
      if r.Accelerator.stall_rechecks > 4 * ops then
        Alcotest.failf "seed %d: %d stall re-tests for %d executed ops (bound 4 per op)" seed
          r.Accelerator.stall_rechecks ops;
      (* waiting allocates nothing per scan: 0.24 words/cycle measured,
         the growth of the core's arrays; a closure per re-test read 2.8 *)
      if r.Accelerator.minor_words_per_cycle > 0.5 then
        Alcotest.failf "seed %d: %.3f minor words per cycle (ceiling 0.5)" seed
          r.Accelerator.minor_words_per_cycle)
    [ 1; 7; 42 ]

let test_accel_deeper_window_still_correct () =
  let g = Agp_graph.Generator.road ~weighted:true ~seed:9 ~width:14 ~height:9 in
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
  let run = app.App_instance.fresh () in
  let config = { Config.default with Config.window_factor = 8 } in
  ignore
    (Accelerator.run ~config ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
       ~state:run.App_instance.state ~initial:run.App_instance.initial ());
  check ok_result "correct with deep windows" (Ok ()) (run.App_instance.check ())

let test_memory_reset_stats () =
  let mem = Memory.create Config.default in
  ignore (Memory.access mem ~now:0 ~addr:0 ~is_write:false);
  Memory.reset_stats mem;
  let s = Memory.stats mem in
  check Alcotest.int "reads cleared" 0 s.Memory.reads;
  check Alcotest.int "misses cleared" 0 s.Memory.misses

let test_resource_rule_cost_monotone_lanes () =
  let c64 = Resource.rule_engine_cost Bfs_app.spec_speculative ~lanes_per_rule:64 in
  let c256 = Resource.rule_engine_cost Bfs_app.spec_speculative ~lanes_per_rule:256 in
  check Alcotest.bool "more lanes more registers" true
    (c256.Resource.registers > c64.Resource.registers)

let test_config_bandwidth_scaling () =
  let c = Config.scale_bandwidth Config.default 4.0 in
  check (Alcotest.float 1e-9) "4x bytes per cycle"
    (4.0 *. Config.bytes_per_cycle Config.default)
    (Config.bytes_per_cycle c);
  check (Alcotest.float 1e-12) "seconds conversion" 5e-9 (Config.cycles_to_seconds c 1)

let test_accel_matches_sequential_state () =
  (* The accelerator's committed memory must equal the sequential
     oracle's — the §4.1 correctness criterion, on the machine model. *)
  let g = Agp_graph.Generator.road ~weighted:true ~seed:6 ~width:10 ~height:10 in
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
  let oracle = Agp_backend.Backend.(run sequential app) in
  let seq = Option.get oracle.Agp_backend.Backend.final in
  let run = app.App_instance.fresh () in
  ignore
    (Accelerator.run ~spec:app.App_instance.spec ~bindings:run.App_instance.bindings
       ~state:run.App_instance.state ~initial:run.App_instance.initial ());
  check (Alcotest.list Alcotest.string) "same final memory" []
    (Agp_core.State.diff seq.App_instance.state run.App_instance.state)

let () =
  Alcotest.run "agp_hw"
    [
      ( "bdfg",
        [
          Alcotest.test_case "compiles all specs" `Quick test_bdfg_compiles_all;
          Alcotest.test_case "bfs structure" `Quick test_bdfg_structure_bfs;
          Alcotest.test_case "switch branches" `Quick test_bdfg_switch_branches;
          Alcotest.test_case "dot export" `Quick test_bdfg_dot;
        ] );
      ( "memory",
        [
          Alcotest.test_case "hit/miss" `Quick test_memory_hit_miss;
          Alcotest.test_case "bandwidth throttles" `Quick test_memory_bandwidth_throttles;
          Alcotest.test_case "conflict eviction" `Quick test_memory_conflict_eviction;
        ] );
      ( "resource",
        [
          Alcotest.test_case "breakdown" `Quick test_resource_breakdown;
          Alcotest.test_case "heuristic replicates" `Quick test_resource_heuristic_replicates;
          Alcotest.test_case "scaling monotone" `Quick test_resource_scale_monotone;
        ] );
      ( "accelerator",
        [
          Alcotest.test_case "bfs" `Quick test_accel_bfs;
          Alcotest.test_case "coor-bfs" `Quick test_accel_coor_bfs;
          Alcotest.test_case "sssp" `Quick test_accel_sssp;
          Alcotest.test_case "mst" `Quick test_accel_mst;
          Alcotest.test_case "dmr" `Quick test_accel_dmr;
          Alcotest.test_case "lu" `Quick test_accel_lu;
          Alcotest.test_case "bandwidth helps" `Quick test_accel_bandwidth_helps;
          Alcotest.test_case "pipelines help" `Quick test_accel_more_pipelines_not_slower;
          Alcotest.test_case "matches sequential" `Quick test_accel_matches_sequential_state;
          Alcotest.test_case "lane starvation correct" `Quick test_accel_lane_starvation_still_correct;
          Alcotest.test_case "allocator stalls wait" `Quick test_accel_stalls_wait;
          Alcotest.test_case "deep windows correct" `Quick test_accel_deeper_window_still_correct;
          QCheck_alcotest.to_alcotest prop_accel_matches_runtime_all_apps;
        ] );
      ( "config_memory_extra",
        [
          Alcotest.test_case "memory reset" `Quick test_memory_reset_stats;
          Alcotest.test_case "rule cost monotone" `Quick test_resource_rule_cost_monotone_lanes;
          Alcotest.test_case "bandwidth scaling" `Quick test_config_bandwidth_scaling;
        ] );
    ]
