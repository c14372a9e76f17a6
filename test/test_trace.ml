(* Tests for the §4.4 debugging tracer and the design-space explorer. *)

module Trace = Agp_core.Trace
module Explore = Agp_exp.Explore
module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
open Agp_core

let check = Alcotest.check

let traced_bfs ?(workers = 4) () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let t =
    Trace.run ~initial:r.App_instance.initial ~workers app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  (app, r, t)

let test_trace_produces_valid_result () =
  let _, r, _ = traced_bfs () in
  check (Alcotest.result Alcotest.unit Alcotest.string) "traced run correct" (Ok ())
    (r.App_instance.check ())

let test_trace_records_lifecycle () =
  let _, _, t = traced_bfs () in
  let has p = List.exists (fun e -> p e.Trace.kind) t.Trace.entries in
  check Alcotest.bool "starts recorded" true (has (fun k -> k = Trace.Started));
  check Alcotest.bool "commits recorded" true (has (fun k -> k = Trace.Committed));
  check Alcotest.bool "aborts recorded" true (has (fun k -> k = Trace.Aborted));
  check Alcotest.bool "rendezvous blocks recorded" true
    (has (function Trace.Blocked_at _ -> true | _ -> false));
  check Alcotest.bool "ops recorded" true
    (has (function Trace.Executed _ -> true | _ -> false))

let test_trace_summary_consistent_with_stats () =
  let _, _, t = traced_bfs () in
  let stats = t.Trace.report.Semantics.stats in
  let commits = List.fold_left (fun acc (_, c, _, _, _) -> acc + c) 0 (Trace.summarize t) in
  let aborts = List.fold_left (fun acc (_, _, a, _, _) -> acc + a) 0 (Trace.summarize t) in
  check Alcotest.int "committed match engine stats" stats.Engine.committed commits;
  check Alcotest.int "aborted match engine stats" stats.Engine.aborted aborts

let test_trace_same_schedule_as_runtime () =
  (* tracing must not perturb the schedule: step counts agree with an
     untraced run at the same worker count *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let _, _, t = traced_bfs ~workers:4 () in
  let backend = Agp_backend.Backend.runtime ~workers:4 () in
  let untraced =
    Option.get (Agp_backend.Backend.stepper_report (Agp_backend.Backend.run backend app))
  in
  check Alcotest.int "same steps" untraced.Semantics.steps t.Trace.report.Semantics.steps;
  check Alcotest.int "same tasks" untraced.Semantics.tasks_run t.Trace.report.Semantics.tasks_run

let test_trace_timeline_renders () =
  let _, _, t = traced_bfs () in
  let s = Trace.render_timeline ~max_ticks:10 t in
  check Alcotest.bool "one row per worker" true
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) = 4)

let test_trace_op_descriptors () =
  check Alcotest.string "load" "v <- arr" (Trace.op_descriptor (Spec.Load ("v", "arr", Spec.int 0)));
  check Alcotest.string "await" "await h" (Trace.op_descriptor (Spec.Await ("ok", "h")));
  check Alcotest.string "prim" "prim f" (Trace.op_descriptor (Spec.Prim ([], "f", [])))

let test_trace_entry_cap () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let t =
    Trace.run ~initial:r.App_instance.initial ~workers:4 ~max_entries:50 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  check Alcotest.int "capped" 50 (List.length t.Trace.entries);
  check (Alcotest.result Alcotest.unit Alcotest.string) "execution still completes" (Ok ())
    (r.App_instance.check ())

(* --- explorer --- *)

let test_explore_lu () =
  let app = Workloads.coor_lu Workloads.Small ~seed:42 in
  let outcomes = Explore.sweep app in
  check Alcotest.int "all candidates evaluated" (List.length Explore.default_candidates)
    (List.length outcomes);
  match Explore.best outcomes with
  | None -> Alcotest.fail "no fitting configuration"
  | Some b ->
      check Alcotest.bool "best fits" true b.Explore.fits;
      List.iter
        (fun o -> if o.Explore.fits then Alcotest.(check bool) "best minimal" true (b.Explore.cycles <= o.Explore.cycles))
        outcomes

let test_explore_rejects_nothing_silently () =
  (* every candidate must appear in the output, fitting or not *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:1 in
  let candidates =
    [ { Explore.lanes = 64; pipelines_per_set = 1; window_factor = 1 } ]
  in
  let outcomes = Explore.sweep ~candidates app in
  check Alcotest.int "one in, one out" 1 (List.length outcomes)

let test_explore_more_pipelines_more_alms () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:1 in
  let candidates =
    [
      { Explore.lanes = 64; pipelines_per_set = 1; window_factor = 1 };
      { Explore.lanes = 64; pipelines_per_set = 8; window_factor = 1 };
    ]
  in
  match Explore.sweep ~candidates app with
  | [ small; big ] ->
      check Alcotest.bool "resource cost grows" true (big.Explore.alms > small.Explore.alms)
  | _ -> Alcotest.fail "expected two outcomes"

let () =
  Alcotest.run "agp_trace_explore"
    [
      ( "trace",
        [
          Alcotest.test_case "valid result" `Quick test_trace_produces_valid_result;
          Alcotest.test_case "lifecycle recorded" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "summary matches stats" `Quick test_trace_summary_consistent_with_stats;
          Alcotest.test_case "schedule unperturbed" `Quick test_trace_same_schedule_as_runtime;
          Alcotest.test_case "timeline renders" `Quick test_trace_timeline_renders;
          Alcotest.test_case "op descriptors" `Quick test_trace_op_descriptors;
          Alcotest.test_case "entry cap" `Quick test_trace_entry_cap;
        ] );
      ( "explore",
        [
          Alcotest.test_case "lu sweep" `Slow test_explore_lu;
          Alcotest.test_case "complete output" `Quick test_explore_rejects_nothing_silently;
          Alcotest.test_case "alms monotone" `Quick test_explore_more_pipelines_more_alms;
        ] );
    ]
