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
  let has ending =
    List.exists
      (fun ((iv : Agp_obs.Lifecycle.interval), _) -> iv.ending = ending)
      t.Trace.occupancy
  in
  check Alcotest.bool "occupancies recorded" true (t.Trace.occupancy <> []);
  check Alcotest.bool "commits recorded" true (has "commit");
  check Alcotest.bool "aborts recorded" true (has "abort");
  check Alcotest.bool "rendezvous blocks recorded" true (has "park");
  check Alcotest.bool "occupancies span ops" true
    (List.exists
       (fun ((iv : Agp_obs.Lifecycle.interval), _) -> iv.stop > iv.start)
       t.Trace.occupancy);
  List.iter
    (fun ((iv : Agp_obs.Lifecycle.interval), index) ->
      check Alcotest.bool "worker in range" true (iv.pipe >= 0 && iv.pipe < 4);
      check Alcotest.bool "index rendered" true (index <> "" && index.[0] = '{'))
    t.Trace.occupancy

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

let test_trace_entry_cap () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let t =
    Trace.run ~initial:r.App_instance.initial ~workers:4 ~max_entries:50 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  (* 50 entries (a dispatch or a retired op each) hold fewer than 50
     occupancies, and every one of them began inside the budget *)
  let n = List.length t.Trace.occupancy in
  check Alcotest.bool "capped" true (n > 0 && n < 50);
  check Alcotest.bool "recording stopped early" true
    (List.for_all
       (fun ((iv : Agp_obs.Lifecycle.interval), _) -> iv.stop < t.Trace.report.Semantics.steps)
       t.Trace.occupancy);
  check (Alcotest.result Alcotest.unit Alcotest.string) "execution still completes" (Ok ())
    (r.App_instance.check ())

(* --- pinned CLI output: `agp trace` for every app (small scale, seed
   42, default workers and ticks) must reproduce golden/trace.txt byte
   for byte, so the timeline and summary survive any change to how the
   runtime is observed. --- *)

let cli_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "agp_cli.exe"

(* cwd is _build/default/test under dune runtest; the repo root when
   launched by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let test_trace_golden () =
  if not (Sys.file_exists cli_exe) then ()
  else
    match golden_file "trace.txt" with
    | None -> Alcotest.fail "golden/trace.txt not found"
    | Some path ->
        let pinned =
          In_channel.with_open_text path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> not (String.length l > 0 && l.[0] = '#'))
          |> String.concat "\n"
        in
        let traced app =
          let out = Filename.temp_file "agp_trace" ".txt" in
          let rc =
            Sys.command
              (Printf.sprintf "%s trace %s --scale small --seed 42 >%s 2>/dev/null" cli_exe app out)
          in
          let s = In_channel.with_open_text out In_channel.input_all in
          Sys.remove out;
          check Alcotest.int ("agp trace " ^ app ^ " exits 0") 0 rc;
          Printf.sprintf "== %s\n%s" app s
        in
        let apps = [ "spec-bfs"; "coor-bfs"; "spec-sssp"; "spec-mst"; "spec-dmr"; "coor-lu" ] in
        check Alcotest.string "agp trace output" pinned (String.concat "" (List.map traced apps))

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
          Alcotest.test_case "entry cap" `Quick test_trace_entry_cap;
          Alcotest.test_case "golden output" `Quick test_trace_golden;
        ] );
      ( "explore",
        [
          Alcotest.test_case "lu sweep" `Slow test_explore_lu;
          Alcotest.test_case "complete output" `Quick test_explore_rejects_nothing_silently;
          Alcotest.test_case "alms monotone" `Quick test_explore_more_pipelines_more_alms;
        ] );
    ]
