(* Tests for the §4.4 debugging tracer and the design-space explorer. *)

module Worker_trace = Agp_obs.Worker_trace
module Backend = Agp_backend.Backend
module Explore = Agp_exp.Explore
module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
open Agp_core

let check = Alcotest.check

(* agp trace's run: the runtime with a worker-timeline tap as its sink *)
let traced ?(workers = 4) ?(ticks = 40) app =
  let t = Worker_trace.create ~ticks in
  let res = Backend.run ~sink:(Worker_trace.sink t) (Backend.runtime ~workers ()) app in
  (res, t)

let traced_bfs ?workers ?ticks () =
  traced ?workers ?ticks (Workloads.spec_bfs Workloads.Small ~seed:42)

let sum f t = List.fold_left (fun acc row -> acc + f row) 0 (Worker_trace.summary t)

let test_trace_produces_valid_result () =
  let res, _ = traced_bfs () in
  check (Alcotest.result Alcotest.unit Alcotest.string) "traced run correct" (Ok ())
    res.Backend.check

let test_trace_records_lifecycle () =
  let _, t = traced_bfs () in
  check Alcotest.bool "commits recorded" true (sum (fun (_, c, _, _, _) -> c) t > 0);
  check Alcotest.bool "aborts recorded" true (sum (fun (_, _, a, _, _) -> a) t > 0);
  check Alcotest.bool "rendezvous blocks recorded" true (sum (fun (_, _, _, _, b) -> b) t > 0);
  let cells =
    String.split_on_char '\n' (Worker_trace.render t)
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun c -> c <> "")
  in
  check Alcotest.bool "indices rendered" true (List.exists (fun c -> c.[0] = '{') cells);
  check Alcotest.bool "rendezvous stalls rendered" true (List.mem "~" cells)

let test_trace_summary_consistent_with_stats () =
  let res, t = traced_bfs () in
  let stats = Option.get res.Backend.engine_stats in
  check Alcotest.int "committed match engine stats" stats.Engine.committed
    (sum (fun (_, c, _, _, _) -> c) t);
  check Alcotest.int "aborted match engine stats" stats.Engine.aborted
    (sum (fun (_, _, a, _, _) -> a) t)

let test_trace_same_schedule_as_runtime () =
  (* tracing must not perturb the schedule: step counts agree with an
     untraced run at the same worker count *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let res, _ = traced ~workers:4 app in
  let traced = Option.get (Backend.stepper_report res) in
  let untraced =
    Option.get (Backend.stepper_report (Backend.run (Backend.runtime ~workers:4 ()) app))
  in
  check Alcotest.int "same steps" untraced.Semantics.steps traced.Semantics.steps;
  check Alcotest.int "same tasks" untraced.Semantics.tasks_run traced.Semantics.tasks_run

let test_trace_timeline_renders () =
  let _, t = traced_bfs ~ticks:10 () in
  let s = Worker_trace.render t in
  check Alcotest.bool "one row per worker" true
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) = 4)

(* the summary folds the whole run, whatever its length: per-set
   commits, aborts and retries add up to the engine's counters *)
let test_trace_counts_equal_engine_stats () =
  let runs =
    List.map
      (fun name -> Result.get_ok (Workloads.find name Workloads.Small ~seed:42))
      Workloads.app_names
    @ [ Workloads.spec_bfs Workloads.Default ~seed:42 ]
  in
  List.iter
    (fun app ->
      let res, t = traced app in
      let stats = Option.get res.Backend.engine_stats in
      let name = app.App_instance.app_name in
      check Alcotest.int (name ^ " committed") stats.Engine.committed
        (sum (fun (_, c, _, _, _) -> c) t);
      check Alcotest.int (name ^ " aborted") stats.Engine.aborted
        (sum (fun (_, _, a, _, _) -> a) t);
      check Alcotest.int (name ^ " retried") stats.Engine.retried
        (sum (fun (_, _, _, r, _) -> r) t))
    runs

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
          Alcotest.test_case "counts match engine stats" `Quick
            test_trace_counts_equal_engine_stats;
          Alcotest.test_case "golden output" `Quick test_trace_golden;
        ] );
      ( "explore",
        [
          Alcotest.test_case "lu sweep" `Slow test_explore_lu;
          Alcotest.test_case "complete output" `Quick test_explore_rejects_nothing_silently;
          Alcotest.test_case "alms monotone" `Quick test_explore_more_pipelines_more_alms;
        ] );
    ]
