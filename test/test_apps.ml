(* Integration tests: every paper benchmark runs through the sequential
   oracle and the aggressive runtime, and its result is validated
   against the substrate reference. *)

module Bfs_app = Agp_apps.Bfs_app
module Sssp_app = Agp_apps.Sssp_app
module Mst_app = Agp_apps.Mst_app
module Dmr_app = Agp_apps.Dmr_app
module Lu_app = Agp_apps.Lu_app
module Backend = Agp_backend.Backend
module Conformance = Agp_backend.Conformance
open Agp_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let ok_result = Alcotest.result Alcotest.unit Alcotest.string
let sequential app = Backend.run Backend.sequential app
let runtime ~workers app = Backend.run (Backend.runtime ~workers ()) app
let stats (res : Backend.run_result) = Option.get res.Backend.engine_stats
let tasks_run (res : Backend.run_result) = Option.get res.Backend.tasks_run

(* Oracle and runtime on fresh instances, both substrate verdicts. *)
let conforms ~workers app = Conformance.check (Backend.runtime ~workers ()) app = Ok ()

let specs_validate () =
  List.iter
    (fun (name, sp) ->
      match Spec.validate sp with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" name (String.concat "; " es))
    [
      ("spec-bfs", Bfs_app.spec_speculative);
      ("coor-bfs", Bfs_app.spec_coordinative);
      ("spec-sssp", Sssp_app.spec_speculative);
      ("spec-mst", Mst_app.spec_speculative);
      ("spec-dmr", Dmr_app.spec_speculative);
      ("coor-lu", Lu_app.spec_coordinative);
    ]

let specs_printable () =
  List.iter
    (fun sp ->
      let s = Format.asprintf "%a" Spec.pp sp in
      check Alcotest.bool "nonempty listing" true (String.length s > 100))
    [ Bfs_app.spec_speculative; Lu_app.spec_coordinative; Dmr_app.spec_speculative ]

(* --- SSSP --- *)

let sssp_small () =
  Sssp_app.workload_of_graph (Agp_graph.Generator.random ~seed:11 ~n:80 ~m:220) 0

let test_sssp_sequential () =
  check ok_result "distances" (Ok ())
    (sequential (Sssp_app.speculative (sssp_small ()))).Backend.check

let test_sssp_runtime () =
  List.iter
    (fun workers ->
      check ok_result (Printf.sprintf "workers=%d" workers) (Ok ())
        (runtime ~workers (Sssp_app.speculative (sssp_small ()))).Backend.check)
    [ 1; 4; 12 ]

let test_sssp_aborts_dominated () =
  let res = runtime ~workers:8 (Sssp_app.speculative (sssp_small ())) in
  check Alcotest.bool "dominated tasks squashed" true ((stats res).Engine.aborted > 0)

let prop_sssp_random =
  QCheck.Test.make ~name:"spec-sssp correct on random graphs" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Agp_graph.Generator.random ~seed ~n:50 ~m:130 in
      conforms ~workers:6 (Sssp_app.speculative (Sssp_app.workload_of_graph g 0)))

(* --- MST --- *)

let mst_small () = Mst_app.workload_of_graph (Agp_graph.Generator.random ~seed:21 ~n:60 ~m:150)

let test_mst_sequential () =
  check ok_result "tree" (Ok ())
    (sequential (Mst_app.speculative (mst_small ()))).Backend.check

let test_mst_runtime () =
  List.iter
    (fun workers ->
      check ok_result (Printf.sprintf "workers=%d" workers) (Ok ())
        (runtime ~workers (Mst_app.speculative (mst_small ()))).Backend.check)
    [ 1; 4; 10 ]

let test_mst_retries () =
  (* A dense-ish graph provokes endpoint conflicts between concurrent
     edges, so some tasks must squash and retry. *)
  let w = Mst_app.workload_of_graph (Agp_graph.Generator.random ~seed:5 ~n:40 ~m:200) in
  let res = runtime ~workers:12 (Mst_app.speculative w) in
  check ok_result "still optimal" (Ok ()) res.Backend.check;
  check Alcotest.bool "conflicts retried" true ((stats res).Engine.retried > 0)

let prop_mst_random =
  QCheck.Test.make ~name:"spec-mst correct on random graphs" ~count:8
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Agp_graph.Generator.random ~seed ~n:40 ~m:100 in
      conforms ~workers:6 (Mst_app.speculative (Mst_app.workload_of_graph g)))

(* --- weights --- *)

(* SSSP and MST read weights, so both refuse the unweighted form when
   the workload is made, not later inside a run *)
let test_weighted_apps_reject_unweighted () =
  let g = Agp_graph.Generator.road ~weighted:false ~seed:3 ~width:12 ~height:8 in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted an unweighted graph" name
  in
  rejects "Sssp_app.workload_of_graph" (fun () -> ignore (Sssp_app.workload_of_graph g 0));
  rejects "Sssp_app.speculative" (fun () -> ignore (Sssp_app.speculative { graph = g; root = 0 }));
  rejects "Mst_app.workload_of_graph" (fun () -> ignore (Mst_app.workload_of_graph g));
  rejects "Mst_app.speculative" (fun () -> ignore (Mst_app.speculative { graph = g }));
  (* BFS reads no weight: its default workload holds none and still
     validates against the reference *)
  let bfs = Bfs_app.default_workload ~seed:3 in
  check Alcotest.bool "bfs default unweighted" false (Agp_graph.Csr.weighted bfs.Bfs_app.graph);
  check ok_result "bfs on the unweighted form" (Ok ())
    (sequential (Bfs_app.speculative bfs)).Backend.check

(* --- DMR --- *)

let dmr_small () = Dmr_app.workload_of_points (Agp_graph.Generator.points ~seed:31 ~n:80 ~span:100.0)

let test_dmr_sequential () =
  check ok_result "refined" (Ok ())
    (sequential (Dmr_app.speculative (dmr_small ()))).Backend.check

let test_dmr_runtime () =
  List.iter
    (fun workers ->
      check ok_result (Printf.sprintf "workers=%d" workers) (Ok ())
        (runtime ~workers (Dmr_app.speculative (dmr_small ()))).Backend.check)
    [ 1; 4; 10 ]

let test_dmr_does_work () =
  let res = runtime ~workers:8 (Dmr_app.speculative (dmr_small ())) in
  check Alcotest.bool "many refine tasks ran" true (tasks_run res > 10)

let prop_dmr_random =
  QCheck.Test.make ~name:"spec-dmr correct on random clouds" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let w = Dmr_app.workload_of_points (Agp_graph.Generator.points ~seed ~n:60 ~span:100.0) in
      (runtime ~workers:6 (Dmr_app.speculative w)).Backend.check = Ok ())

(* --- LU --- *)

let lu_small () = Lu_app.sized_workload ~seed:41 ~nb:5 ~bs:4 ~density:0.3

let test_lu_sequential () =
  check ok_result "residual" (Ok ())
    (sequential (Lu_app.coordinative (lu_small ()))).Backend.check

let test_lu_runtime () =
  List.iter
    (fun workers ->
      check ok_result (Printf.sprintf "workers=%d" workers) (Ok ())
        (runtime ~workers (Lu_app.coordinative (lu_small ()))).Backend.check)
    [ 1; 4; 10 ]

let test_lu_coordination_overlaps () =
  (* With enough workers, countdown rules release independent block
     tasks out of order: clause resolutions must occur (not only
     otherwise paths). *)
  let s = stats (runtime ~workers:12 (Lu_app.coordinative (lu_small ()))) in
  check Alcotest.bool "countdowns resolved" true (s.Engine.clause_resolutions > 0);
  check Alcotest.int "no squashes in coordinative mode" 0 (s.Engine.aborted + s.Engine.retried)

let prop_lu_random =
  QCheck.Test.make ~name:"coor-lu correct on random matrices" ~count:6
    QCheck.(pair (int_range 0 1000) (int_range 3 6))
    (fun (seed, nb) ->
      let w = Lu_app.sized_workload ~seed ~nb ~bs:3 ~density:0.35 in
      conforms ~workers:8 (Lu_app.coordinative w))

(* --- runtime on parallel workers (§4.4) --- *)

let test_parallel_runtime_matches_sequential () =
  (* BFS levels are unique, so every worker count must reproduce the
     sequential oracle's memory exactly (§4.1) *)
  let g = Agp_graph.Generator.random ~seed:19 ~n:60 ~m:150 in
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
  let final res = (Option.get res.Backend.final).Agp_apps.App_instance.state in
  let oracle = final (sequential app) in
  List.iter
    (fun workers ->
      Alcotest.(check (list string))
        (Printf.sprintf "identical final state, workers=%d" workers)
        []
        (State.diff oracle (final (runtime ~workers app))))
    [ 1; 4; 16 ]

let () =
  Alcotest.run "agp_apps"
    [
      ( "specs",
        [
          Alcotest.test_case "all validate" `Quick specs_validate;
          Alcotest.test_case "printable" `Quick specs_printable;
        ] );
      ( "sssp",
        [
          Alcotest.test_case "sequential" `Quick test_sssp_sequential;
          Alcotest.test_case "runtime" `Quick test_sssp_runtime;
          Alcotest.test_case "aborts dominated" `Quick test_sssp_aborts_dominated;
          qtest prop_sssp_random;
        ] );
      ( "mst",
        [
          Alcotest.test_case "sequential" `Quick test_mst_sequential;
          Alcotest.test_case "runtime" `Quick test_mst_runtime;
          Alcotest.test_case "retries on conflict" `Quick test_mst_retries;
          qtest prop_mst_random;
        ] );
      ( "weights",
        [
          Alcotest.test_case "weighted apps reject unweighted" `Quick
            test_weighted_apps_reject_unweighted;
        ] );
      ( "dmr",
        [
          Alcotest.test_case "sequential" `Quick test_dmr_sequential;
          Alcotest.test_case "runtime" `Quick test_dmr_runtime;
          Alcotest.test_case "does work" `Quick test_dmr_does_work;
          qtest prop_dmr_random;
        ] );
      ( "lu",
        [
          Alcotest.test_case "sequential" `Quick test_lu_sequential;
          Alcotest.test_case "runtime" `Quick test_lu_runtime;
          Alcotest.test_case "coordination overlaps" `Quick test_lu_coordination_overlaps;
          qtest prop_lu_random;
        ] );
      ( "parallel_runtime",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_runtime_matches_sequential;
        ] );
    ]
