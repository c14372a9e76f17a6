(* Tests for the experiment harness (at Small scale so the suite stays
   fast; the shapes asserted here are the ones the paper reports). *)

module Experiments = Agp_exp.Experiments
module Workloads = Agp_exp.Workloads

let check = Alcotest.check

let test_fig9_small_shape () =
  let rows = Experiments.fig9 ~scale:Workloads.Small ~seed:42 () in
  check Alcotest.int "six apps" 6 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool (r.Experiments.app ^ " fpga time positive") true
        (r.Experiments.fpga_s > 0.0);
      check Alcotest.bool (r.Experiments.app ^ " beats nothing for free") true
        (r.Experiments.speedup_vs_1 > 0.0);
      (* the paper's headline structure: 10 cores beat the accelerator
         or are at least comparable; the accelerator beats 1 core on
         most apps.  At Small scale everything is cache-resident so we
         only assert ordering sanity. *)
      check Alcotest.bool (r.Experiments.app ^ " 10-core beats 1-core") true
        (r.Experiments.cpu10_s < r.Experiments.cpu1_s))
    rows

let test_fig10_small_shape () =
  let rows =
    Experiments.fig10 ~scale:Workloads.Small ~seed:42 ~factors:[ 1.0; 4.0 ] ()
  in
  check Alcotest.int "six apps x two factors" 12 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool "baseline normalized" true
        (r.Experiments.factor > 1.0 || r.Experiments.speedup_over_1x = 1.0);
      check Alcotest.bool "bandwidth never hurts much" true (r.Experiments.speedup_over_1x > 0.7))
    rows

let test_table1_small () =
  let t = Experiments.table1 ~scale:Workloads.Small ~seed:42 () in
  check Alcotest.bool "opencl dramatically slower" true
    (t.Experiments.opencl_s /. t.Experiments.spec_bfs_s > 50.0);
  check Alcotest.bool "coor-bfs also dramatically faster" true
    (t.Experiments.opencl_s /. t.Experiments.coor_bfs_s > 50.0);
  check Alcotest.bool "rounds = levels" true (t.Experiments.opencl_rounds > 10)

let test_resources_shape () =
  let rows = Experiments.resources () in
  check Alcotest.int "six apps" 6 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool (r.Experiments.rapp ^ " fits device") true r.Experiments.fits_device;
      check Alcotest.bool
        (r.Experiments.rapp ^ " rule share in extended band")
        true
        (r.Experiments.rule_register_share > 0.02 && r.Experiments.rule_register_share < 0.15))
    rows

let test_schedule_diagram () =
  let s = Experiments.schedule_diagram () in
  check Alcotest.bool "mentions both designs" true
    (String.length s > 100
    &&
    let has sub =
      let n = String.length sub and m = String.length s in
      let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
      loop 0
    in
    has "Synthesized" && has "dataflow");
  (* the dataflow schedule must be strictly shorter than the barrier one *)
  let count_cols line = List.length (String.split_on_char ' ' (String.trim line)) in
  let lines = String.split_on_char '\n' s in
  let v_lines = List.filter (fun l -> String.length l > 3 && String.sub l 2 2 = "V:") lines in
  match v_lines with
  | [ barrier; dataflow ] ->
      check Alcotest.bool "dataflow shorter" true (count_cols dataflow < count_cols barrier)
  | _ -> Alcotest.fail "expected two V lanes"

let test_workloads_all_valid () =
  List.iter
    (fun (app : Agp_apps.App_instance.t) ->
      match Agp_core.Spec.validate app.Agp_apps.App_instance.spec with
      | Ok () -> ()
      | Error es -> Alcotest.failf "%s: %s" app.Agp_apps.App_instance.app_name (String.concat ";" es))
    (Workloads.all Workloads.Small ~seed:1)

(* BFS reads no weights, so its workload graphs carry none *)
let test_bfs_graph_unweighted () =
  let g = Workloads.bfs_graph Workloads.Small ~seed:42 in
  check Alcotest.bool "no weights" false (Agp_graph.Csr.weighted g);
  check (Alcotest.array Alcotest.int) "empty column" [||] g.Agp_graph.Csr.weight

let test_workloads_names_agree () =
  (* [all], [app_names] and [find] agree: the i-th name resolves to the
     i-th app of [all] *)
  let apps = Workloads.all Workloads.Small ~seed:1 in
  check Alcotest.int "one name per app" (List.length apps) (List.length Workloads.app_names);
  List.iter2
    (fun name (app : Agp_apps.App_instance.t) ->
      match Workloads.find name Workloads.Small ~seed:1 with
      | Error e -> Alcotest.fail e
      | Ok found ->
          check Alcotest.string name app.Agp_apps.App_instance.app_name
            found.Agp_apps.App_instance.app_name)
    Workloads.app_names apps;
  check Alcotest.bool "unknown name rejected" true
    (Result.is_error (Workloads.find "spec-nope" Workloads.Small ~seed:1))

let test_amplification_bfs () =
  let row =
    Agp_exp.Amplification.measure ~workers:8 (Workloads.spec_bfs Workloads.Small ~seed:42)
  in
  (* speculation always activates at least the necessary work, and
     SPEC-BFS floods: activated strictly exceeds necessary *)
  check Alcotest.bool "amplification >= 1" true (row.Agp_exp.Amplification.amplification >= 1.0);
  check Alcotest.bool "bfs floods" true (row.Agp_exp.Amplification.squashed > 0);
  check Alcotest.int "accounting closes" row.Agp_exp.Amplification.activated
    (row.Agp_exp.Amplification.committed + row.Agp_exp.Amplification.squashed)

let test_amplification_lu_no_flooding () =
  let row =
    Agp_exp.Amplification.measure ~workers:8 (Workloads.coor_lu Workloads.Small ~seed:42)
  in
  (* coordination admits no conflicts: every activated task commits *)
  check Alcotest.int "no squashes" 0 row.Agp_exp.Amplification.squashed;
  check (Alcotest.float 1e-9) "amplification exactly 1" 1.0
    row.Agp_exp.Amplification.amplification

let test_scale_parse () =
  check Alcotest.bool "small" true (Workloads.scale_of_string "small" = Ok Workloads.Small);
  check Alcotest.bool "medium" true (Workloads.scale_of_string "medium" = Ok Workloads.Medium);
  check Alcotest.bool "default" true (Workloads.scale_of_string "default" = Ok Workloads.Default);
  check Alcotest.bool "large" true (Workloads.scale_of_string "large" = Ok Workloads.Large);
  check Alcotest.bool "huge" true (Workloads.scale_of_string "huge" = Ok Workloads.Huge);
  check Alcotest.bool "garbage rejected" true (Result.is_error (Workloads.scale_of_string "big"))

let () =
  Alcotest.run "agp_exp"
    [
      ( "experiments",
        [
          Alcotest.test_case "fig9 shape" `Slow test_fig9_small_shape;
          Alcotest.test_case "fig10 shape" `Slow test_fig10_small_shape;
          Alcotest.test_case "table1" `Quick test_table1_small;
          Alcotest.test_case "resources" `Quick test_resources_shape;
          Alcotest.test_case "schedule diagram" `Quick test_schedule_diagram;
          Alcotest.test_case "workloads valid" `Quick test_workloads_all_valid;
          Alcotest.test_case "bfs graphs unweighted" `Quick test_bfs_graph_unweighted;
          Alcotest.test_case "workload names agree" `Quick test_workloads_names_agree;
          Alcotest.test_case "scale parsing" `Quick test_scale_parse;
          Alcotest.test_case "amplification bfs" `Quick test_amplification_bfs;
          Alcotest.test_case "amplification lu" `Quick test_amplification_lu_no_flooding;
        ] );
    ]
