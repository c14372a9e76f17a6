(* Dedicated tests for the Boolean dataflow graph view of a compiled
   program. *)

module Bdfg = Agp_dataflow.Bdfg
module Spec = Agp_core.Spec
module Resource = Agp_hw.Resource
module Config = Agp_hw.Config
module Workloads = Agp_exp.Workloads

let check = Alcotest.check
let graph sp = Bdfg.of_program (Agp_core.Opcode.compile sp)

let census g set kind_pred =
  List.length (List.filter (fun a -> kind_pred a.Bdfg.kind) (Bdfg.actors_of_set g set))

let test_bfs_actor_census () =
  let g = graph Agp_apps.Bfs_app.spec_speculative in
  (* update body: 2 loads, 1 alloc, 1 rendezvous, 1 event, 1 store,
     1 spawn, 2 switches, 2 aborts, 1 commit *)
  check Alcotest.int "loads" 2 (census g "update" (function Bdfg.Load_op _ -> true | _ -> false));
  check Alcotest.int "stores" 1 (census g "update" (function Bdfg.Store_op _ -> true | _ -> false));
  check Alcotest.int "allocs" 1
    (census g "update" (function Bdfg.Rule_alloc _ -> true | _ -> false));
  check Alcotest.int "rendezvous" 1 (census g "update" (fun k -> k = Bdfg.Rendezvous));
  check Alcotest.int "events" 1 (census g "update" (function Bdfg.Event _ -> true | _ -> false));
  check Alcotest.int "switches" 2 (census g "update" (fun k -> k = Bdfg.Switch));
  check Alcotest.int "squash sinks" 2 (census g "update" (fun k -> k = Bdfg.Squash));
  check Alcotest.int "commit sinks" 1 (census g "update" (fun k -> k = Bdfg.Commit));
  check Alcotest.int "spawns" 1 (census g "update" (function Bdfg.Spawn _ -> true | _ -> false))

let test_mst_respawn_sink () =
  let g = graph Agp_apps.Mst_app.spec_speculative in
  check Alcotest.bool "retry compiles to respawn" true
    (census g "addedge" (fun k -> k = Bdfg.Respawn) >= 1)

let test_entry_has_successor () =
  let g = graph Agp_apps.Sssp_app.spec_speculative in
  let entry =
    List.find (fun a -> a.Bdfg.kind = Bdfg.Entry) (Bdfg.actors_of_set g "relax")
  in
  check Alcotest.bool "entry feeds the pipeline" true (Bdfg.successors g entry.Bdfg.id <> [])

let test_depth_vs_stage_count () =
  List.iter
    (fun (sp : Spec.t) ->
      List.iter
        (fun ts ->
          let set = ts.Spec.ts_name in
          let g = graph sp in
          let d = Bdfg.depth g set and n = Bdfg.stage_count g set in
          if not (d >= 2 && d <= n + 2) then
            Alcotest.failf "%s/%s: depth %d vs stages %d out of range" sp.Spec.spec_name set d n)
        sp.Spec.task_sets)
    [
      Agp_apps.Bfs_app.spec_speculative;
      Agp_apps.Bfs_app.spec_coordinative;
      Agp_apps.Sssp_app.spec_speculative;
      Agp_apps.Mst_app.spec_speculative;
      Agp_apps.Dmr_app.spec_speculative;
      Agp_apps.Lu_app.spec_coordinative;
    ]

let test_depth_linear_body () =
  (* a straight-line body: depth = entry + ops + commit *)
  let sp : Spec.t =
    {
      spec_name = "line";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body =
              [
                Spec.Let ("a", Spec.Param 0);
                Spec.Let ("b", Spec.Var "a");
                Spec.Let ("c", Spec.Var "b");
              ];
          };
        ];
      rules = [];
    }
  in
  let g = graph sp in
  check Alcotest.int "entry + 3 + commit" 5 (Bdfg.depth g "t")

let test_branch_merge_structure () =
  (* both branches fall through: one merge actor joins them.  When the
     then branch ends in an If of its own, the inner and outer joins
     fall on the same pc, and one 3-input merge joins all three paths. *)
  let gt0 n = Spec.Binop (Spec.Gt, Spec.Param 0, Spec.int n) in
  let diamond = Spec.If (gt0 0, [ Spec.Let ("x", Spec.int 1) ], [ Spec.Let ("x", Spec.int 2) ]) in
  let nested =
    Spec.If
      ( gt0 0,
        [ Spec.If (gt0 1, [ Spec.Let ("x", Spec.int 1) ], [ Spec.Let ("x", Spec.int 2) ]) ],
        [ Spec.Let ("x", Spec.int 3) ] )
  in
  List.iter
    (fun (name, branch, paths, stages, depth) ->
      let sp : Spec.t =
        {
          spec_name = name;
          task_sets =
            [
              {
                ts_name = "t";
                ts_order = Spec.For_each;
                arity = 1;
                body = [ branch; Spec.Store ("cell", Spec.int 0, Spec.Var "x") ];
              };
            ];
          rules = [];
        }
      in
      let g = graph sp in
      match List.filter (fun a -> a.Bdfg.kind = Bdfg.Merge) (Bdfg.actors_of_set g "t") with
      | [ m ] ->
          check Alcotest.int (name ^ ": merge in-edges") paths
            (List.length (List.filter (fun e -> e.Bdfg.dst = m.Bdfg.id) g.Bdfg.edges));
          check Alcotest.int (name ^ ": stages") stages (Bdfg.stage_count g "t");
          check Alcotest.int (name ^ ": depth") depth (Bdfg.depth g "t");
          check (Alcotest.result Alcotest.unit Alcotest.string) (name ^ ": valid") (Ok ())
            (Bdfg.validate g)
      | ms -> Alcotest.failf "%s: %d merges, not one" name (List.length ms))
    [ ("diamond", diamond, 2, 5, 6); ("nested join", nested, 3, 7, 7) ]

let test_sink_branches_no_merge () =
  (* else-branch aborts: no merge is needed *)
  let sp : Spec.t =
    {
      spec_name = "one-sided";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body =
              [
                Spec.If
                  (Spec.Binop (Spec.Gt, Spec.Param 0, Spec.int 0), [], [ Spec.Abort ]);
                Spec.Store ("cell", Spec.int 0, Spec.Param 0);
              ];
          };
        ];
      rules = [];
    }
  in
  let g = graph sp in
  check Alcotest.int "no merge" 0 (census g "t" (fun k -> k = Bdfg.Merge));
  check Alcotest.int "one squash" 1 (census g "t" (fun k -> k = Bdfg.Squash))

let test_dot_mentions_every_set () =
  let g = graph Agp_apps.Bfs_app.spec_speculative in
  let dot = Bdfg.to_dot g in
  let has sub =
    let n = String.length sub and m = String.length dot in
    let rec loop i = i + n <= m && (String.sub dot i n = sub || loop (i + 1)) in
    loop 0
  in
  check Alcotest.bool "visit cluster" true (has "\"visit\"");
  check Alcotest.bool "update cluster" true (has "\"update\"");
  check Alcotest.bool "labelled branches" true (has "[label=\"T\"]")

(* --- pinned graphs: golden/bdfg.txt holds, per app, the MD5 of
   [Bdfg.to_dot], the pipeline counts [Resource.heuristic_pipelines]
   picks and the [Resource.breakdown] totals under them, and per task
   set its [stage_count] and [depth]. --- *)

let golden_lines name =
  match
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]
  with
  | None -> Alcotest.fail ("golden/" ^ name ^ " not found")
  | Some path ->
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let bdfg_lines () =
  List.concat_map
    (fun name ->
      let sp =
        match Workloads.find name Workloads.Small ~seed:42 with
        | Ok app -> app.Agp_apps.App_instance.spec
        | Error e -> Alcotest.fail e
      in
      let g = graph sp in
      let pipes = Resource.heuristic_pipelines sp g ~max_per_set:8 in
      let t = (Resource.breakdown sp (Config.with_pipelines Config.default pipes)).Resource.total in
      Printf.sprintf "%s dot=%s pipelines=%s total=%d/%d/%d/%d" name
        (Digest.to_hex (Digest.string (Bdfg.to_dot g)))
        (String.concat "," (List.map (fun (s, n) -> Printf.sprintf "%s:%d" s n) pipes))
        t.Resource.alms t.Resource.registers t.Resource.brams t.Resource.dsps
      :: List.map
           (fun ts ->
             let set = ts.Spec.ts_name in
             Printf.sprintf "%s/%s stages=%d depth=%d" name set (Bdfg.stage_count g set)
               (Bdfg.depth g set))
           sp.Spec.task_sets)
    Workloads.app_names

let test_pinned_graphs () =
  check Alcotest.(list string) "bdfg digests" (golden_lines "bdfg.txt") (bdfg_lines ())

let () =
  Alcotest.run "agp_dataflow"
    [
      ( "bdfg",
        [
          Alcotest.test_case "bfs actor census" `Quick test_bfs_actor_census;
          Alcotest.test_case "mst respawn sink" `Quick test_mst_respawn_sink;
          Alcotest.test_case "entry connected" `Quick test_entry_has_successor;
          Alcotest.test_case "depth within bounds" `Quick test_depth_vs_stage_count;
          Alcotest.test_case "depth linear body" `Quick test_depth_linear_body;
          Alcotest.test_case "branch merge" `Quick test_branch_merge_structure;
          Alcotest.test_case "sink branches" `Quick test_sink_branches_no_merge;
          Alcotest.test_case "dot clusters" `Quick test_dot_mentions_every_set;
          Alcotest.test_case "pinned graphs and resources" `Quick test_pinned_graphs;
        ] );
    ]
