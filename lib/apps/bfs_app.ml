open Agp_core
module Csr = Agp_graph.Csr
module Bfs = Agp_graph.Bfs

type workload = {
  graph : Csr.t;
  root : int;
}

let default_workload ~seed =
  { graph = Agp_graph.Generator.road ~weighted:false ~seed ~width:40 ~height:25; root = 0 }

let workload_of_graph graph root = { graph; root }

let inf = Bfs.infinity_level

(* Shared [visit] body: re-validate that our level is still current
   (squashes flooded duplicates), then spawn one update per out-edge.
   Payload: [vertex; assign_level] — neighbours of [vertex] get
   [assign_level]; [vertex] itself sits at [assign_level - 1]. *)
let visit_expand =
  let open Spec in
  [
    Load ("cur", "level", Param 0);
    If
      ( Binop (Eq, Var "cur", Binop (Sub, Param 1, int 1)),
        [
          Load ("lo", "row_ptr", Param 0);
          Load ("hi", "row_ptr", Binop (Add, Param 0, int 1));
          Push_iter ("update", Var "lo", Var "hi", "e", [ Var "e"; Param 1 ]);
        ],
        [ Abort ] );
  ]

(* SPEC-BFS: the update guards its level write with a speculative rule
   allocated BEFORE the load (closing the missed-event window), exactly
   as §4.2.2 prescribes. *)
let spec_speculative : Spec.t =
  let open Spec in
  {
    spec_name = "spec-bfs";
    task_sets =
      [
        { ts_name = "visit"; ts_order = For_each; arity = 2; body = visit_expand };
        {
          ts_name = "update";
          ts_order = For_all;
          arity = 2;
          (* payload: [edge_index; assign_level] *)
          body =
            [
              Load ("w", "col", Param 0);
              Alloc ("h", "level_guard", [ Var "w" ]);
              Load ("cur", "level", Var "w");
              If
                ( Binop (Eq, Var "cur", int inf),
                  [
                    Await ("ok", "h");
                    If
                      ( Var "ok",
                        [
                          Emit ("commit_level", [ Var "w" ]);
                          Store ("level", Var "w", Param 1);
                          Push ("visit", [ Var "w"; Binop (Add, Param 1, int 1) ]);
                        ],
                        [ Abort ] );
                  ],
                  [ Abort ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "level_guard";
          n_params = 1;
          clauses =
            [
              {
                on = On_reached ("update", "commit_level");
                condition = CBinop (And, CEarlier, CBinop (Eq, CField 0, CParam 0));
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

(* COOR-BFS: visits rendezvous immediately and are released in level
   waves by the minimum-task broadcast; updates run unguarded because
   same-level writes are benign (they write identical values). *)
let spec_coordinative : Spec.t =
  let open Spec in
  {
    spec_name = "coor-bfs";
    task_sets =
      [
        {
          ts_name = "visit";
          ts_order = For_each;
          arity = 2;
          body =
            [ Alloc ("h", "level_release", [ Param 1 ]); Await ("ok", "h") ] @ visit_expand;
        };
        {
          ts_name = "update";
          ts_order = For_all;
          arity = 2;
          body =
            [
              Load ("w", "col", Param 0);
              Load ("cur", "level", Var "w");
              If
                ( Binop (Eq, Var "cur", int inf),
                  [
                    Store ("level", Var "w", Param 1);
                    Push ("visit", [ Var "w"; Binop (Add, Param 1, int 1) ]);
                  ],
                  [ Abort ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "level_release";
          n_params = 1;
          clauses =
            [
              {
                (* release when the minimum task's level reaches ours;
                   both task sets carry the level in payload slot 1 *)
                on = On_min_changed;
                condition = CBinop (Ge, CField 1, CParam 0);
                action = Return_bool true;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

let make_run spec (w : workload) =
  let g = w.graph in
  let state = State.create () in
  App_instance.add_input spec state "row_ptr" g.Csr.row_ptr;
  App_instance.add_input spec state "col" g.Csr.col;
  let level = Array.make g.Csr.n inf in
  level.(w.root) <- 0;
  State.add_int_array state "level" level;
  let check () =
    let got = State.int_array state "level" in
    Bfs.check_levels g w.root got
  in
  {
    App_instance.state;
    bindings = Spec.no_bindings;
    initial = [ ("visit", [ Value.Int w.root; Value.Int 1 ]) ];
    check;
  }

let speculative w =
  {
    App_instance.app_name = "SPEC-BFS";
    spec = spec_speculative;
    fresh = (fun () -> make_run spec_speculative w);
    kernel_flops = [];
    fpga_ilp = 8;
    sw_task_overhead = 60;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    graph_source = Some (w.graph, w.root);
  }

let coordinative w =
  {
    App_instance.app_name = "COOR-BFS";
    spec = spec_coordinative;
    fresh = (fun () -> make_run spec_coordinative w);
    kernel_flops = [];
    fpga_ilp = 8;
    sw_task_overhead = 30;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    graph_source = Some (w.graph, w.root);
  }
