open Agp_core
module Csr = Agp_graph.Csr
module Sssp = Agp_graph.Sssp

type workload = {
  graph : Csr.t;
  root : int;
}

(* the spec loads the weight column, so the unweighted form would only
   fail later, as a bounds error inside a run *)
let require_weighted who (g : Csr.t) =
  if not (Csr.weighted g) then invalid_arg (who ^ ": SSSP needs a weighted graph")

let workload_of_graph graph root =
  require_weighted "Sssp_app.workload_of_graph" graph;
  { graph; root }

let spec_speculative : Spec.t =
  let open Spec in
  {
    spec_name = "spec-sssp";
    task_sets =
      [
        {
          ts_name = "relax";
          ts_order = For_each;
          arity = 2;
          (* payload: [edge_index; base_distance] — propose
             base + weight for the edge head *)
          body =
            [
              Load ("w", "col", Param 0);
              Load ("wt", "weight", Param 0);
              Let ("cand", Binop (Add, Param 1, Var "wt"));
              Alloc ("h", "dist_guard", [ Var "w"; Var "cand" ]);
              Load ("cur", "dist", Var "w");
              (* the adjacency bounds are hoisted above the rendezvous:
                 they do not depend on the rule outcome, so the pipeline
                 prefetches them speculatively and the post-commit tail
                 stays off the global commit chain *)
              Load ("lo", "row_ptr", Var "w");
              Load ("hi", "row_ptr", Binop (Add, Var "w", int 1));
              If
                ( Binop (Lt, Var "cand", Var "cur"),
                  [
                    Await ("ok", "h");
                    If
                      ( Var "ok",
                        [
                          Emit ("commit_dist", [ Var "w"; Var "cand" ]);
                          Store ("dist", Var "w", Var "cand");
                          Push_iter ("relax", Var "lo", Var "hi", "e", [ Var "e"; Var "cand" ]);
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
          rule_name = "dist_guard";
          n_params = 2;
          clauses =
            [
              {
                (* any committed distance to my vertex that is at least
                   as good as my candidate dominates me *)
                on = On_reached ("relax", "commit_dist");
                condition =
                  CBinop
                    (And, CBinop (Eq, CField 0, CParam 0), CBinop (Le, CField 1, CParam 1));
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

let make_run (w : workload) =
  let g = w.graph in
  let state = State.create () in
  App_instance.add_input spec_speculative state "row_ptr" g.Csr.row_ptr;
  App_instance.add_input spec_speculative state "col" g.Csr.col;
  App_instance.add_input spec_speculative state "weight" g.Csr.weight;
  let dist = Array.make g.Csr.n Sssp.unreachable in
  dist.(w.root) <- 0;
  State.add_int_array state "dist" dist;
  let initial =
    (* host seeds one relax per out-edge of the root *)
    let lo = g.Csr.row_ptr.(w.root) and hi = g.Csr.row_ptr.(w.root + 1) in
    List.init (hi - lo) (fun i -> ("relax", [ Value.Int (lo + i); Value.Int 0 ]))
  in
  let check () =
    let got = State.int_array state "dist" in
    match Sssp.check_distances g w.root got with
    | Error _ as e -> e
    | Ok () ->
        let reference = Sssp.dijkstra g w.root in
        if got = reference then Ok ()
        else Error "distances pass the certificate but differ from Dijkstra"
  in
  { App_instance.state; bindings = Spec.no_bindings; initial; check }

let speculative w =
  require_weighted "Sssp_app.speculative" w.graph;
  {
    App_instance.app_name = "SPEC-SSSP";
    spec = spec_speculative;
    fresh = (fun () -> make_run w);
    kernel_flops = [];
    fpga_ilp = 8;
    sw_task_overhead = 300;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    graph_source = Some (w.graph, w.root);
  }
