open Agp_core
module Csr = Agp_graph.Csr
module Mst = Agp_graph.Mst
module Union_find = Agp_util.Union_find
module Packed = Agp_util.Packed

type workload = { graph : Csr.t }

(* Kruskal's order is the weight order; on the unweighted form every
   spanning tree would be minimal *)
let require_weighted who (g : Csr.t) =
  if not (Csr.weighted g) then invalid_arg (who ^ ": MST needs a weighted graph")

let workload_of_graph graph =
  require_weighted "Mst_app.workload_of_graph" graph;
  { graph }

let spec_speculative : Spec.t =
  let open Spec in
  {
    spec_name = "spec-mst";
    task_sets =
      [
        {
          ts_name = "addedge";
          ts_order = For_each;
          arity = 1;
          (* payload: [rank] into the weight-sorted edge arrays *)
          body =
            [
              Load ("u", "ea", Param 0);
              Load ("v", "eb", Param 0);
              Alloc ("h", "edge_guard", [ Var "u"; Var "v" ]);
              Prim ([ "ru" ], "mst_find", [ Var "u" ]);
              Prim ([ "rv" ], "mst_find", [ Var "v" ]);
              If
                ( Binop (Ne, Var "ru", Var "rv"),
                  [
                    Await ("ok", "h");
                    If
                      ( Var "ok",
                        [
                          Emit ("commit_edge", [ Var "u"; Var "v" ]);
                          Prim ([ "added" ], "mst_union", [ Var "u"; Var "v" ]);
                          If (Var "added", [ Store ("mst_flag", Param 0, int 1) ], []);
                        ],
                        [ Retry ] );
                  ],
                  [ Abort ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "edge_guard";
          n_params = 2;
          clauses =
            [
              {
                (* an earlier committing edge touching either of my
                   endpoints invalidates my root lookup *)
                on = On_reached ("addedge", "commit_edge");
                condition =
                  CBinop
                    ( And,
                      CEarlier,
                      CBinop
                        ( Or,
                          CBinop
                            (Or, CBinop (Eq, CField 0, CParam 0), CBinop (Eq, CField 0, CParam 1)),
                          CBinop
                            (Or, CBinop (Eq, CField 1, CParam 0), CBinop (Eq, CField 1, CParam 1))
                        ) );
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

(* the weight-sorted edge list and its three columns, built once per
   workload *)
type sorted = {
  edges : (int * int * int) array;
  ea : Packed.t;
  eb : Packed.t;
  ew : Packed.t;
}

let sort_edges g =
  let edges = Mst.sorted_edges g in
  let column f = Packed.of_array (Array.map f edges) in
  {
    edges;
    ea = column (fun (u, _, _) -> u);
    eb = column (fun (_, v, _) -> v);
    ew = column (fun (_, _, wt) -> wt);
  }

let make_run (w : workload) { edges; ea; eb; ew } =
  let g = w.graph in
  let n_edges = Array.length edges in
  let state = State.create () in
  (* the prims make every array writable, so these are int copies *)
  App_instance.add_input spec_speculative state "ea" ea;
  App_instance.add_input spec_speculative state "eb" eb;
  App_instance.add_input spec_speculative state "ew" ew;
  State.add_int_array state "uf_parent" (Array.init g.Csr.n (fun i -> i));
  State.add_int_array state "mst_flag" (Array.make (max n_edges 1) 0);
  (* The union-find forest is a side structure owned by the prims; the
     Σ array "uf_parent" exists to give the pointer chase realistic
     addresses via [touch]. *)
  let uf = Union_find.create g.Csr.n in
  let find_prim (ctx : Spec.prim_ctx) args =
    let x = Value.to_int (List.hd args) in
    let root, trace = Union_find.find_trace uf x in
    List.iter (fun slot -> State.touch ctx.Spec.state "uf_parent" slot false) trace;
    [ Value.Int root ]
  in
  let union_prim (ctx : Spec.prim_ctx) args =
    match List.map Value.to_int args with
    | [ u; v ] ->
        let added = Union_find.union uf u v in
        State.touch ctx.Spec.state "uf_parent" u true;
        State.touch ctx.Spec.state "uf_parent" v true;
        [ Value.Bool added ]
    | _ -> invalid_arg "mst_union: bad arity"
  in
  let bindings : Spec.bindings =
    { prims = [ ("mst_find", find_prim); ("mst_union", union_prim) ]; expected = [] }
  in
  let initial = List.init n_edges (fun r -> ("addedge", [ Value.Int r ])) in
  let check () =
    let flags = State.int_array state "mst_flag" in
    let chosen = ref [] in
    Array.iteri (fun r f -> if f = 1 then chosen := edges.(r) :: !chosen) flags;
    let weight = List.fold_left (fun acc (_, _, wt) -> acc + wt) 0 !chosen in
    let reference = Mst.kruskal_sorted g edges in
    Mst.check ~reference g
      { Mst.edges = List.rev !chosen; weight; components = reference.Mst.components }
  in
  { App_instance.state; bindings; initial; check }

let speculative w =
  require_weighted "Mst_app.speculative" w.graph;
  let sorted = sort_edges w.graph in
  {
    App_instance.app_name = "SPEC-MST";
    spec = spec_speculative;
    fresh = (fun () -> make_run w sorted);
    (* pointer-chase bookkeeping around each find/union *)
    kernel_flops = [ ("mst_find", 24); ("mst_union", 16) ];
    fpga_ilp = 8;
    sw_task_overhead = 400;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    (* MST has no distinguished root; 0 serves the graph-shaped baselines *)
    graph_source = Some (w.graph, 0);
  }
