open Agp_core
module Mesh = Agp_geometry.Mesh
module Delaunay = Agp_geometry.Delaunay
module Refinement = Agp_geometry.Refinement

type workload = { points : (float * float) array }

let workload_of_points points = { points }

let cavity_signature_width = 16

let cavity_vars = List.init cavity_signature_width (fun i -> Printf.sprintf "c%d" i)

let spec_speculative : Spec.t =
  let open Spec in
  let sig_vars = List.map (fun v -> Var v) ("ov" :: cavity_vars) in
  {
    spec_name = "spec-dmr";
    task_sets =
      [
        {
          ts_name = "refine";
          ts_order = For_each;
          arity = 1;
          (* payload: [spawn_slot]; spawn.(slot) is the triangle id *)
          body =
            [
              Load ("tri", "spawn", Param 0);
              Prim ([ "bad" ], "dmr_check", [ Var "tri" ]);
              If
                ( Var "bad",
                  [
                    Prim ("ov" :: cavity_vars, "dmr_cavity", [ Var "tri" ]);
                    Alloc ("h", "cavity_guard", sig_vars);
                    Await ("ok", "h");
                    If
                      ( Var "ok",
                        [
                          Emit ("commit_cavity", sig_vars);
                          Prim ([ "okc"; "stale"; "start"; "count" ], "dmr_commit", [ Var "tri" ]);
                          If
                            ( Var "okc",
                              [
                                If
                                  ( Binop (Gt, Var "count", int 0),
                                    [
                                      Push_iter
                                        ( "refine",
                                          Var "start",
                                          Binop (Add, Var "start", Var "count"),
                                          "i",
                                          [ Var "i" ] );
                                    ],
                                    [] );
                              ],
                              [ If (Var "stale", [ Retry ], [ Abort ]) ] );
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
          rule_name = "cavity_guard";
          n_params = -1;
          clauses =
            [
              {
                (* an earlier task committing an overlapping cavity (or
                   either side overflowing its signature) invalidates us *)
                on = On_reached ("refine", "commit_cavity");
                condition =
                  CBinop
                    ( And,
                      CEarlier,
                      CBinop
                        ( Or,
                          COverlap (1, 1),
                          CBinop
                            ( Or,
                              CBinop (Eq, CParam 0, CConst true),
                              CBinop (Eq, CField 0, CConst true) ) ) );
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_waiting;
          counted = false;
        };
      ];
  }

let make_run (w : workload) =
  let t = Delaunay.triangulate w.points in
  let cfg = Refinement.default_config in
  let state = State.create () in
  let spawn_capacity = 200_000 in
  let spawn = Array.make spawn_capacity (-1) in
  let initial_bad = Refinement.bad_triangles cfg t in
  List.iteri (fun i tri -> spawn.(i) <- tri) initial_bad;
  let cursor = ref (List.length initial_bad) in
  State.add_int_array state "spawn" spawn;
  (* Synthetic triangle-record addresses so the memory system sees the
     irregular walk over the mesh arena: one 8-word record per triangle
     slot (the array is registered last, so indices beyond its nominal
     length still map to unique flat addresses). *)
  State.add_int_array state "tri_data" (Array.make 1 0);
  let touch_tri (ctx : Spec.prim_ctx) tri is_write =
    State.touch ctx.Spec.state "tri_data" (8 * tri) is_write
  in
  (* Per-task cavity stash, keyed by the task's well-order index (stable
     across nothing — a Retry re-executes with the same index and simply
     overwrites its stale entry). *)
  let stash : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  let check_prim ctx args =
    let tri = Value.to_int (List.hd args) in
    touch_tri ctx tri false;
    [ Value.Bool (Refinement.is_bad cfg t tri) ]
  in
  let cavity_prim (ctx : Spec.prim_ctx) args =
    let tri = Value.to_int (List.hd args) in
    let center = Mesh.circumcenter t.Delaunay.mesh tri in
    let cavity =
      match Delaunay.locate t.Delaunay.mesh ~hint:tri center with
      | Some start -> Delaunay.cavity_of t.Delaunay.mesh ~start center
      | None -> [ tri ]
    in
    List.iter (fun c -> touch_tri ctx c false) cavity;
    Hashtbl.replace stash (Index.to_string ctx.Spec.task_index) cavity;
    let overflow = List.length cavity > cavity_signature_width in
    let padded =
      List.init cavity_signature_width (fun i ->
          match List.nth_opt cavity i with
          | Some c -> Value.Int c
          | None -> Value.Int (-1))
    in
    Value.Bool overflow :: padded
  in
  let commit_prim (ctx : Spec.prim_ctx) args =
    let tri = Value.to_int (List.hd args) in
    let key = Index.to_string ctx.Spec.task_index in
    let recorded = Option.value ~default:[] (Hashtbl.find_opt stash key) in
    let fail ~stale = [ Value.Bool false; Value.Bool stale; Value.Int 0; Value.Int 0 ] in
    if not (Refinement.is_bad cfg t tri) then
      (* someone else's cavity consumed or improved our triangle *)
      fail ~stale:false
    else if not (List.for_all (fun c -> Mesh.alive t.Delaunay.mesh c) recorded) then
      (* our footprint went stale while we waited: recompute and retry *)
      fail ~stale:true
    else begin
      match Refinement.refine_one cfg t tri with
      | None -> fail ~stale:false
      | Some step ->
          List.iter (fun c -> touch_tri ctx c true) step.Refinement.killed;
          List.iter (fun c -> touch_tri ctx c true) step.Refinement.created;
          let start = !cursor in
          List.iter
            (fun nb ->
              if !cursor >= spawn_capacity then failwith "dmr: spawn buffer overflow";
              spawn.(!cursor) <- nb;
              State.touch ctx.Spec.state "spawn" !cursor true;
              incr cursor)
            step.Refinement.new_bad;
          [
            Value.Bool true;
            Value.Bool false;
            Value.Int start;
            Value.Int (List.length step.Refinement.new_bad);
          ]
    end
  in
  let bindings : Spec.bindings =
    {
      prims =
        [ ("dmr_check", check_prim); ("dmr_cavity", cavity_prim); ("dmr_commit", commit_prim) ];
      expected = [];
    }
  in
  let initial = List.init (List.length initial_bad) (fun i -> ("refine", [ Value.Int i ])) in
  let check () =
    match Mesh.validate t.Delaunay.mesh with
    | Error e -> Error ("mesh invalid: " ^ e)
    | Ok () -> begin
        match Refinement.bad_triangles cfg t with
        | [] -> Ok ()
        | bad -> Error (Printf.sprintf "%d bad triangles remain" (List.length bad))
      end
  in
  { App_instance.state; bindings; initial; check }

let speculative w =
  {
    App_instance.app_name = "SPEC-DMR";
    spec = spec_speculative;
    fresh = (fun () -> make_run w);
    (* geometric predicates: in-circle tests over the cavity walk and
       the full retriangulation with adjacency rebuild *)
    kernel_flops = [ ("dmr_check", 200); ("dmr_cavity", 4000); ("dmr_commit", 12000) ];
    fpga_ilp = 8;
    sw_task_overhead = 400;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    graph_source = None;
  }
