open Agp_core
module Block_matrix = Agp_sparse.Block_matrix
module Sparse_lu = Agp_sparse.Sparse_lu
module Dense_block = Agp_sparse.Dense_block

type workload = { matrix : Block_matrix.t }

let sized_workload ~seed ~nb ~bs ~density =
  { matrix = Block_matrix.random_sparse ~seed ~nb ~bs ~density }

let spec_coordinative : Spec.t =
  let open Spec in
  {
    spec_name = "coor-lu";
    task_sets =
      [
        {
          ts_name = "lutask";
          ts_order = For_each;
          arity = 13;
          body =
            [
              (* rank + the three read blocks form the rule parameters *)
              Alloc
                ( "h",
                  "deps_ready",
                  [ Param 4; Param 5; Param 6; Param 7; Param 8; Param 9; Param 10 ] );
              Await ("ok", "h");
              Prim ([], "lu_kernel", [ Param 0; Param 1; Param 2; Param 3 ]);
              Emit ("block_done", [ Param 11; Param 12 ]);
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "deps_ready";
          n_params = 7;
          clauses =
            [
              {
                (* an earlier task finished writing one of my read
                   blocks: fields (wi, wj) against my three read pairs *)
                on = On_reached ("lutask", "block_done");
                condition =
                  CBinop
                    ( And,
                      CEarlier,
                      CBinop
                        ( Or,
                          CBinop
                            ( And,
                              CBinop (Eq, CField 0, CParam 1),
                              CBinop (Eq, CField 1, CParam 2) ),
                          CBinop
                            ( Or,
                              CBinop
                                ( And,
                                  CBinop (Eq, CField 0, CParam 3),
                                  CBinop (Eq, CField 1, CParam 4) ),
                              CBinop
                                ( And,
                                  CBinop (Eq, CField 0, CParam 5),
                                  CBinop (Eq, CField 1, CParam 6) ) ) ) );
                action = Decrement;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = true;
        };
      ];
  }

let kind_of_task = function
  | Sparse_lu.Lu0 _ -> 0
  | Sparse_lu.Fwd _ -> 1
  | Sparse_lu.Bdiv _ -> 2
  | Sparse_lu.Bmod _ -> 3

let fields_of_task task =
  (* (kind, k, i, j), read blocks (padded) and written block *)
  match task with
  | Sparse_lu.Lu0 k -> ((0, k, -1, -1), [ (k, k) ], (k, k))
  | Sparse_lu.Fwd (k, j) -> ((1, k, -1, j), [ (k, k); (k, j) ], (k, j))
  | Sparse_lu.Bdiv (i, k) -> ((2, k, i, -1), [ (k, k); (i, k) ], (i, k))
  | Sparse_lu.Bmod (i, j, k) -> ((3, k, i, j), [ (i, k); (k, j); (i, j) ], (i, j))

let payload_of_task rank task =
  let (kind, k, i, j), reads, (wi, wj) = fields_of_task task in
  ignore kind;
  let padded_reads =
    let r = reads @ List.init (3 - List.length reads) (fun _ -> (-1, -1)) in
    List.concat_map (fun (a, b) -> [ a; b ]) r
  in
  List.map
    (fun n -> Value.Int n)
    ([ kind_of_task task; k; i; j; rank ] @ padded_reads @ [ wi; wj ])

let make_run (w : workload) =
  let original = w.matrix in
  let m = Block_matrix.copy original in
  let nb = m.Block_matrix.nb and bs = m.Block_matrix.bs in
  let tasks = Sparse_lu.tasks m in
  let ranked = List.mapi (fun r task -> (r, task)) tasks in
  let state = State.create () in
  (* Σ mirror of the block grid for realistic addresses: one word per
     matrix element, touched block-wise by the kernel prim. *)
  State.add_float_array state "blocks" (Array.make (nb * nb * bs * bs) 0.0);
  let touch_block (ctx : Spec.prim_ctx) bi bj is_write =
    (* charge one access per cache-line-sized chunk of the block *)
    let base = ((bi * nb) + bj) * bs * bs in
    let step = 8 in
    let k = ref 0 in
    while !k < bs * bs do
      State.touch ctx.Spec.state "blocks" (base + !k) is_write;
      k := !k + step
    done
  in
  let kernel_prim (ctx : Spec.prim_ctx) args =
    match List.map Value.to_int args with
    | [ kind; k; i; j ] ->
        let task =
          match kind with
          | 0 -> Sparse_lu.Lu0 k
          | 1 -> Sparse_lu.Fwd (k, j)
          | 2 -> Sparse_lu.Bdiv (i, k)
          | 3 -> Sparse_lu.Bmod (i, j, k)
          | _ -> invalid_arg "lu_kernel: bad kind"
        in
        let _, reads, (wi, wj) = fields_of_task task in
        List.iter (fun (bi, bj) -> if bi >= 0 then touch_block ctx bi bj false) reads;
        Sparse_lu.run_task m task;
        touch_block ctx wi wj true;
        []
    | _ -> invalid_arg "lu_kernel: bad arity"
  in
  (* Expected dependence counts from the static task list: for params
     [rank; r0i; r0j; r1i; r1j; r2i; r2j], the number of earlier tasks
     writing one of the read blocks. *)
  let expected params =
    match List.map Value.to_int params with
    | rank :: pairs ->
        let reads =
          let rec group = function
            | a :: b :: rest -> (a, b) :: group rest
            | _ -> []
          in
          List.filter (fun (a, _) -> a >= 0) (group pairs)
        in
        List.length
          (List.filter
             (fun (r, task) ->
               r < rank
               &&
               let _, _, write = fields_of_task task in
               List.mem write reads)
             ranked)
    | [] -> invalid_arg "deps_ready: no params"
  in
  let bindings : Spec.bindings =
    { prims = [ ("lu_kernel", kernel_prim) ]; expected = [ ("deps_ready", expected) ] }
  in
  let initial = List.map (fun (r, task) -> ("lutask", payload_of_task r task)) ranked in
  let check () =
    (* full reconstruction is O(nb³·bs³); sample for large matrices *)
    let r =
      if nb <= 8 then Sparse_lu.residual ~original ~factored:m
      else Sparse_lu.sampled_residual ~seed:7 ~samples:32 ~original ~factored:m
    in
    if r < 1e-7 then Ok () else Error (Printf.sprintf "LU residual too large: %g" r)
  in
  { App_instance.state; bindings; initial; check }

let coordinative w =
  let bs = w.matrix.Block_matrix.bs in
  {
    App_instance.app_name = "COOR-LU";
    spec = spec_coordinative;
    fresh = (fun () -> make_run w);
    (* dense block kernels: ~2·bs³ fused multiply-adds (bmod bound),
       mapped onto a systolic array retiring ~48 MACs per cycle *)
    kernel_flops = [ ("lu_kernel", 2 * bs * bs * bs) ];
    fpga_ilp = 48;
    sw_task_overhead = 200;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 32;
    graph_source = None;
  }
