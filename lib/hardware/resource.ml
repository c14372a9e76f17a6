module Bdfg = Agp_dataflow.Bdfg
module Spec = Agp_core.Spec

type cost = {
  alms : int;
  registers : int;
  brams : int;
  dsps : int;
}

let zero = { alms = 0; registers = 0; brams = 0; dsps = 0 }

let add a b =
  {
    alms = a.alms + b.alms;
    registers = a.registers + b.registers;
    brams = a.brams + b.brams;
    dsps = a.dsps + b.dsps;
  }

let scale k c =
  { alms = k * c.alms; registers = k * c.registers; brams = k * c.brams; dsps = k * c.dsps }

let mk alms registers brams dsps = { alms; registers; brams; dsps }

(* Template costs, calibrated to typical Stratix V synthesis results
   for comparable modules (dual-port FIFOs between stages included in
   each op's cost). *)
let actor_cost (k : Bdfg.actor_kind) =
  match k with
  | Bdfg.Entry -> mk 200 400 1 0
  | Bdfg.Compute -> mk 350 700 0 1
  | Bdfg.Load_op _ | Bdfg.Store_op _ ->
      (* out-of-order unit: MSHRs and response matching dominate *)
      mk 1400 3200 4 0
  | Bdfg.Spawn _ -> mk 420 850 1 0
  | Bdfg.Spawn_iter _ -> mk 650 1300 1 1
  | Bdfg.Rule_alloc _ -> mk 220 450 0 0
  | Bdfg.Rendezvous -> mk 900 1900 2 0 (* reorder buffer for ooo returns *)
  | Bdfg.Event _ -> mk 160 320 0 0
  | Bdfg.Switch -> mk 120 240 0 0
  | Bdfg.Merge -> mk 120 240 0 0
  | Bdfg.Prim_op _ -> mk 2600 5200 8 6
  | Bdfg.Commit -> mk 60 120 0 0
  | Bdfg.Squash -> mk 60 120 0 0
  | Bdfg.Respawn -> mk 180 360 1 0

let stratix_v = mk 234_720 938_880 2_560 256

let queue_cost ~banks ~ports = add (mk 850 1500 0 0) (add (scale banks (mk 120 260 4 0)) (scale ports (mk 300 650 0 0)))

let rule_engine_cost (sp : Spec.t) ~lanes_per_rule =
  (* Lane payloads live in BRAM (cheap); the registers go to the
     allocator's grant matrix, the event bus and the per-lane
     comparators — matching the paper's observation that the engine is
     4.8-10% of registers, "most of which are consumed by the allocator
     and event bus", with negligible BRAM and logic. *)
  List.fold_left
    (fun acc (r : Spec.rule) ->
      let width = if r.Spec.n_params < 0 then 18 else max 2 r.Spec.n_params in
      let lane = mk 30 24 0 0 in
      let bus = mk 60 180 0 0 in
      let fixed = mk 520 2600 1 0 in
      add acc
        (add fixed
           (add (scale lanes_per_rule lane)
              (add (scale width bus) (mk 0 0 (1 + (lanes_per_rule / 16)) 0)))))
    zero sp.Spec.rules

let memory_system_cost = mk 9000 18000 128 0

type breakdown = {
  pipelines : cost;
  queues : cost;
  rule_engines : cost;
  memory_system : cost;
  total : cost;
  register_share_rules : float;
}

let pipeline_cost g set =
  List.fold_left (fun acc a -> add acc (actor_cost a.Bdfg.kind)) zero (Bdfg.actors_of_set g set)

(* one instance of each set's pipeline, priced from its dataflow graph *)
let set_costs (sp : Spec.t) g =
  List.map (fun ts -> (ts.Spec.ts_name, pipeline_cost g ts.Spec.ts_name)) sp.Spec.task_sets

let breakdown_of (sp : Spec.t) costs (cfg : Config.t) =
  let pipelines, queues =
    List.fold_left
      (fun (p, q) (set, c) ->
        let n = Config.pipeline_count cfg set in
        (add p (scale n c), add q (queue_cost ~banks:cfg.Config.queue_banks ~ports:n)))
      (zero, zero) costs
  in
  let lanes_per_rule =
    match sp.Spec.rules with
    | [] -> 0
    | rules -> max 1 (cfg.Config.rule_lanes / List.length rules)
  in
  let rule_engines = rule_engine_cost sp ~lanes_per_rule in
  let total = add pipelines (add queues (add rule_engines memory_system_cost)) in
  {
    pipelines;
    queues;
    rule_engines;
    memory_system = memory_system_cost;
    total;
    register_share_rules =
      (if total.registers = 0 then 0.0
       else float_of_int rule_engines.registers /. float_of_int total.registers);
  }

let breakdown sp cfg =
  breakdown_of sp (set_costs sp (Bdfg.of_program (Agp_core.Opcode.compile sp))) cfg

let fits b =
  b.total.alms <= stratix_v.alms
  && b.total.registers <= stratix_v.registers
  && b.total.brams <= stratix_v.brams
  && b.total.dsps <= stratix_v.dsps

let heuristic_pipelines (sp : Spec.t) g ~max_per_set =
  let costs = set_costs sp g in
  let rec grow n =
    let cfg = Config.with_pipelines Config.default (List.map (fun (s, _) -> (s, n + 1)) costs) in
    if n < max_per_set && fits (breakdown_of sp costs cfg) then grow (n + 1) else n
  in
  let n = max 1 (grow 1) in
  List.map (fun (s, _) -> (s, n)) costs
