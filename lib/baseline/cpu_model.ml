module State = Agp_core.State
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics
module Spec = Agp_core.Spec
module App_instance = Agp_apps.App_instance

type params = {
  freq_ghz : float;
  cycles_per_op : float;
  l1_bytes : int;
  l1_latency : int;
  llc_bytes : int;
  llc_latency : int;
  dram_latency : int;
  dram_gbps : float;
  stall_overlap : float;
  task_overhead_seq : float;
  task_overhead_par : float;
  cores : int;
}

let default_params =
  {
    freq_ghz = 2.8;
    cycles_per_op = 3.0;
    l1_bytes = 32 * 1024;
    l1_latency = 4;
    llc_bytes = 25 * 1024 * 1024;
    llc_latency = 32;
    dram_latency = 200;
    dram_gbps = 60.0;
    stall_overlap = 0.5;
    task_overhead_seq = 300.0;
    task_overhead_par = 500.0;
    cores = 10;
  }

type report = {
  seconds_1core : float;
  seconds_10core : float;
  tasks : int;
  ops : int;
  accesses : int;
  l1_hit_rate : float;
  parallel_steps : int;
}

(* Two-level set-associative-ish cache replay (direct-mapped per level
   is adequate for an average stall estimate). *)
type cache_replay = {
  mutable l1_hits : int;
  mutable llc_hits : int;
  mutable dram : int;
  l1 : int array;
  llc : int array;
}

let replay_access p c addr =
  let line = addr / 64 in
  let l1_slot = line mod (p.l1_bytes / 64) in
  let llc_slot = line mod (p.llc_bytes / 64) in
  if c.l1.(l1_slot) = line then c.l1_hits <- c.l1_hits + 1
  else begin
    c.l1.(l1_slot) <- line;
    if c.llc.(llc_slot) = line then c.llc_hits <- c.llc_hits + 1
    else begin
      c.llc.(llc_slot) <- line;
      c.dram <- c.dram + 1
    end
  end

(* The 1-core time is a timing shell on the ECA core, as the simulator
   is: the oracle interpretation drives the engine, and a hook replays
   each access as its op retires, a load or store from the engine's
   view, a prim's from the state's access stream. *)
let run ?(params = default_params) (app : App_instance.t) =
  let p = params in
  (* --- sequential profiled run: the oracle interpretation --- *)
  let seq = app.App_instance.fresh () in
  let st = seq.App_instance.state in
  let en = Engine.create app.App_instance.spec seq.App_instance.bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial en set payload) seq.App_instance.initial;
  let v = Engine.view en and bases = Engine.array_bases en in
  let c =
    {
      l1_hits = 0;
      llc_hits = 0;
      dram = 0;
      l1 = Array.make (p.l1_bytes / 64) (-1);
      llc = Array.make (p.llc_bytes / 64) (-1);
    }
  in
  let hooks =
    {
      Semantics.on_event =
        (fun ~tick:_ ~worker:_ _ ev ->
          match ev with
          | Semantics.Executed (Spec.Load _ | Spec.Store _) ->
              replay_access p c (bases.(v.Engine.touched_arr) + (8 * v.Engine.touched_idx))
          | Semantics.Executed (Spec.Prim _) ->
              for i = 0 to State.trace_length st - 1 do
                replay_access p c (State.trace_addr st i)
              done;
              State.clear_trace st
          | _ -> ());
    }
  in
  let seq_report =
    State.with_tracing st (fun () ->
        Semantics.run_engine (Semantics.with_hooks (Semantics.oracle ()) hooks) en)
  in
  let accesses = c.l1_hits + c.llc_hits + c.dram in
  let stats = seq_report.Semantics.stats in
  let ops = stats.Engine.ops_executed in
  let tasks = stats.Engine.committed + stats.Engine.aborted + stats.Engine.retried in
  let stall_cycles =
    float_of_int c.l1_hits *. float_of_int p.l1_latency
    +. float_of_int c.llc_hits *. float_of_int p.llc_latency
    +. float_of_int c.dram
       *. (float_of_int p.dram_latency
          +. (64.0 /. (p.dram_gbps /. p.freq_ghz)) (* line transfer in cycles *))
  in
  (* problem-specific kernel arithmetic at the referenced software's
     per-core throughput *)
  let kernel_cost counts =
    List.fold_left
      (fun acc (name, count) ->
        match List.assoc_opt name app.App_instance.kernel_flops with
        | Some flops ->
            acc +. (float_of_int (count * flops) /. app.App_instance.cpu_flops_per_cycle)
        | None -> acc)
      0.0 counts
  in
  let kernel_cycles = kernel_cost seq_report.Semantics.prim_counts in
  let seq_cycles =
    (float_of_int ops *. p.cycles_per_op)
    +. (stall_cycles *. p.stall_overlap)
    +. kernel_cycles
    +. (float_of_int (tasks * app.App_instance.sw_task_overhead))
  in
  let seconds_1core = seq_cycles /. (p.freq_ghz *. 1.0e9) in
  (* --- 10-core run: the pipelined interpretation gives the makespan --- *)
  let par = app.App_instance.fresh () in
  let par_report =
    Semantics.run ~initial:par.App_instance.initial
      (Semantics.pipelined ~workers:p.cores ())
      app.App_instance.spec par.App_instance.bindings par.App_instance.state
  in
  let par_stats = par_report.Semantics.stats in
  let par_tasks =
    par_stats.Engine.committed + par_stats.Engine.aborted + par_stats.Engine.retried
  in
  let avg_stall_per_op =
    if ops = 0 then 0.0 else stall_cycles *. p.stall_overlap /. float_of_int ops
  in
  let par_kernel_cycles = kernel_cost par_report.Semantics.prim_counts in
  (* each scheduler tick advances every busy core by one op; kernel
     arithmetic spreads across the cores that the dependence structure
     actually keeps busy (measured by the runtime) *)
  let busy = Float.max 1.0 par_report.Semantics.avg_busy in
  let par_cycles =
    (float_of_int par_report.Semantics.steps *. (p.cycles_per_op +. avg_stall_per_op))
    +. (par_kernel_cycles /. Float.min busy (float_of_int p.cores))
    +. (float_of_int par_tasks
       *. (1.7 *. float_of_int app.App_instance.sw_task_overhead)
       /. float_of_int p.cores)
  in
  let seconds_10core = par_cycles /. (p.freq_ghz *. 1.0e9) in
  {
    seconds_1core;
    seconds_10core;
    tasks;
    ops;
    accesses;
    l1_hit_rate =
      (if accesses = 0 then 1.0 else float_of_int c.l1_hits /. float_of_int accesses);
    parallel_steps = par_report.Semantics.steps;
  }
