(** Timing model of the software baselines (§6.3): the
    aggressively-parallelized reference implementations on an Intel
    Xeon E5-2680 v2 (10 cores, 2.8 GHz, ~60 GB/s DRAM).

    The sequential (1-core) time is a timing shell on the ECA core, as
    the cycle simulator is: the oracle interpretation drives the engine
    ({!Agp_core.Semantics.run_engine}) and a hook replays each access
    through a CPU cache hierarchy as its op retires — a load or store
    from the engine's view, a prim's accesses from the state's access
    stream ({!Agp_core.State.touch}).  No trace is held;
    the 10-core time uses the aggressive software runtime's measured
    makespan (scheduler ticks with 10 workers) — the same semantics the
    FPGA runs — plus per-task runtime overheads typical of software
    speculation (cf. Kulkarni et al. PLDI'07, Cascaval et al. 2008).

    Absolute constants are calibrated, not measured (no Xeon in the
    loop); EXPERIMENTS.md documents the calibration.  What the model
    preserves is the first-order structure: work volume, memory
    boundedness, available parallelism and synchronization. *)

type params = {
  freq_ghz : float;  (** 2.8 *)
  cycles_per_op : float;  (** CPU cycles per abstract task-body op (3) *)
  l1_bytes : int;
  l1_latency : int;
  llc_bytes : int;
  llc_latency : int;
  dram_latency : int;  (** cycles *)
  dram_gbps : float;  (** 60 *)
  stall_overlap : float;  (** fraction of memory stalls not hidden (0.5) *)
  task_overhead_seq : float;
      (** runtime cycles per task, 1-core (300 ≈ 107 ns — the
          speculation/worklist bookkeeping of the referenced software
          systems) *)
  task_overhead_par : float;  (** runtime cycles per task, 10-core (500) *)
  cores : int;  (** 10 *)
}

val default_params : params

type report = {
  seconds_1core : float;
  seconds_10core : float;
  tasks : int;
  ops : int;
  accesses : int;
      (** memory accesses of the profiled sequential run replayed
          through the cache hierarchy: its loads and stores, and the
          accesses its prim kernels reported *)
  l1_hit_rate : float;
  parallel_steps : int;  (** 10-worker makespan in scheduler ticks *)
}

val run : ?params:params -> Agp_apps.App_instance.t -> report
(** Executes the app once sequentially (profiled) and once on the
    10-worker aggressive runtime (for the makespan), on fresh
    instances. *)
