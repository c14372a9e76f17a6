(** Uniform packaging of a benchmark application: its specification,
    plus a factory producing fresh runnable instances (program state,
    execution-time bindings, initial host-injected tasks, and a
    correctness check against the substrate reference).  Run one with
    [Agp_backend.Backend.run]. *)

type run = {
  state : Agp_core.State.t;
  bindings : Agp_core.Spec.bindings;
  initial : (string * Agp_core.Value.t list) list;
  check : unit -> (unit, string) result;
      (** validate the final state (and any side structures captured by
          the bindings) against the substrate's reference answer *)
}

type t = {
  app_name : string;  (** e.g. ["SPEC-BFS"] *)
  spec : Agp_core.Spec.t;
  fresh : unit -> run;
      (** a new instance of the same workload.  Bindings, side
          structures and every array the spec can write are its own;
          a workload array the spec can only read is shared, packed and
          read-only, with the workload and with every other run of it
          (see {!add_input}) *)
  kernel_flops : (string * int) list;
      (** arithmetic work per [Prim] invocation, used by both platform
          models: the FPGA charges [flops / fpga_ilp] pipeline cycles,
          the CPU charges [flops / 4] core cycles (SIMD+OoO) *)
  fpga_ilp : int;
      (** spatial parallelism of the synthesized kernel datapath: 8 for
          irregular pointer kernels, ~48 for systolic dense blocks *)
  sw_task_overhead : int;
      (** per-task scheduling/bookkeeping cycles of the referenced
          software system (lean PBFS-style worklists ~30-60; heavyweight
          speculation ~300-400) — the 10-core model scales it by 1.7 for
          contention *)
  cpu_flops_per_cycle : float;
      (** kernel arithmetic throughput of the referenced software
          per core: 4.0 for SIMD-friendly code, ~1.5 for the scalar C
          of BOTS sparselu *)
  fpga_mlp : int;
      (** outstanding memory requests of a kernel's access burst: 4 for
          pointer-chasing kernels, ~32 for streaming block fetches *)
  graph_source : (Agp_graph.Csr.t * int) option;
      (** the CSR graph and root the workload was built from, when the
          substrate is a graph — baselines that model kernel iteration
          over a graph (the AOCL-BFS round model of Table 1) read it;
          [None] for mesh/matrix substrates *)
}

val add_input : Agp_core.Spec.t -> Agp_core.State.t -> string -> Agp_util.Packed.t -> unit
(** [add_input spec state name a] registers the packed workload array
    [a] as [name] in a fresh run's [state].  When
    {!Agp_core.Spec.may_write} says [spec] cannot write [name], the run
    borrows [a] itself, read-only ({!Agp_core.State.add_packed_array});
    otherwise it gets a fresh [int array] of the same elements, which
    its stores and prims may change.  Either way a run never changes
    its workload. *)
