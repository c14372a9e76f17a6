(** Architectural parameters of the modelled CPU-FPGA platform.

    Defaults reproduce the evaluation platform of §6: an Altera
    Stratix V behind Intel HARP's QPI-attached CCI with a 64 KB cache,
    200 MHz fabric clock, 70 ns cache hits and ~200 ns misses
    (Choi et al., DAC'16). *)

type t = {
  clock_mhz : float;  (** fabric clock (200) *)
  cache_bytes : int;  (** CCI cache size (64 KB) *)
  line_bytes : int;  (** cache line (64 B) *)
  hit_latency : int;  (** cycles for a cache hit (14 = 70 ns) *)
  miss_latency : int;  (** added cycles for a QPI round trip (40 = 200 ns) *)
  qpi_gbps : float;  (** shared-memory bandwidth (7.0), scaled in Fig. 10 *)
  pipelines : (string * int) list;
      (** replication per task set; empty = 1 each (the resource
          heuristic of §6.3 fills this in) *)
  rule_lanes : int;  (** lanes across the rule engines (256) *)
  mlp : int;
      (** memory-level parallelism of a prim's access burst (4).  Derived
          per app: [Agp_backend.Backend.derive_config] overwrites it with
          the app's [fpga_mlp] before every backend run, so {!default}'s
          value reaches only a direct [Accelerator.run] *)
  prim_latency : (string * int) list;
      (** per-kernel pipeline occupancy in cycles (default 4 for a kernel
          not listed).  Derived per app, like [mlp]:
          [Agp_backend.Backend.derive_config] replaces the list with one
          entry per kernel of the app's [kernel_flops] ([flops / fpga_ilp],
          at least 2), so {!default}'s empty list reaches only a direct
          [Accelerator.run] *)
  queue_banks : int;  (** banks per multi-bank task queue (8) *)
  window_factor : int;
      (** in-flight tasks per pipeline as a multiple of its stage count
          (2): the depth of the dynamic-dataflow reordering window *)
}

val default : t

val scale_bandwidth : t -> float -> t
(** Multiply the QPI bandwidth (the x-axis of Fig. 10). *)

val with_pipelines : t -> (string * int) list -> t

val bytes_per_cycle : t -> float

val cycles_to_seconds : t -> int -> float

val pipeline_count : t -> string -> int
