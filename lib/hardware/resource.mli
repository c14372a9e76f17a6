(** FPGA resource model: per-template costs, the Stratix V
    5SGXEA7N1F45 budget, the pipeline-replication heuristic of §6.3
    ("occupy the FPGA resource as much as possible") and the §6.2
    resource breakdown (rule engines at 4.8–10% of registers). *)

type cost = {
  alms : int;
  registers : int;
  brams : int;  (** M20K blocks *)
  dsps : int;
}

val zero : cost

val add : cost -> cost -> cost

val scale : int -> cost -> cost

val actor_cost : Agp_dataflow.Bdfg.actor_kind -> cost
(** Template cost of one primitive-operation module. *)

val stratix_v : cost
(** Device budget: 234,720 ALMs / 938,880 registers / 2,560 M20K /
    256 DSP. *)

type breakdown = {
  pipelines : cost;  (** all replicated task pipelines *)
  queues : cost;  (** multi-bank task queues + wavefront allocators *)
  rule_engines : cost;  (** lanes, allocators, event buses *)
  memory_system : cost;  (** generic cache + QPI interface *)
  total : cost;
  register_share_rules : float;  (** rule engine registers / total registers *)
}

val pipeline_cost : Agp_dataflow.Bdfg.t -> string -> cost
(** One instance of the named task set's pipeline. *)

val rule_engine_cost : Agp_core.Spec.t -> lanes_per_rule:int -> cost

val breakdown : Agp_core.Spec.t -> Config.t -> breakdown
(** Resource use of a full accelerator under the given configuration. *)

val heuristic_pipelines :
  Agp_core.Spec.t -> Agp_dataflow.Bdfg.t -> max_per_set:int -> (string * int) list
(** [heuristic_pipelines spec g] uniformly replicates every task set's
    pipeline until the next replica would exceed the device budget
    (capped per set).  [g] is the spec's graph, [Bdfg.of_program] of its
    compiled program, so a caller that already holds the program (the
    simulator, through [Engine.program]) does not compile it again. *)

val fits : breakdown -> bool
