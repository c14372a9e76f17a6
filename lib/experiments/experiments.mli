(** Reproduction harness: one entry per table/figure in the paper's
    evaluation (§6).  Each returns structured rows and can render the
    same table the paper prints; EXPERIMENTS.md records paper-reported
    vs. measured values. *)

(** {1 Figure 9 — speedup over software} *)

type fig9_row = {
  app : string;
  fpga_s : float;
  cpu1_s : float;
  cpu10_s : float;
  speedup_vs_1 : float;
  speedup_vs_10 : float;
  utilization : float;
}

val fig9 : ?scale:Workloads.scale -> ?seed:int -> unit -> fig9_row list
(** All six accelerators against the 1-core and 10-core models.
    Each accelerated run is validated against the substrate reference
    before its time is reported.  @raise Failure on validation
    failure. *)

val print_fig9 : fig9_row list -> unit

(** {1 Figure 10 — QPI bandwidth sweep} *)

type fig10_row = {
  app10 : string;
  factor : float;  (** bandwidth multiplier over 7 GB/s *)
  speedup_over_1x : float;
  utilization10 : float;
  aborted : int;  (** squashed tasks: the SPEC-BFS flooding signal *)
}

val fig10 : ?scale:Workloads.scale -> ?seed:int -> ?factors:float list -> unit -> fig10_row list
(** Default factors 1, 2, 4, 8. *)

val print_fig10 : fig10_row list -> unit

(** {1 Table 1 — OpenCL BFS vs generated accelerators} *)

type table1 = {
  opencl_s : float;
  spec_bfs_s : float;
  coor_bfs_s : float;
  opencl_rounds : int;
}

val table1 : ?scale:Workloads.scale -> ?seed:int -> unit -> table1

val print_table1 : table1 -> unit

(** {1 §6.2 — resource breakdown} *)

type resource_row = {
  rapp : string;
  pipelines_used : (string * int) list;
  alms : int;
  registers : int;
  brams : int;
  rule_register_share : float;  (** paper band: 4.8–10% *)
  fits_device : bool;
}

val resources : unit -> resource_row list

val print_resources : resource_row list -> unit

(** {1 Figure 2(b) — schedule diagrams} *)

val schedule_diagram : unit -> string
(** ASCII timelines of the barrier-synchronized (synthesized) and
    dataflow (handcrafted/rule-scheduled) 2-stage BFS pipelines on the
    paper's 6-vertex example graph. *)
