(** Boolean Dataflow Graph (BDFG) — the intermediate representation
    between the task/rule abstraction and the FPGA templates (§5.1,
    Buck's token-flow model).

    A view of the op array the ECA core runs ({!Agp_core.Opcode}): per
    task set, an entry actor fed by the set's task queue, one actor per
    reachable instruction — switch actors for conditionals and
    rendezvous (the boolean-controlled actors that make the graph a
    BDFG) — and sinks for commit/squash.  Control dependence is
    encoded as data dependence on the boolean token steering each
    switch — there is no centralized controller, which is the property
    that lets the hardware model execute tasks as freely-flowing
    tokens. *)

type actor_kind =
  | Entry  (** pops task tokens from the set's queue *)
  | Compute  (** ALU work: [Let] *)
  | Load_op of string  (** memory read from the named array *)
  | Store_op of string
  | Spawn of string  (** push one task token to the named set's queue *)
  | Spawn_iter of string  (** data-dependent task spawner (inner loop) *)
  | Rule_alloc of string  (** lane allocation in the named rule engine *)
  | Rendezvous  (** switch steered by the rule's future *)
  | Event of string  (** broadcast port onto the event bus *)
  | Switch  (** boolean switch actor (If) *)
  | Merge  (** boolean merge actor *)
  | Prim_op of string  (** problem-specific kernel *)
  | Commit
  | Squash  (** abort sink *)
  | Respawn  (** retry sink: re-enqueue with the same index *)

type actor = {
  id : int;
  kind : actor_kind;
  set : string;  (** owning task set *)
  label : string;
}

type edge = {
  src : int;
  dst : int;
  branch : bool option;
      (** for edges out of a [Switch]/[Rendezvous]: which boolean steers
          a token this way *)
}

type t = {
  actors : actor array;
  edges : edge list;  (** in the order of their [dst] ids *)
}

val of_program : Agp_core.Opcode.program -> t
(** Per task set: one [Entry]; one actor per pc reachable from the
    set's entry, its kind from the instruction, its label from the pc's
    [source]; one [Merge] per join pc, so a join of k paths is one
    k-input [Merge].  Ids follow a topological order, then branches
    before else branches, the set's [Commit] last. *)

val actors_of_set : t -> string -> actor list
(** In pipeline order (a topological order of the subgraph). *)

val stage_count : t -> string -> int
(** Primitive operations in one pipeline instance of the set —
    the denominator of the utilization metric. *)

val depth : t -> string -> int
(** Longest actor chain from the set's entry to a sink — the pipeline
    depth (fill latency in stages) of one instance. *)

val successors : t -> int -> (actor * bool option) list

val validate : t -> (unit, string) result
(** Every subgraph has exactly one [Entry], all non-sink actors have a
    successor, switches have both branches, and the graph is acyclic
    within a task body. *)

val to_dot : t -> string
(** Graphviz rendering (one cluster per task set). *)
