(** The inherently parallel abstraction of the paper (§4): irregular
    applications as well-ordered task sets whose unpredictable
    dependences are expressed as ECA rules.

    A specification is consumed by three interpreters that share its
    semantics exactly:
    - {!Semantics.oracle} — Definition 4.3, the correctness oracle;
    - {!Semantics.pipelined} — the aggressive software runtime (the
      "pure software runtime" of §4.4) with speculative/coordinative
      scheduling;
    - [Agp_hw.Accelerator] — the cycle-level FPGA model, which runs the
      same compiled program ({!Opcode}) and sizes its pipelines from
      the Boolean dataflow graph viewed over it ([Agp_dataflow]).

    Task bodies are straight-line programs over a small typed expression
    language, with structured branching ([If] becomes a BDFG switch
    actor), task activation ([Push]/[Push_iter]), rule construction and
    rendezvous ([Alloc]/[Await]), event broadcast ([Emit]), squashing
    ([Abort]/[Retry]) and opaque problem-specific kernels ([Prim]). *)

(** {1 Expressions} *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Const of Value.t
  | Param of int  (** payload field of the current task *)
  | Var of string  (** local binding introduced by [Let]/[Load]/[Prim] *)
  | Binop of binop * expr * expr
  | Not of expr
  | Neg of expr

val int : int -> expr
(** [Const (Int n)]. *)

val bool : bool -> expr

(** {1 Task body operations} *)

type op =
  | Let of string * expr
  | Load of string * string * expr  (** [Load (dst, array, addr)] *)
  | Store of string * expr * expr  (** [Store (array, addr, value)] *)
  | Push of string * expr list  (** activate a task in a named set *)
  | Push_iter of string * expr * expr * string * expr list
      (** [Push_iter (set, lo, hi, i, payload)]: activate one task per
          [i] in [\[lo, hi)]; payload may reference [Var i].  This is the
          task-spawner actor for data-dependent inner loops. *)
  | Alloc of string * string * expr list
      (** [Alloc (handle, rule, params)]: construct a rule instance. *)
  | Await of string * string
      (** [Await (dst, handle)]: rendezvous — stall until the rule
          resolves, binding the returned boolean. *)
  | Emit of string * expr list
      (** [Emit (label, fields)]: broadcast an event to all rule
          instances. *)
  | If of expr * op list * op list
  | Abort  (** squash this task permanently *)
  | Retry  (** squash and re-activate this task with the same index *)
  | Prim of string list * string * expr list
      (** [Prim (dsts, name, args)]: problem-specific kernel bound at
          execution time; may read/write Σ and side structures. *)

(** {1 Rules (ECA grammar, §4.2.2)} *)

type event_pat =
  | On_activated of string  (** a task enters the named set *)
  | On_reached of string * string  (** a task in the set executes [Emit label] *)
  | On_min_changed
      (** the minimum uncommitted task changed; fields are its payload
          (the broadcast of Fig. 8 (4)) *)

(** Conditions are evaluated with the rule instance's constructor
    parameters and the triggering event's broadcast fields in scope. *)
type cond =
  | CConst of bool
  | CParam of int  (** constructor parameter (as value; use comparisons) *)
  | CField of int  (** event field *)
  | CEarlier  (** the event's task is strictly earlier in the well-order *)
  | CLater
  | CBinop of binop * cond * cond
  | CNot of cond
  | COverlap of int * int
      (** [COverlap (p, f)]: the parameter tail starting at [p]
          intersects the field tail starting at [f] — the bounded-set
          comparator template used by SPEC-DMR cavities.  Negative
          integers act as invalid CAM entries (padding) and never
          match. *)

type action =
  | Return_bool of bool  (** resolve the rendezvous with this value *)
  | Decrement
      (** countdown toward 0; at 0 the rule resolves [true] (the
          coordinative dependence-counting template used by COOR-LU) *)

type clause = {
  on : event_pat;
  condition : cond;
  action : action;
}

(** When the mandatory [otherwise] exit path fires (§4.2.1 liveness):
    - [Min_waiting]: the parent is the minimum task among those stalled
      at a rendezvous — the paper's deadlock-free default; tolerates
      out-of-order commits (the spec must make them benign, as SPEC-BFS
      and SPEC-SSSP do with their re-validation guards).
    - [Min_uncommitted]: the parent is the minimum among {e all}
      uncommitted tasks — commits retire in well-order, giving exact
      sequential semantics (needed by SPEC-MST's weight order and
      COOR-LU/COOR-BFS dependence order); requires rule-engine lanes
      sized to the in-flight window to stay deadlock-free. *)
type otherwise_scope =
  | Min_waiting
  | Min_uncommitted

type rule = {
  rule_name : string;
  n_params : int;  (** -1 for variadic (e.g. cavity sets) *)
  clauses : clause list;
  otherwise : bool;
      (** value resolved when the parent task becomes minimal in
          [scope] — the mandatory liveness exit path *)
  scope : otherwise_scope;
  counted : bool;
      (** when true the rule is a countdown: its initial counter is
          [expected params - matching events already fired], with
          [expected] supplied in {!bindings} *)
}

(** {1 Task sets} *)

type order =
  | For_all  (** siblings tie in the well-order (do-all) *)
  | For_each  (** activation order is the well-order (do-across) *)

type task_set = {
  ts_name : string;
  ts_order : order;
  arity : int;  (** payload width *)
  body : op list;
}

(** {1 Whole specification} *)

type t = {
  spec_name : string;
  task_sets : task_set list;
  rules : rule list;
}

val task_set_slot : t -> string -> int
(** Declaration position of a task set (its well-order slot).
    @raise Not_found on unknown names. *)

val may_write : t -> string -> bool
(** [may_write t name]: whether a run of [t] can write the state array
    [name] — some [Store] names it, or [t] has a [Prim] anywhere, since
    a prim can write any array through {!State.int_array}.  When it is
    false a run only reads the array. *)

(** {1 Execution-time bindings} *)

type prim_ctx = {
  state : State.t;
  task_index : Index.t;
}

type prim_impl = prim_ctx -> Value.t list -> Value.t list

type bindings = {
  prims : (string * prim_impl) list;
  expected : (string * (Value.t list -> int)) list;
      (** per counted rule: total number of matching events that will
          ever fire for these constructor params *)
}

val no_bindings : bindings

(** {1 Validation} *)

val validate : t -> (unit, string list) result
(** Static checks: unique names, payload arities on every push, rule
    references resolve, [Await] handles are allocated first, parameters
    in range, counted rules carry no [Return_bool] countdown confusion,
    and no [Store]/[Push] precedes an [Abort]/[Retry] in the same
    branch after the last [Await] (the squash-safety discipline). *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing of the whole specification. *)
