(** Spec → flat op-array compiler for the ECA core ({!Engine}).

    Task-set bodies compile into one shared instruction array indexed
    by pc; every instruction embeds the pc of its continuation, so a
    task never walks a list, and {!Engine.create} compiles each pc once
    into a closure that executes it.  Expressions and rule conditions
    become postfix bytecode evaluated over preallocated scratch stacks:
    the engine runs it for every rule condition, for every operand
    shape its op closures do not read inline, and for every tag their
    inline reads do not take.  Variables, handles,
    state arrays, event labels and prim names are all interned to dense
    integer ids so the engine's hot state can live in flat int arrays.

    The compiler changes representation only: evaluation semantics
    (numeric promotion, division checks, error strings, out-of-range
    clause probes) are those of the test suite's reference evaluator
    ([test/interp.ml]).

    It also precomputes a listener table: for every event the core can
    fire (activated(set), reached(set, label), min_changed), the rules
    with a clause that can match it.  The core delivers an event only
    to those rules' instances.

    Finally it gives a rule a key (f, p) when every clause condition is
    an [And]-chain with the conjunct [Eq (CField f, CParam p)] and
    whose other conjuncts are [CEarlier], [CLater], [CConst] or
    comparisons between two [CField]/[CParam] leaves.  Such a condition
    is false, without raising, for an instance whose int param [p]
    differs from the event's int field [f], as long as no leaf it
    compares is a bool: the core hashes those instances by key and an
    event visits only its key's bucket.  Counted rules and rules with a
    min_changed clause are never keyed. *)

type eop =
  | E_int of int
  | E_float of float
  | E_bool of bool
  | E_param of int  (** task payload field *)
  | E_reg of int * string  (** register slot; name kept for the unbound error *)
  | E_binop of Spec.binop
  | E_not
  | E_neg
  | E_cparam of int  (** rule-instance param (out-of-range aborts the clause) *)
  | E_cfield of int  (** event field (out-of-range aborts the clause) *)
  | E_earlier
  | E_later
  | E_overlap of int * int

type inst =
  | I_let of { dst : int; e : eop array; next : int }
  | I_load of { dst : int; arr : int; addr : eop array; next : int }
  | I_store of { arr : int; addr : eop array; v : eop array; next : int }
  | I_push of { set : int; args : eop array array; next : int }
  | I_push_iter of {
      set : int;
      lo : eop array;
      hi : eop array;
      ivar : int;
      args : eop array array;
      next : int;
    }
  | I_alloc of { handle : int; rule : int; args : eop array array; next : int }
  | I_await of { dst : int; handle : int; handle_name : string; next : int }
  | I_emit of { label : int; args : eop array array; next : int }
  | I_if of { c : eop array; then_pc : int; else_pc : int }
  | I_abort
  | I_retry
  | I_prim of { dsts : int array; prim : int; name : string; args : eop array array; next : int }
  | I_commit  (** empty continuation: the task commits *)

type cclause = {
  c_kind : int;  (** 0 = activated(set), 1 = reached(set,label), 2 = min_changed *)
  c_set : int;  (** source task-set slot, -1 for min_changed *)
  c_label : int;  (** label id for reached, -1 otherwise *)
  c_cond : eop array;
  c_return : bool option;  (** None = Decrement *)
}

type crule = {
  r_name : string;
  r_clauses : cclause array;
  r_otherwise : bool;
  r_min_waiting : bool;  (** otherwise scope is [Min_waiting] *)
  r_counted : bool;
  r_key_field : int;  (** event field of the key conjunct; -1 = the rule is unkeyed *)
  r_key_param : int;  (** rule param of the key conjunct *)
  r_reads_f : int array;
      (** keyed rules: every [CField] index the clauses read (sorted);
          an event delivers by key only when none of them is a bool *)
  r_reads_p : int array;
      (** keyed rules: every [CParam] index the clauses read (sorted);
          an instance is hashed by key only when none of them is a bool *)
}

type program = {
  code : inst array;
  source : Spec.op option array;
      (** the spec operation each pc was compiled from ([None] at the
          shared commit pc) — where [Agp_dataflow.Bdfg.of_program]
          takes its actor labels *)
  entry : int array;  (** per task-set slot *)
  n_sets : int;
  set_names : string array;
  set_for_each : bool array;
  max_arity : int;
  max_regs : int;
  set_regs : string array array;  (** per set: register slot -> variable name *)
  max_handles : int;
  rules : crule array;
  labels : string array;
  array_names : string array;  (** state arrays referenced by Load/Store *)
  prim_names : string array;
  max_stack : int;  (** expression scratch-stack depth *)
  max_push_args : int;
  max_rule_params : int;  (** widest Alloc argument list *)
  max_event_fields : int;  (** widest event field vector (payloads + emits) *)
  has_counted : bool;
  listeners : int array array;
      (** indexed by {!listener_slot}: the rules (ascending ids) with a
          clause on that event *)
}

val listener_slot : program -> kind:int -> set:int -> label:int -> int
(** Slot of an event in [listeners]: [kind] 0 = activated([set]),
    1 = reached([set], [label]), 2 = min_changed (set and label
    ignored). *)

val compile : Spec.t -> program
(** Compile a validated spec.  @raise Invalid_argument on an Alloc of a
    rule the spec does not define (also caught by {!Spec.validate}). *)
