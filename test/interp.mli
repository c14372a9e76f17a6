(** Reference evaluator for expressions and rule conditions: a tree-walk
    over boxed values, independent of the compiled core
    ([Agp_core.Engine]) that every substrate runs on.  The test suites
    hold the core to it. *)

open Agp_core

type env = (string, Value.t) Hashtbl.t
(** Per-task local bindings. *)

val eval_binop : Spec.binop -> Value.t -> Value.t -> Value.t
(** Arithmetic promotes int to float when mixed; comparisons yield
    [Bool]; [And]/[Or] require booleans.
    @raise Invalid_argument on kind errors or division by zero. *)

val eval_expr : env -> Value.t array -> Spec.expr -> Value.t
(** [eval_expr env payload e]: [Param i] reads the payload, [Var]
    reads the environment.  @raise Invalid_argument on unbound
    variables. *)

val eval_cond :
  params:Value.t array ->
  fields:Value.t array ->
  event_earlier:bool ->
  Spec.cond ->
  bool
(** Evaluate a rule condition against a triggering event.
    [event_earlier] is the precomputed well-order comparison between
    the event's task and the rule's parent ([CLater] is its negation
    only when the indices differ — ties are neither earlier nor
    later).  Out-of-range [CParam]/[CField] evaluate comparisons to
    mismatch rather than raising, so variadic rules can probe. *)

val eval_cond_strict :
  params:Value.t array ->
  fields:Value.t array ->
  earlier:bool ->
  later:bool ->
  Spec.cond ->
  bool
(** Like {!eval_cond} but with both order relations explicit. *)
