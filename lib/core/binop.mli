(** The single binary-operator semantics table.

    Every evaluator — the compiled core's postfix bytecode ({!Engine})
    and the test suite's tree-walking reference evaluator — executes
    {!Spec.binop}s through {!exec}, so numeric promotion, the comparison
    total order, the short-circuit boolean connectives and every error
    string are defined exactly once.

    Values are represented as the core represents them: a tag
    ({!tg_int} / {!tg_float} / {!tg_bool}) plus an int slot and a float
    slot in parallel scratch arrays, which keeps {!exec} allocation-free
    (floats never cross a call boundary as arguments, so nothing is
    boxed on the hot path). *)

val tg_int : int
val tg_float : int
val tg_bool : int

val tg_unbound : int
(** Not a value tag: marks an unwritten register/frame slot in the
    core.  {!exec} never sees it. *)

val exec : int array -> float array -> int array -> Spec.binop -> int -> int -> unit
(** [exec st_i st_f st_tg op a b] combines slot [a] and slot [b] of the
    scratch arrays and writes the result (value and tag) back into slot
    [a].  Semantics and error strings of the §4 expression language:
    [Div]/[Rem] by integer zero raise [Invalid_argument] ("division by
    zero" / "modulo by zero"), boolean operands of arithmetic raise
    [Invalid_argument] ("bad operands for ..."), comparisons use the
    float total order (NaN via [compare]), [And]/[Or] short-circuit and
    type-check like [Value.to_bool]. *)

(** {1 Shared cold-path raisers}

    Error helpers over the same (tag, int, float) representation, used
    by the evaluators for the unary cases ([Not], [Neg], truthiness and
    int coercions) so their messages match [Value]'s. *)

val vstr : int -> int -> float -> string
(** Render a tagged slot the way [Value.to_string] would. *)

val bool_type_error : int -> int -> float -> 'a
val int_type_error : int -> int -> float -> 'a
val truthy_type_error : int -> int -> float -> 'a

val arith_error : string -> 'a
(** [arith_error what] raises [Invalid_argument "Interp: bad operands
    for <what>"]. *)

val icompare : int -> int -> int
(** Monomorphic int compare (the polymorphic [Stdlib.compare] calls the
    generic comparison out-of-line on every use). *)
