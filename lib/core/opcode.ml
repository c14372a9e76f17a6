(* Spec -> flat op-array compiler for the ECA core ({!Engine}).

   Task-set bodies become one shared instruction array indexed by pc;
   every instruction carries the pc of its continuation, so a task never
   walks a list or shares `Spec.op` structure, and the engine compiles
   each pc once into a closure that executes it.  Expressions and rule
   conditions compile to postfix bytecode evaluated over preallocated
   scratch stacks (the bytecode-interpreter idiom: op arrays + mutable
   frames, no tree-walking); the engine's closures take fast paths for
   the commonest expression shapes and fall back to that bytecode.

   The compiler only restructures data: evaluation semantics (numeric
   promotion, error strings, out-of-range clause probes) are those of
   the spec language, as the reference evaluator {!Interp} states them. *)

(* Postfix expression bytecode.  E_param/E_reg appear only in task-body
   expressions; E_cparam/E_cfield/E_earlier/E_later/E_overlap only in
   rule conditions.  One evaluator handles both. *)
type eop =
  | E_int of int
  | E_float of float
  | E_bool of bool
  | E_param of int (* task payload field *)
  | E_reg of int * string (* register slot; name kept for the unbound error *)
  | E_binop of Spec.binop
  | E_not
  | E_neg
  | E_cparam of int (* rule-instance param (out-of-range aborts the clause) *)
  | E_cfield of int (* event field (out-of-range aborts the clause) *)
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
  | I_commit (* empty continuation: the task commits *)

type cclause = {
  (* 0 = activated(set), 1 = reached(set,label), 2 = min_changed *)
  c_kind : int;
  c_set : int; (* source task-set slot, -1 for min_changed *)
  c_label : int; (* label id for reached, -1 otherwise *)
  c_cond : eop array;
  c_return : bool option; (* None = Decrement *)
}

type crule = {
  r_name : string;
  r_clauses : cclause array;
  r_otherwise : bool;
  r_min_waiting : bool; (* otherwise scope *)
  r_counted : bool;
  r_key_field : int; (* keyed delivery: event field of the key conjunct, -1 = unkeyed *)
  r_key_param : int; (* rule param of the key conjunct *)
  r_reads_f : int array; (* every CField index the clauses read (keyed rules) *)
  r_reads_p : int array; (* every CParam index the clauses read (keyed rules) *)
}

type program = {
  code : inst array;
  source : Spec.op option array; (* the spec op each pc came from; None at the commit pc *)
  entry : int array; (* per task-set slot *)
  n_sets : int;
  set_names : string array;
  set_for_each : bool array;
  max_arity : int;
  max_regs : int;
  set_regs : string array array; (* per set: register slot -> variable name *)
  max_handles : int;
  rules : crule array;
  labels : string array;
  array_names : string array; (* state arrays referenced by Load/Store *)
  prim_names : string array;
  max_stack : int; (* expression scratch-stack depth *)
  max_push_args : int;
  max_rule_params : int; (* widest Alloc argument list *)
  max_event_fields : int; (* widest event field vector (payloads + emits) *)
  has_counted : bool;
  listeners : int array array; (* per event slot: the rules with a clause on it *)
}

(* Event slots: activated(set), then reached(set, label), then
   min_changed. *)
let event_slot ~n_sets ~n_labels ~kind ~set ~label =
  match kind with
  | 0 -> set
  | 1 -> n_sets + (set * n_labels) + label
  | _ -> n_sets * (1 + n_labels)

let listener_slot p ~kind ~set ~label =
  event_slot ~n_sets:p.n_sets ~n_labels:(Array.length p.labels) ~kind ~set ~label

(* --- interning --- *)

type 'a interner = {
  mutable names : string list; (* reverse order *)
  tbl : (string, int) Hashtbl.t;
}

let interner () = { names = []; tbl = Hashtbl.create 8 }

let intern t name =
  match Hashtbl.find_opt t.tbl name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.tbl in
      Hashtbl.add t.tbl name i;
      t.names <- name :: t.names;
      i

let interned t = Array.of_list (List.rev t.names)

(* --- rule keys ---

   A clause condition is key-shaped when it is an And-chain whose
   conjuncts are [CEarlier], [CLater], [CConst] or comparisons between
   two [CField]/[CParam] leaves, and one conjunct is
   [Eq (CField f, CParam p)].  Evaluated against an instance whose
   param [p] is an int different from the event's int field [f], such
   a condition is false and cannot raise, provided no leaf it compares
   holds a bool (an out-of-range leaf aborts the clause, which is also
   false): every conjunct is a bool or an out-of-range probe, and the
   key conjunct is false.  The engine checks those leaf tags per
   instance and per event, and then skips every instance whose key
   differs — a hash lookup instead of a scan. *)

let rec conjuncts (c : Spec.cond) acc =
  match c with
  | Spec.CBinop (Spec.And, a, b) -> conjuncts a (conjuncts b acc)
  | c -> c :: acc

let is_leaf = function
  | Spec.CField _ | Spec.CParam _ -> true
  | _ -> false

let key_safe = function
  | Spec.CEarlier | Spec.CLater | Spec.CConst _ -> true
  | Spec.CBinop ((Spec.Eq | Spec.Ne | Spec.Lt | Spec.Le | Spec.Gt | Spec.Ge), a, b) ->
      is_leaf a && is_leaf b
  | _ -> false

(* the (field, param) keys a condition admits, none when some conjunct
   is not key-safe *)
let clause_keys c =
  let cs = conjuncts c [] in
  if not (List.for_all key_safe cs) then []
  else
    List.filter_map
      (function
        | Spec.CBinop (Spec.Eq, Spec.CField f, Spec.CParam p)
        | Spec.CBinop (Spec.Eq, Spec.CParam p, Spec.CField f)
          when f >= 0 && p >= 0 ->
            Some (f, p)
        | _ -> None)
      cs

(* the key shared by every clause of a rule; counted rules and rules
   with a min_changed clause stay unkeyed *)
let rule_key (r : Spec.rule) =
  let on_min (c : Spec.clause) = c.Spec.on = Spec.On_min_changed in
  match r.Spec.clauses with
  | [] -> None
  | c0 :: rest ->
      if r.Spec.counted || List.exists on_min r.Spec.clauses then None
      else
        let others = List.map (fun (c : Spec.clause) -> clause_keys c.Spec.condition) rest in
        List.find_opt
          (fun k -> List.for_all (List.mem k) others)
          (clause_keys c0.Spec.condition)

(* the CField and CParam indices a condition reads *)
let rec cond_reads (c : Spec.cond) (fs, ps) =
  match c with
  | Spec.CField i -> (i :: fs, ps)
  | Spec.CParam i -> (fs, i :: ps)
  | Spec.CBinop (_, a, b) -> cond_reads a (cond_reads b (fs, ps))
  | Spec.CNot c -> cond_reads c (fs, ps)
  | Spec.CConst _ | Spec.CEarlier | Spec.CLater | Spec.COverlap _ -> (fs, ps)

(* --- compilation --- *)

let compile (spec : Spec.t) : program =
  let sets = Array.of_list spec.Spec.task_sets in
  let n_sets = Array.length sets in
  let set_slot name = Spec.task_set_slot spec name in
  let arrays = interner () in
  let labels = interner () in
  let prims = interner () in
  let code = ref [] in
  let source = ref [] in
  let n_code = ref 0 in
  let emit_src src inst =
    code := inst :: !code;
    source := src :: !source;
    incr n_code;
    !n_code - 1
  in
  let commit_pc = emit_src None I_commit in
  assert (commit_pc = 0);
  let max_stack = ref 1 in
  let max_push_args = ref 0 in
  let max_rule_params = ref 0 in
  (* expression -> postfix, tracking stack depth *)
  let compile_expr regs e =
    let out = ref [] in
    let rec go depth (e : Spec.expr) =
      let d1 =
        match e with
        | Spec.Const (Value.Int n) ->
            out := E_int n :: !out;
            depth + 1
        | Spec.Const (Value.Float x) ->
            out := E_float x :: !out;
            depth + 1
        | Spec.Const (Value.Bool b) ->
            out := E_bool b :: !out;
            depth + 1
        | Spec.Param i ->
            out := E_param i :: !out;
            depth + 1
        | Spec.Var name ->
            out := E_reg (intern regs name, name) :: !out;
            depth + 1
        | Spec.Binop (op, a, b) ->
            let da = go depth a in
            let _db = go da b in
            out := E_binop op :: !out;
            da
        | Spec.Not e ->
            let d = go depth e in
            out := E_not :: !out;
            d
        | Spec.Neg e ->
            let d = go depth e in
            out := E_neg :: !out;
            d
      in
      if d1 > !max_stack then max_stack := d1;
      d1
    in
    ignore (go 0 e);
    Array.of_list (List.rev !out)
  in
  let compile_exprs regs es =
    let a = Array.of_list (List.map (compile_expr regs) es) in
    if Array.length a > !max_push_args then max_push_args := Array.length a;
    a
  in
  (* per-set register and handle allocation happens while compiling the
     body: first occurrence (read or write) claims the slot *)
  let max_regs = ref 0 and max_handles = ref 0 in
  let set_regs = Array.make n_sets [||] in
  let compile_body (ts : Spec.task_set) =
    let regs = interner () in
    let handles = interner () in
    let rec seq ops ~next =
      match ops with
      | [] -> next
      | op :: rest ->
          let next = seq rest ~next in
          let emit = emit_src (Some op) in
          let pc =
            match (op : Spec.op) with
            | Spec.Let (v, e) ->
                let e = compile_expr regs e in
                emit (I_let { dst = intern regs v; e; next })
            | Spec.Load (v, arr, addr) ->
                let addr = compile_expr regs addr in
                emit (I_load { dst = intern regs v; arr = intern arrays arr; addr; next })
            | Spec.Store (arr, addr, v) ->
                let addr = compile_expr regs addr in
                let v = compile_expr regs v in
                emit (I_store { arr = intern arrays arr; addr; v; next })
            | Spec.Push (set, payload) ->
                emit (I_push { set = set_slot set; args = compile_exprs regs payload; next })
            | Spec.Push_iter (set, lo, hi, ivar, payload) ->
                let lo = compile_expr regs lo and hi = compile_expr regs hi in
                let ivar = intern regs ivar in
                emit
                  (I_push_iter
                     { set = set_slot set; lo; hi; ivar; args = compile_exprs regs payload; next })
            | Spec.Alloc (handle, rule_name, params) ->
                let rule =
                  let rec find i = function
                    | [] -> invalid_arg ("Opcode: unknown rule " ^ rule_name)
                    | (r : Spec.rule) :: _ when r.Spec.rule_name = rule_name -> i
                    | _ :: rest -> find (i + 1) rest
                  in
                  find 0 spec.Spec.rules
                in
                if List.length params > !max_rule_params then
                  max_rule_params := List.length params;
                emit
                  (I_alloc
                     {
                       handle = intern handles handle;
                       rule;
                       args = compile_exprs regs params;
                       next;
                     })
            | Spec.Await (dst, handle) ->
                emit
                  (I_await
                     { dst = intern regs dst; handle = intern handles handle; handle_name = handle; next })
            | Spec.Emit (label, fields) ->
                emit (I_emit { label = intern labels label; args = compile_exprs regs fields; next })
            | Spec.If (c, a, b) ->
                let c = compile_expr regs c in
                let else_pc = seq b ~next in
                let then_pc = seq a ~next in
                emit (I_if { c; then_pc; else_pc })
            | Spec.Abort -> emit I_abort
            | Spec.Retry -> emit I_retry
            | Spec.Prim (dsts, name, args) ->
                emit
                  (I_prim
                     {
                       dsts = Array.of_list (List.map (intern regs) dsts);
                       prim = intern prims name;
                       name;
                       args = compile_exprs regs args;
                       next;
                     })
          in
          pc
    in
    let entry = seq ts.Spec.body ~next:commit_pc in
    set_regs.(set_slot ts.Spec.ts_name) <- interned regs;
    if Hashtbl.length regs.tbl > !max_regs then max_regs := Hashtbl.length regs.tbl;
    if Hashtbl.length handles.tbl > !max_handles then max_handles := Hashtbl.length handles.tbl;
    entry
  in
  let entry = Array.map compile_body sets in
  (* rules: conditions compile against the same postfix machine *)
  let compile_cond c =
    let out = ref [] in
    let rec go depth (c : Spec.cond) =
      let d1 =
        match c with
        | Spec.CConst b ->
            out := E_bool b :: !out;
            depth + 1
        | Spec.CParam i ->
            out := E_cparam i :: !out;
            depth + 1
        | Spec.CField i ->
            out := E_cfield i :: !out;
            depth + 1
        | Spec.CEarlier ->
            out := E_earlier :: !out;
            depth + 1
        | Spec.CLater ->
            out := E_later :: !out;
            depth + 1
        | Spec.CBinop (op, a, b) ->
            let da = go depth a in
            let _db = go da b in
            out := E_binop op :: !out;
            da
        | Spec.CNot c ->
            let d = go depth c in
            out := E_not :: !out;
            d
        | Spec.COverlap (p, f) ->
            out := E_overlap (p, f) :: !out;
            depth + 1
      in
      if d1 > !max_stack then max_stack := d1;
      d1
    in
    ignore (go 0 c);
    Array.of_list (List.rev !out)
  in
  let rules =
    Array.of_list
      (List.map
         (fun (r : Spec.rule) ->
           let clauses =
             Array.of_list
               (List.map
                  (fun (c : Spec.clause) ->
                    let c_kind, c_set, c_label =
                      match c.Spec.on with
                      | Spec.On_activated s -> (0, set_slot s, -1)
                      | Spec.On_reached (s, l) -> (1, set_slot s, intern labels l)
                      | Spec.On_min_changed -> (2, -1, -1)
                    in
                    {
                      c_kind;
                      c_set;
                      c_label;
                      c_cond = compile_cond c.Spec.condition;
                      c_return =
                        (match c.Spec.action with
                        | Spec.Return_bool b -> Some b
                        | Spec.Decrement -> None);
                    })
                  r.Spec.clauses)
           in
           let r_key_field, r_key_param, r_reads_f, r_reads_p =
             match rule_key r with
             | None -> (-1, -1, [||], [||])
             | Some (f, p) ->
                 let fs, ps =
                   List.fold_left
                     (fun acc (c : Spec.clause) -> cond_reads c.Spec.condition acc)
                     ([], []) r.Spec.clauses
                 in
                 let uniq l = Array.of_list (List.sort_uniq compare l) in
                 (f, p, uniq fs, uniq ps)
           in
           {
             r_name = r.Spec.rule_name;
             r_clauses = clauses;
             r_otherwise = r.Spec.otherwise;
             r_min_waiting = (r.Spec.scope = Spec.Min_waiting);
             r_counted = r.Spec.counted;
             r_key_field;
             r_key_param;
             r_reads_f;
             r_reads_p;
           })
         spec.Spec.rules)
  in
  let max_arity = Array.fold_left (fun m ts -> max m ts.Spec.arity) 1 sets in
  let max_event_fields =
    let m = ref max_arity in
    Array.iter
      (function
        | I_emit { args; _ } -> if Array.length args > !m then m := Array.length args
        | _ -> ())
      (Array.of_list !code);
    !m
  in
  let labels = interned labels in
  let n_labels = Array.length labels in
  let listeners = Array.make ((n_sets * (1 + n_labels)) + 1) [] in
  Array.iteri
    (fun ri r ->
      Array.iter
        (fun c ->
          let slot = event_slot ~n_sets ~n_labels ~kind:c.c_kind ~set:c.c_set ~label:c.c_label in
          if not (List.mem ri listeners.(slot)) then listeners.(slot) <- ri :: listeners.(slot))
        r.r_clauses)
    rules;
  let listeners = Array.map (fun l -> Array.of_list (List.rev l)) listeners in
  {
    code = Array.of_list (List.rev !code);
    source = Array.of_list (List.rev !source);
    entry;
    n_sets;
    set_names = Array.map (fun ts -> ts.Spec.ts_name) sets;
    set_for_each = Array.map (fun ts -> ts.Spec.ts_order = Spec.For_each) sets;
    max_arity;
    max_regs = max 1 !max_regs;
    set_regs;
    max_handles = max 1 !max_handles;
    rules;
    labels;
    array_names = interned arrays;
    prim_names = interned prims;
    max_stack = !max_stack + 1;
    max_push_args = !max_push_args;
    max_rule_params = max 1 !max_rule_params;
    max_event_fields = max 1 max_event_fields;
    has_counted = List.exists (fun (r : Spec.rule) -> r.Spec.counted) spec.Spec.rules;
    listeners;
  }
