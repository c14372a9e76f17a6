(* The reference evaluator: a direct tree-walk of [Spec] expressions and
   rule conditions over boxed values.  No substrate runs on it; it
   states the expression semantics independently of the compiled core,
   so the conformance suite can hold the core to it bit for bit. *)

open Agp_core

type env = (string, Value.t) Hashtbl.t

let arith_error = Binop.arith_error

(* One semantics for every evaluator: the tree-walker adapts boxed
   [Value.t]s into {!Binop}'s tagged-slot representation and delegates.
   The per-call scratch is three 2-element arrays — this path is not
   allocation-sensitive (the core calls {!Binop.exec} on its own
   preallocated stacks). *)
let eval_binop (op : Spec.binop) (a : Value.t) (b : Value.t) : Value.t =
  let st_i = Array.make 2 0 in
  let st_f = Array.make 2 0.0 in
  let st_tg = Array.make 2 Binop.tg_int in
  let put k (v : Value.t) =
    match v with
    | Value.Int n ->
        st_i.(k) <- n;
        st_tg.(k) <- Binop.tg_int
    | Value.Float x ->
        st_f.(k) <- x;
        st_tg.(k) <- Binop.tg_float
    | Value.Bool b ->
        st_i.(k) <- (if b then 1 else 0);
        st_tg.(k) <- Binop.tg_bool
  in
  put 0 a;
  put 1 b;
  Binop.exec st_i st_f st_tg op 0 1;
  if st_tg.(0) = Binop.tg_int then Value.Int st_i.(0)
  else if st_tg.(0) = Binop.tg_float then Value.Float st_f.(0)
  else Value.Bool (st_i.(0) <> 0)

let rec eval_expr env payload (e : Spec.expr) : Value.t =
  match e with
  | Const v -> v
  | Param i ->
      if i < 0 || i >= Array.length payload then
        invalid_arg (Printf.sprintf "Interp: Param %d out of range" i)
      else payload.(i)
  | Var name -> begin
      match Hashtbl.find_opt env name with
      | Some v -> v
      | None -> invalid_arg ("Interp: unbound variable " ^ name)
    end
  | Binop (op, a, b) ->
      (* left operand first, matching the compiled core's postfix
         order — observable when both operands raise *)
      let va = eval_expr env payload a in
      let vb = eval_expr env payload b in
      eval_binop op va vb
  | Not e -> Value.Bool (not (Value.to_bool (eval_expr env payload e)))
  | Neg e -> begin
      match eval_expr env payload e with
      | Value.Int n -> Value.Int (-n)
      | Value.Float x -> Value.Float (-.x)
      | Value.Bool _ -> arith_error "negation"
    end

(* A sentinel for out-of-range param/field probes in variadic rules:
   comparisons against it are always false, overlap handles lengths
   itself. *)
exception Out_of_range

let rec eval_cond_value ~params ~fields (c : Spec.cond) : Value.t =
  match c with
  | CConst b -> Value.Bool b
  | CParam i -> if i < 0 || i >= Array.length params then raise Out_of_range else params.(i)
  | CField i -> if i < 0 || i >= Array.length fields then raise Out_of_range else fields.(i)
  | CEarlier | CLater -> assert false (* replaced before reaching here *)
  | CBinop (op, a, b) ->
      let va = eval_cond_value ~params ~fields a in
      let vb = eval_cond_value ~params ~fields b in
      eval_binop op va vb
  | CNot c -> Value.Bool (not (Value.to_bool (eval_cond_value ~params ~fields c)))
  | COverlap (p, f) ->
      let tail arr from =
        if from >= Array.length arr then []
        else Array.to_list (Array.sub arr from (Array.length arr - from))
      in
      (* Negative integers are padding in fixed-width signatures (the
         invalid bit of a CAM entry) and never match. *)
      let valid = function
        | Value.Int n -> n >= 0
        | Value.Float _ | Value.Bool _ -> true
      in
      let ps = List.filter valid (tail params p) and fs = List.filter valid (tail fields f) in
      Value.Bool (List.exists (fun x -> List.exists (Value.equal x) fs) ps)

let eval_cond_strict ~params ~fields ~earlier ~later c =
  (* Substitute the order relations, then evaluate; any out-of-range
     probe makes the whole clause not match. *)
  let rec subst (c : Spec.cond) : Spec.cond =
    match c with
    | CEarlier -> CConst earlier
    | CLater -> CConst later
    | CBinop (op, a, b) -> CBinop (op, subst a, subst b)
    | CNot c -> CNot (subst c)
    | (CConst _ | CParam _ | CField _ | COverlap _) as c -> c
  in
  match eval_cond_value ~params ~fields (subst c) with
  | v -> Value.to_bool v
  | exception Out_of_range -> false

let eval_cond ~params ~fields ~event_earlier c =
  eval_cond_strict ~params ~fields ~earlier:event_earlier ~later:false c
