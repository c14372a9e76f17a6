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
  | Param of int
  | Var of string
  | Binop of binop * expr * expr
  | Not of expr
  | Neg of expr

let int n = Const (Value.Int n)

let bool b = Const (Value.Bool b)

type op =
  | Let of string * expr
  | Load of string * string * expr
  | Store of string * expr * expr
  | Push of string * expr list
  | Push_iter of string * expr * expr * string * expr list
  | Alloc of string * string * expr list
  | Await of string * string
  | Emit of string * expr list
  | If of expr * op list * op list
  | Abort
  | Retry
  | Prim of string list * string * expr list

type event_pat =
  | On_activated of string
  | On_reached of string * string
  | On_min_changed

type cond =
  | CConst of bool
  | CParam of int
  | CField of int
  | CEarlier
  | CLater
  | CBinop of binop * cond * cond
  | CNot of cond
  | COverlap of int * int

type action =
  | Return_bool of bool
  | Decrement

type clause = {
  on : event_pat;
  condition : cond;
  action : action;
}

type otherwise_scope =
  | Min_waiting
  | Min_uncommitted

type rule = {
  rule_name : string;
  n_params : int;
  clauses : clause list;
  otherwise : bool;
  scope : otherwise_scope;
  counted : bool;
}

type order =
  | For_all
  | For_each

type task_set = {
  ts_name : string;
  ts_order : order;
  arity : int;
  body : op list;
}

type t = {
  spec_name : string;
  task_sets : task_set list;
  rules : rule list;
}

let task_set_slot t name =
  let rec loop i = function
    | [] -> raise Not_found
    | ts :: _ when ts.ts_name = name -> i
    | _ :: rest -> loop (i + 1) rest
  in
  loop 0 t.task_sets

let may_write t name =
  let rec writes = function
    | Store (a, _, _) -> a = name
    | Prim _ -> true
    | If (_, yes, no) -> List.exists writes yes || List.exists writes no
    | Let _ | Load _ | Push _ | Push_iter _ | Alloc _ | Await _ | Emit _ | Abort | Retry -> false
  in
  List.exists (fun ts -> List.exists writes ts.body) t.task_sets

type prim_ctx = {
  state : State.t;
  task_index : Index.t;
}

type prim_impl = prim_ctx -> Value.t list -> Value.t list

type bindings = {
  prims : (string * prim_impl) list;
  expected : (string * (Value.t list -> int)) list;
}

let no_bindings = { prims = []; expected = [] }

(* --- validation --- *)

let rec expr_params acc = function
  | Const _ | Var _ -> acc
  | Param i -> i :: acc
  | Binop (_, a, b) -> expr_params (expr_params acc a) b
  | Not e | Neg e -> expr_params acc e

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* unique names *)
  let check_unique what names =
    let sorted = List.sort compare names in
    let rec dups = function
      | a :: (b :: _ as rest) ->
          if a = b then err "duplicate %s %S" what a;
          dups rest
      | [ _ ] | [] -> ()
    in
    dups sorted
  in
  check_unique "task set" (List.map (fun ts -> ts.ts_name) t.task_sets);
  check_unique "rule" (List.map (fun r -> r.rule_name) t.rules);
  if t.task_sets = [] then err "specification has no task sets";
  (* per-task-set body checks *)
  let check_body ts =
    let arity = ts.arity in
    let check_params where e =
      List.iter
        (fun i -> if i < 0 || i >= arity then err "%s: Param %d out of range in %s" ts.ts_name i where)
        (expr_params [] e)
    in
    let rec walk allocated = function
      | [] -> allocated
      | op :: rest ->
          let allocated =
            match op with
            | Let (_, e) ->
                check_params "Let" e;
                allocated
            | Load (_, _, addr) ->
                check_params "Load" addr;
                allocated
            | Store (_, addr, v) ->
                check_params "Store" addr;
                check_params "Store" v;
                allocated
            | Push (set, payload) -> begin
                List.iter (check_params "Push") payload;
                match List.find_opt (fun s -> s.ts_name = set) t.task_sets with
                | None ->
                    err "%s: Push to unknown task set %S" ts.ts_name set;
                    allocated
                | Some target ->
                    if List.length payload <> target.arity then
                      err "%s: Push to %s with %d fields, expected %d" ts.ts_name set
                        (List.length payload) target.arity;
                    allocated
              end
            | Push_iter (set, lo, hi, _, payload) -> begin
                check_params "Push_iter" lo;
                check_params "Push_iter" hi;
                List.iter (check_params "Push_iter") payload;
                match List.find_opt (fun s -> s.ts_name = set) t.task_sets with
                | None ->
                    err "%s: Push_iter to unknown task set %S" ts.ts_name set;
                    allocated
                | Some target ->
                    if List.length payload <> target.arity then
                      err "%s: Push_iter to %s with %d fields, expected %d" ts.ts_name set
                        (List.length payload) target.arity;
                    allocated
              end
            | Alloc (handle, rule, params) -> begin
                List.iter (check_params "Alloc") params;
                match List.find_opt (fun r -> r.rule_name = rule) t.rules with
                | None ->
                    err "%s: Alloc of unknown rule %S" ts.ts_name rule;
                    handle :: allocated
                | Some r ->
                    if r.n_params >= 0 && List.length params <> r.n_params then
                      err "%s: Alloc %s with %d params, expected %d" ts.ts_name rule
                        (List.length params) r.n_params;
                    handle :: allocated
              end
            | Await (_, handle) ->
                if not (List.mem handle allocated) then
                  err "%s: Await on handle %S with no preceding Alloc" ts.ts_name handle;
                allocated
            | Emit (_, fields) ->
                List.iter (check_params "Emit") fields;
                allocated
            | If (c, a, b) ->
                check_params "If" c;
                let after_a = walk allocated a in
                let after_b = walk allocated b in
                (* handles allocated on both branches survive *)
                List.filter (fun h -> List.mem h after_b) after_a
            | Abort | Retry -> allocated
            | Prim (_, _, args) ->
                List.iter (check_params "Prim") args;
                allocated
          in
          walk allocated rest
    in
    ignore (walk [] ts.body)
  in
  List.iter check_body t.task_sets;
  (* rule references in clauses *)
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          match c.on with
          | On_activated set | On_reached (set, _) ->
              if not (List.exists (fun ts -> ts.ts_name = set) t.task_sets) then
                err "rule %s: clause on unknown task set %S" r.rule_name set
          | On_min_changed -> ())
        r.clauses;
      if r.counted && List.for_all (fun c -> c.action <> Decrement) r.clauses then
        err "rule %s: counted but no Decrement clause" r.rule_name;
      if (not r.counted) && List.exists (fun c -> c.action = Decrement) r.clauses then
        err "rule %s: Decrement clause in uncounted rule" r.rule_name)
    t.rules;
  match List.rev !errors with
  | [] -> Ok ()
  | es -> Error es

(* --- pretty printing --- *)

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Min -> "min"
  | Max -> "max"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr fmt = function
  | Const v -> Value.pp fmt v
  | Param i -> Format.fprintf fmt "$%d" i
  | Var v -> Format.fprintf fmt "%s" v
  | Binop ((Min | Max) as o, a, b) ->
      Format.fprintf fmt "%s(%a, %a)" (binop_str o) pp_expr a pp_expr b
  | Binop (o, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_expr a (binop_str o) pp_expr b
  | Not e -> Format.fprintf fmt "!%a" pp_expr e
  | Neg e -> Format.fprintf fmt "-%a" pp_expr e

let pp_exprs fmt es =
  Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") pp_expr fmt es

let rec pp_op indent fmt op =
  let pad = String.make indent ' ' in
  match op with
  | Let (v, e) -> Format.fprintf fmt "%slet %s = %a@," pad v pp_expr e
  | Load (v, arr, a) -> Format.fprintf fmt "%s%s <- %s[%a]@," pad v arr pp_expr a
  | Store (arr, a, e) -> Format.fprintf fmt "%s%s[%a] := %a@," pad arr pp_expr a pp_expr e
  | Push (set, p) -> Format.fprintf fmt "%spush %s(%a)@," pad set pp_exprs p
  | Push_iter (set, lo, hi, i, p) ->
      Format.fprintf fmt "%sfor %s in [%a, %a): push %s(%a)@," pad i pp_expr lo pp_expr hi set
        pp_exprs p
  | Alloc (h, r, p) -> Format.fprintf fmt "%s%s <- rule %s(%a)@," pad h r pp_exprs p
  | Await (v, h) -> Format.fprintf fmt "%s%s <- await %s@," pad v h
  | Emit (l, f) -> Format.fprintf fmt "%semit %s(%a)@," pad l pp_exprs f
  | If (c, a, b) ->
      Format.fprintf fmt "%sif %a {@," pad pp_expr c;
      List.iter (pp_op (indent + 2) fmt) a;
      if b <> [] then begin
        Format.fprintf fmt "%s} else {@," pad;
        List.iter (pp_op (indent + 2) fmt) b
      end;
      Format.fprintf fmt "%s}@," pad
  | Abort -> Format.fprintf fmt "%sabort@," pad
  | Retry -> Format.fprintf fmt "%sretry@," pad
  | Prim (ds, name, args) ->
      Format.fprintf fmt "%s[%s] <- prim %s(%a)@," pad (String.concat ", " ds) name pp_exprs args

let rec pp_cond fmt = function
  | CConst b -> Format.fprintf fmt "%b" b
  | CParam i -> Format.fprintf fmt "p%d" i
  | CField i -> Format.fprintf fmt "f%d" i
  | CEarlier -> Format.fprintf fmt "earlier"
  | CLater -> Format.fprintf fmt "later"
  | CBinop (o, a, b) -> Format.fprintf fmt "(%a %s %a)" pp_cond a (binop_str o) pp_cond b
  | CNot c -> Format.fprintf fmt "!%a" pp_cond c
  | COverlap (p, f) -> Format.fprintf fmt "overlap(p%d.., f%d..)" p f

let pp_event fmt = function
  | On_activated s -> Format.fprintf fmt "activated(%s)" s
  | On_reached (s, l) -> Format.fprintf fmt "reached(%s, %s)" s l
  | On_min_changed -> Format.fprintf fmt "min_changed"

let pp fmt t =
  Format.fprintf fmt "@[<v>spec %s@," t.spec_name;
  List.iter
    (fun ts ->
      Format.fprintf fmt "task set %s (%s, arity %d):@," ts.ts_name
        (match ts.ts_order with For_all -> "for-all" | For_each -> "for-each")
        ts.arity;
      List.iter (pp_op 2 fmt) ts.body)
    t.task_sets;
  List.iter
    (fun r ->
      Format.fprintf fmt "rule %s (%d params%s):@," r.rule_name r.n_params
        (if r.counted then ", counted" else "");
      List.iter
        (fun c ->
          Format.fprintf fmt "  ON %a IF %a DO %s@," pp_event c.on pp_cond c.condition
            (match c.action with
            | Return_bool b -> Printf.sprintf "return %b" b
            | Decrement -> "decrement"))
        r.clauses;
      Format.fprintf fmt "  OTHERWISE return %b@," r.otherwise)
    t.rules;
  Format.fprintf fmt "@]"
