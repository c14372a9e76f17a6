(* The ECA core: executes an {!Opcode.program} over pooled, preallocated
   mutable frames.  Every interpretation of a specification runs on it —
   the {!Semantics} policies (sequential oracle, worker-pool runtime,
   domains) and the cycle simulator's timing shell in [agp_hw].

   What makes it fast:
   - task bodies are flat op arrays dispatched by pc ([match code.(pc)]);
   - expressions and rule conditions are postfix bytecode evaluated over
     preallocated scratch stacks (ints + floats + tags, no [Value.t]
     boxing on the hot path);
   - tasks, rule instances, queues and the uncommitted-order heap are
     pooled flat structures recycled through free lists, so the
     steady-state loop allocates nothing;
   - an event is delivered to live rule instances only when some rule
     clause listens to it (the {!Opcode} listener table).

   The core knows nothing about time.  [step] reports the latency class
   of the operation it executed and leaves the touched array and index
   in [touched_arr]/[touched_idx]; a timing shell turns that into
   cycles. *)

module Vec = Agp_util.Vec

exception Deadlock of string

exception Step_limit_exceeded of int

(* value tags on the scratch stacks / frames *)
let tg_int = 0

let tg_float = 1

let tg_bool = 2

let tg_unbound = 3

(* task status codes *)
let s_pending = 1

let s_running = 2

let s_waiting = 3

let s_committed = 4

let s_squashed = 5

type task = {
  mutable tid : int;
  mutable set : int;
  mutable names : string array; (* register slot -> variable name, of [set] *)
  idx : int array; (* well-order index, width = max n_sets 1 *)
  mutable pay_i : int array;
  mutable pay_f : float array;
  mutable pay_tg : int array;
  mutable n_pay : int;
  reg_i : int array;
  reg_f : float array;
  reg_tg : int array; (* tg_unbound until written *)
  handles : rinst array; (* nil_inst = unallocated *)
  insts : rinst Vec.t; (* every instance this incarnation allocated *)
  mutable pc : int;
  mutable status : int;
  mutable await_dst : int;
  mutable await_inst : rinst; (* nil_inst = not awaiting *)
  mutable bcast : bool; (* fired its commit broadcast (first Emit) *)
}

and rinst = {
  mutable ri_rule : int;
  mutable ri_parent : task;
  ri_pi : int array;
  ri_pf : float array;
  ri_ptg : int array;
  mutable ri_np : int;
  mutable ri_counter : int;
  mutable ri_resolved : int; (* 0 = unresolved, 1 = false, 2 = true *)
  mutable ri_pos : int; (* slot in the live vec, -1 = not live *)
}

let rec nil_task =
  {
    tid = -1;
    set = -1;
    names = [||];
    idx = [||];
    pay_i = [||];
    pay_f = [||];
    pay_tg = [||];
    n_pay = 0;
    reg_i = [||];
    reg_f = [||];
    reg_tg = [||];
    handles = [||];
    insts = Vec.create ();
    pc = 0;
    status = 0;
    await_dst = -1;
    await_inst = nil_inst;
    bcast = false;
  }

and nil_inst =
  {
    ri_rule = -1;
    ri_parent = nil_task;
    ri_pi = [||];
    ri_pf = [||];
    ri_ptg = [||];
    ri_np = 0;
    ri_counter = 0;
    ri_resolved = 0;
    ri_pos = -1;
  }

let is_nil tk = tk == nil_task

(* per-set pending queue: FIFO ring of task pointers with push_front for
   TLS-style retry re-activation *)
type ring = {
  mutable rd : task array;
  mutable rh : int;
  mutable rl : int;
}

let ring_create () = { rd = Array.make 8 nil_task; rh = 0; rl = 0 }

let ring_grow r =
  let cap = Array.length r.rd in
  let nd = Array.make (cap * 2) nil_task in
  for i = 0 to r.rl - 1 do
    nd.(i) <- r.rd.((r.rh + i) mod cap)
  done;
  r.rd <- nd;
  r.rh <- 0

let ring_push r x =
  if r.rl = Array.length r.rd then ring_grow r;
  r.rd.((r.rh + r.rl) mod Array.length r.rd) <- x;
  r.rl <- r.rl + 1

let ring_push_front r x =
  if r.rl = Array.length r.rd then ring_grow r;
  let cap = Array.length r.rd in
  r.rh <- (r.rh + cap - 1) mod cap;
  r.rd.(r.rh) <- x;
  r.rl <- r.rl + 1

let ring_pop r =
  let x = r.rd.(r.rh) in
  r.rd.(r.rh) <- nil_task;
  r.rh <- (r.rh + 1) mod Array.length r.rd;
  r.rl <- r.rl - 1;
  x

let ring_peek r = if r.rl = 0 then nil_task else r.rd.(r.rh)

(* state array resolved at engine creation *)
type adata =
  | A_int of int array
  | A_float of float array
  | A_missing

(* logged event for counted-rule scoreboard reconstruction; only
   populated when the program has counted rules *)
type lev = {
  le_kind : int; (* 0 = activated, 1 = reached *)
  le_label : int;
  le_set : int;
  le_idx : int array;
  le_i : int array;
  le_f : float array;
  le_tg : int array;
}

type outcome =
  | Committed_task
  | Aborted_task
  | Retried_task

type stats = {
  mutable activated : int;
  mutable committed : int;
  mutable aborted : int;
  mutable retried : int;
  mutable events_fired : int;
  mutable otherwise_fired : int;
  mutable clause_resolutions : int;
  mutable ops_executed : int;
  mutable rule_allocs : int;
}

type t = {
  prog : Opcode.program;
  st : State.t;
  stats : stats;
  width : int;
  counters : int array; (* For_each stamps *)
  rings : ring array;
  mutable rr : int; (* round-robin pointer for pop_any *)
  mutable next_tid : int;
  mutable running : int;
  waiting : task Vec.t; (* append order = oldest first *)
  (* binary min-heap over (index row, task, tid); lazy deletion *)
  mutable h_idx : int array; (* flattened rows, width stride *)
  mutable h_task : task array;
  mutable h_tid : int array;
  mutable h_len : int;
  live : rinst Vec.t;
  snap : rinst Vec.t; (* iteration snapshot for event firing *)
  free_tasks : task Vec.t;
  free_insts : rinst Vec.t;
  mutable last_min_broadcast : int;
  log : lev Vec.t;
  prim_impls : Spec.prim_impl option array;
  prim_count : int array;
  expected_fns : (Value.t list -> int) option array; (* per rule *)
  arr_data : adata array;
  (* eval scratch *)
  st_i : int array;
  st_f : float array;
  st_tg : int array;
  (* current event context for rule-condition evaluation *)
  mutable ev_i : int array;
  mutable ev_f : float array;
  mutable ev_tg : int array;
  mutable ev_n : int;
  mutable cx_earlier : bool;
  mutable cx_later : bool;
  (* emit / push / alloc argument scratch *)
  em_i : int array;
  em_f : float array;
  em_tg : int array;
  ar_i : int array;
  ar_f : float array;
  ar_tg : int array;
  resumed : task Vec.t;
  (* what the last [step] touched, for the timing shell *)
  mutable touched_arr : int;
  mutable touched_idx : int;
}

(* --- index rows --- *)

(* top-level recursion: a local [let rec loop] closure would allocate
   on every call, and this is the hottest comparator in the engine *)
let rec cmp_rows (a : int array) ai (b : int array) bi n k =
  if k >= n then 0
  else begin
    let x = a.(ai + k) and y = b.(bi + k) in
    if x < y then -1 else if x > y then 1 else cmp_rows a ai b bi n (k + 1)
  end

let idx_cmp (a : int array) (b : int array) = cmp_rows a 0 b 0 (Array.length a) 0

(* --- value helpers ---

   The binop table and the cold raisers live in {!Binop}, shared with
   the reference evaluator [Interp]; the local tag constants above are
   the same encoding (asserted below) and stay literal so ocamlopt keeps
   propagating them as immediates in the hot tag checks. *)

let () =
  assert (
    tg_int = Binop.tg_int
    && tg_float = Binop.tg_float
    && tg_bool = Binop.tg_bool
    && tg_unbound = Binop.tg_unbound)

(* cold raisers ({!Binop}): callers check the tag inline so the hot
   path never passes a float across a function boundary (OCaml boxes
   float arguments of non-inlined calls) *)
let bool_type_error = Binop.bool_type_error

let int_type_error = Binop.int_type_error

let truthy_type_error = Binop.truthy_type_error

(* out-of-range CParam/CField probe: the clause does not match *)
exception Oor

(* a tagged slot as a boxed value, and back (prim calls, counted-rule
   bindings, host activations: the paths that speak [Value.t]) *)
let box (ia : int array) (fa : float array) (ta : int array) k =
  if ta.(k) = tg_int then Value.Int ia.(k)
  else if ta.(k) = tg_float then Value.Float fa.(k)
  else Value.Bool (ia.(k) <> 0)

let unbox (ia : int array) (fa : float array) (ta : int array) k (v : Value.t) =
  match v with
  | Value.Int x ->
      ia.(k) <- x;
      ta.(k) <- tg_int
  | Value.Float x ->
      fa.(k) <- x;
      ta.(k) <- tg_float
  | Value.Bool b ->
      ia.(k) <- (if b then 1 else 0);
      ta.(k) <- tg_bool

(* valid CAM cell: negative ints are padding and never match *)
let cam_valid tg i = tg <> tg_int || i >= 0

(* any valid param tail value (from [p]) equal to any valid field tail
   value (from [f]); top-level recursion keeps this allocation-free *)
let rec overlap_row en (inst : rinst) p f =
  if f >= en.ev_n then false
  else if
    cam_valid en.ev_tg.(f) en.ev_i.(f)
    (* Value.equal semantics, inline: same constructor, same value
       (float NaN compares unequal) *)
    && inst.ri_ptg.(p) = en.ev_tg.(f)
    && (if inst.ri_ptg.(p) = tg_float then inst.ri_pf.(p) = en.ev_f.(f)
        else inst.ri_pi.(p) = en.ev_i.(f))
  then true
  else overlap_row en inst p (f + 1)

let rec overlap_scan en (inst : rinst) p f =
  if p >= inst.ri_np then false
  else if cam_valid inst.ri_ptg.(p) inst.ri_pi.(p) && overlap_row en inst p f then true
  else overlap_scan en inst (p + 1) f

(* evaluate postfix bytecode; the result lands in stack slot 0.
   [tk] supplies Param/Var frames; [inst] supplies rule params for
   condition code (pass nil_inst for task-body expressions).  The stack
   pointer is threaded as an argument (a [ref] here would allocate on
   every expression evaluation). *)
let rec eval_ops en (tk : task) (inst : rinst) (code : Opcode.eop array) n k sp =
  if k < n then
    let sp =
      match code.(k) with
      | Opcode.E_int v ->
          en.st_i.(sp) <- v;
          en.st_tg.(sp) <- tg_int;
          sp + 1
      | Opcode.E_float x ->
          en.st_f.(sp) <- x;
          en.st_tg.(sp) <- tg_float;
          sp + 1
      | Opcode.E_bool b ->
          en.st_i.(sp) <- (if b then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_param i ->
          if i < 0 || i >= tk.n_pay then
            invalid_arg (Printf.sprintf "Interp: Param %d out of range" i);
          en.st_i.(sp) <- tk.pay_i.(i);
          en.st_f.(sp) <- tk.pay_f.(i);
          en.st_tg.(sp) <- tk.pay_tg.(i);
          sp + 1
      | Opcode.E_reg (r, name) ->
          if tk.reg_tg.(r) = tg_unbound then invalid_arg ("Interp: unbound variable " ^ name);
          en.st_i.(sp) <- tk.reg_i.(r);
          en.st_f.(sp) <- tk.reg_f.(r);
          en.st_tg.(sp) <- tk.reg_tg.(r);
          sp + 1
      | Opcode.E_binop op ->
          Binop.exec en.st_i en.st_f en.st_tg op (sp - 2) (sp - 1);
          sp - 1
      | Opcode.E_not ->
          let a = sp - 1 in
          if en.st_tg.(a) <> tg_bool then bool_type_error en.st_tg.(a) en.st_i.(a) en.st_f.(a);
          en.st_i.(a) <- (if en.st_i.(a) <> 0 then 0 else 1);
          en.st_tg.(a) <- tg_bool;
          sp
      | Opcode.E_neg ->
          let a = sp - 1 in
          if en.st_tg.(a) = tg_int then en.st_i.(a) <- -en.st_i.(a)
          else if en.st_tg.(a) = tg_float then en.st_f.(a) <- -.en.st_f.(a)
          else Binop.arith_error "negation";
          sp
      | Opcode.E_cparam i ->
          if i < 0 || i >= inst.ri_np then raise Oor;
          en.st_i.(sp) <- inst.ri_pi.(i);
          en.st_f.(sp) <- inst.ri_pf.(i);
          en.st_tg.(sp) <- inst.ri_ptg.(i);
          sp + 1
      | Opcode.E_cfield i ->
          if i < 0 || i >= en.ev_n then raise Oor;
          en.st_i.(sp) <- en.ev_i.(i);
          en.st_f.(sp) <- en.ev_f.(i);
          en.st_tg.(sp) <- en.ev_tg.(i);
          sp + 1
      | Opcode.E_earlier ->
          en.st_i.(sp) <- (if en.cx_earlier then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_later ->
          en.st_i.(sp) <- (if en.cx_later then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_overlap (p, f) ->
          en.st_i.(sp) <- (if overlap_scan en inst p f then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
    in
    eval_ops en tk inst code n (k + 1) sp

let eval en (tk : task) (inst : rinst) (code : Opcode.eop array) =
  eval_ops en tk inst code (Array.length code) 0 0

(* --- task / instance pools --- *)

let ensure_pay tk n =
  if Array.length tk.pay_i < n then begin
    tk.pay_i <- Array.make n 0;
    tk.pay_f <- Array.make n 0.0;
    tk.pay_tg <- Array.make n tg_int
  end

let new_task en ~set ~n_pay =
  let p = en.prog in
  let tk =
    if Vec.length en.free_tasks > 0 then Vec.pop en.free_tasks
    else begin
      let pay = max p.Opcode.max_arity p.Opcode.max_push_args in
      {
        tid = 0;
        set = 0;
        names = [||];
        idx = Array.make en.width 0;
        pay_i = Array.make pay 0;
        pay_f = Array.make pay 0.0;
        pay_tg = Array.make pay tg_int;
        n_pay = 0;
        reg_i = Array.make p.Opcode.max_regs 0;
        reg_f = Array.make p.Opcode.max_regs 0.0;
        reg_tg = Array.make p.Opcode.max_regs tg_unbound;
        handles = Array.make p.Opcode.max_handles nil_inst;
        insts = Vec.create ();
        pc = 0;
        status = s_pending;
        await_dst = -1;
        await_inst = nil_inst;
        bcast = false;
      }
    end
  in
  tk.tid <- en.next_tid;
  en.next_tid <- en.next_tid + 1;
  tk.set <- set;
  tk.names <- p.Opcode.set_regs.(set);
  ensure_pay tk n_pay;
  tk.n_pay <- n_pay;
  Array.fill tk.reg_tg 0 (Array.length tk.reg_tg) tg_unbound;
  Array.fill tk.handles 0 (Array.length tk.handles) nil_inst;
  Vec.clear tk.insts;
  tk.pc <- p.Opcode.entry.(set);
  tk.status <- s_pending;
  tk.await_dst <- -1;
  tk.await_inst <- nil_inst;
  tk.bcast <- false;
  tk

let new_inst en =
  if Vec.length en.free_insts > 0 then Vec.pop en.free_insts
  else
    {
      ri_rule = 0;
      ri_parent = nil_task;
      ri_pi = Array.make en.prog.Opcode.max_rule_params 0;
      ri_pf = Array.make en.prog.Opcode.max_rule_params 0.0;
      ri_ptg = Array.make en.prog.Opcode.max_rule_params tg_int;
      ri_np = 0;
      ri_counter = 0;
      ri_resolved = 0;
      ri_pos = -1;
    }

(* --- uncommitted-order heap (Agp_util.Heap's sifts, flattened) --- *)

let heap_ensure en =
  let cap = Array.length en.h_task in
  if en.h_len = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nt = Array.make ncap nil_task and ni = Array.make (ncap * en.width) 0 in
    let nd = Array.make ncap 0 in
    Array.blit en.h_task 0 nt 0 cap;
    Array.blit en.h_idx 0 ni 0 (cap * en.width);
    Array.blit en.h_tid 0 nd 0 cap;
    en.h_task <- nt;
    en.h_idx <- ni;
    en.h_tid <- nd
  end

let heap_cmp en i j =
  let w = en.width in
  cmp_rows en.h_idx (i * w) en.h_idx (j * w) w 0

let heap_swap en i j =
  let w = en.width in
  let t = en.h_task.(i) in
  en.h_task.(i) <- en.h_task.(j);
  en.h_task.(j) <- t;
  let d = en.h_tid.(i) in
  en.h_tid.(i) <- en.h_tid.(j);
  en.h_tid.(j) <- d;
  for k = 0 to w - 1 do
    let x = en.h_idx.((i * w) + k) in
    en.h_idx.((i * w) + k) <- en.h_idx.((j * w) + k);
    en.h_idx.((j * w) + k) <- x
  done

let rec heap_sift_up en i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_cmp en i parent < 0 then begin
      heap_swap en i parent;
      heap_sift_up en parent
    end
  end

let rec heap_sift_down en i =
  let n = en.h_len in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < n && heap_cmp en l i < 0 then l else i in
  let s = if r < n && heap_cmp en r s < 0 then r else s in
  if s <> i then begin
    heap_swap en i s;
    heap_sift_down en s
  end

let heap_push en (tk : task) =
  heap_ensure en;
  let i = en.h_len in
  en.h_task.(i) <- tk;
  en.h_tid.(i) <- tk.tid;
  Array.blit tk.idx 0 en.h_idx (i * en.width) en.width;
  en.h_len <- en.h_len + 1;
  heap_sift_up en i

let heap_drop_top en =
  let last = en.h_len - 1 in
  if last > 0 then begin
    en.h_task.(0) <- en.h_task.(last);
    en.h_tid.(0) <- en.h_tid.(last);
    Array.blit en.h_idx (last * en.width) en.h_idx 0 en.width
  end;
  en.h_task.(last) <- nil_task;
  en.h_len <- last;
  if last > 0 then heap_sift_down en 0

(* Lazy-deletion peek: the minimum uncommitted task.  A task that has
   fired its commit broadcast (its first Emit) is retired for ordering
   purposes: its tail pipelines behind later tasks, as a TLS commit
   stage drains while younger work proceeds.  A recycled slot (tid
   mismatch) means the original task finished. *)
let rec min_uncommitted en =
  if en.h_len = 0 then nil_task
  else begin
    let tk = en.h_task.(0) in
    if
      tk.tid = en.h_tid.(0)
      && (tk.status = s_pending || tk.status = s_running || tk.status = s_waiting)
      && not tk.bcast
    then tk
    else begin
      heap_drop_top en;
      min_uncommitted en
    end
  end

(* --- rule resolution --- *)

(* swap-remove an instance from the live set *)
let unlive en inst =
  if inst.ri_pos >= 0 then begin
    let last = Vec.pop en.live in
    if last != inst then begin
      Vec.set en.live inst.ri_pos last;
      last.ri_pos <- inst.ri_pos
    end;
    inst.ri_pos <- -1
  end

let resolve en inst b =
  if inst.ri_resolved = 0 then begin
    inst.ri_resolved <- (if b then 2 else 1);
    unlive en inst
  end

let clause_matches (c : Opcode.cclause) ~kind ~set ~label =
  match c.Opcode.c_kind with
  | 0 -> kind = 0 && c.Opcode.c_set = set
  | 1 -> kind = 1 && c.Opcode.c_set = set && c.Opcode.c_label = label
  | _ -> false

(* evaluate a clause condition against the current event context;
   out-of-range probes make the clause not match, any other evaluation
   error propagates (as Interp.eval_cond_strict) *)
let clause_holds en inst (c : Opcode.cclause) =
  match eval en nil_task inst c.Opcode.c_cond with
  | () ->
      if en.st_tg.(0) <> tg_bool then bool_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0);
      en.st_i.(0) <> 0
  | exception Oor -> false

let apply_clause en inst (c : Opcode.cclause) =
  if clause_holds en inst c then begin
    match c.Opcode.c_return with
    | Some b ->
        en.stats.clause_resolutions <- en.stats.clause_resolutions + 1;
        resolve en inst b
    | None ->
        inst.ri_counter <- inst.ri_counter - 1;
        if inst.ri_counter <= 0 then begin
          en.stats.clause_resolutions <- en.stats.clause_resolutions + 1;
          resolve en inst true
        end
  end

(* Deliver the current event to every live rule instance: [kind] 0 =
   activated, 1 = reached, 2 = min_changed.  Resolution swap-removes
   from [live], so delivery walks a snapshot. *)
let deliver en ~kind ~set ~label ~(index : int array) ~source_tid =
  Vec.clear en.snap;
  for i = 0 to Vec.length en.live - 1 do
    Vec.push en.snap (Vec.get en.live i)
  done;
  for i = 0 to Vec.length en.snap - 1 do
    let inst = Vec.get en.snap i in
    if inst.ri_resolved = 0 && inst.ri_parent.tid <> source_tid then begin
      let cmp = idx_cmp index inst.ri_parent.idx in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      let cls = en.prog.Opcode.rules.(inst.ri_rule).Opcode.r_clauses in
      for k = 0 to Array.length cls - 1 do
        if
          inst.ri_resolved = 0
          && (if kind = 2 then cls.(k).Opcode.c_kind = 2 else clause_matches cls.(k) ~kind ~set ~label)
        then apply_clause en inst cls.(k)
      done
    end
  done

(* the field vector rule conditions read as CField *)
let set_event en ia fa ta n =
  en.ev_i <- ia;
  en.ev_f <- fa;
  en.ev_tg <- ta;
  en.ev_n <- n

let listened en ~kind ~set ~label =
  en.prog.Opcode.listeners.(Opcode.listener_slot en.prog ~kind ~set ~label)

(* an activated (kind 0) or reached (kind 1) event; the event-field
   context must already be set *)
let fire_event en ~kind ~set ~label ~(index : int array) ~source_tid =
  en.stats.events_fired <- en.stats.events_fired + 1;
  if en.prog.Opcode.has_counted then begin
    let n = en.ev_n in
    Vec.push en.log
      {
        le_kind = kind;
        le_label = label;
        le_set = set;
        le_idx = Array.copy index;
        le_i = Array.sub en.ev_i 0 n;
        le_f = Array.sub en.ev_f 0 n;
        le_tg = Array.sub en.ev_tg 0 n;
      }
  end;
  if listened en ~kind ~set ~label then deliver en ~kind ~set ~label ~index ~source_tid

let fire_min_changed en ~(index : int array) ~source_tid =
  en.stats.events_fired <- en.stats.events_fired + 1;
  if listened en ~kind:2 ~set:0 ~label:0 then
    deliver en ~kind:2 ~set:(-1) ~label:(-1) ~index ~source_tid

(* --- counted-rule allocation: replay the event log --- *)

let count_past_matches en rule_id inst (parent_idx : int array) =
  let count = ref 0 in
  let cls = en.prog.Opcode.rules.(rule_id).Opcode.r_clauses in
  Vec.iter
    (fun ev ->
      let cmp = idx_cmp ev.le_idx parent_idx in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      set_event en ev.le_i ev.le_f ev.le_tg (Array.length ev.le_i);
      let hit = ref false in
      for k = 0 to Array.length cls - 1 do
        if
          (not !hit)
          && cls.(k).Opcode.c_return = None
          && clause_matches cls.(k) ~kind:ev.le_kind ~set:ev.le_set ~label:ev.le_label
          && clause_holds en inst cls.(k)
        then hit := true
      done;
      if !hit then incr count)
    en.log;
  !count

(* args already evaluated into ar_*; nargs of them *)
let alloc_rule en (tk : task) ~rule_id ~nargs =
  let r = en.prog.Opcode.rules.(rule_id) in
  let inst = new_inst en in
  inst.ri_rule <- rule_id;
  inst.ri_parent <- tk;
  Array.blit en.ar_i 0 inst.ri_pi 0 nargs;
  Array.blit en.ar_f 0 inst.ri_pf 0 nargs;
  Array.blit en.ar_tg 0 inst.ri_ptg 0 nargs;
  inst.ri_np <- nargs;
  inst.ri_resolved <- 0;
  inst.ri_pos <- -1;
  inst.ri_counter <-
    (if r.Opcode.r_counted then begin
       let expected =
         match en.expected_fns.(rule_id) with
         | Some f -> f (List.init inst.ri_np (box inst.ri_pi inst.ri_pf inst.ri_ptg))
         | None ->
             invalid_arg
               ("Engine: counted rule " ^ r.Opcode.r_name ^ " has no expected binding")
       in
       expected - count_past_matches en rule_id inst tk.idx
     end
     else 0);
  en.stats.rule_allocs <- en.stats.rule_allocs + 1;
  if r.Opcode.r_counted && inst.ri_counter <= 0 then inst.ri_resolved <- 2
  else begin
    inst.ri_pos <- Vec.length en.live;
    Vec.push en.live inst
  end;
  Vec.push tk.insts inst;
  inst

(* --- activation --- *)

let enqueue en (tk : task) ~front =
  let r = en.rings.(tk.set) in
  if front then ring_push_front r tk else ring_push r tk;
  heap_push en tk;
  en.stats.activated <- en.stats.activated + 1;
  (* activated event: fields are the task payload *)
  set_event en tk.pay_i tk.pay_f tk.pay_tg tk.n_pay;
  fire_event en ~kind:0 ~set:tk.set ~label:(-1) ~index:tk.idx ~source_tid:tk.tid

let stamp en slot =
  if en.prog.Opcode.set_for_each.(slot) then begin
    let c = en.counters.(slot) in
    en.counters.(slot) <- c + 1;
    c
  end
  else 0

(* payload already evaluated into ar_* *)
let do_push en ~(parent_idx : int array) ~set ~nargs =
  let tk = new_task en ~set ~n_pay:nargs in
  Array.blit en.ar_i 0 tk.pay_i 0 nargs;
  Array.blit en.ar_f 0 tk.pay_f 0 nargs;
  Array.blit en.ar_tg 0 tk.pay_tg 0 nargs;
  (* child index: parent prefix up to the slot, then the stamp *)
  Array.fill tk.idx 0 en.width 0;
  Array.blit parent_idx 0 tk.idx 0 set;
  tk.idx.(set) <- stamp en set;
  enqueue en tk ~front:false

let push_initial en set_name payload =
  let set =
    let names = en.prog.Opcode.set_names in
    let rec find i =
      if i >= Array.length names then invalid_arg ("Engine: unknown task set " ^ set_name)
      else if names.(i) = set_name then i
      else find (i + 1)
    in
    find 0
  in
  let n = List.length payload in
  let tk = new_task en ~set ~n_pay:n in
  List.iteri (unbox tk.pay_i tk.pay_f tk.pay_tg) payload;
  Array.fill tk.idx 0 en.width 0;
  tk.idx.(set) <- stamp en set;
  enqueue en tk ~front:false

(* --- queues --- *)

let take en tk =
  tk.status <- s_running;
  en.running <- en.running + 1;
  tk

let pop_task en set =
  let r = en.rings.(set) in
  if r.rl = 0 then nil_task else take en (ring_pop r)

let pop_any en =
  let n = Array.length en.rings in
  let rec loop tries =
    if tries >= n then nil_task
    else begin
      let i = (en.rr + tries) mod n in
      let r = en.rings.(i) in
      if r.rl = 0 then loop (tries + 1)
      else begin
        en.rr <- (i + 1) mod n;
        take en (ring_pop r)
      end
    end
  in
  loop 0

(* Per-set queues are FIFO and for-each stamps are monotone, so each
   queue head is that set's minimum pending task; the global minimum
   pending task is the smallest head. *)
let min_pending_set en =
  let best = ref (-1) in
  for i = 0 to Array.length en.rings - 1 do
    let h = ring_peek en.rings.(i) in
    if h != nil_task && (!best < 0 || idx_cmp h.idx (ring_peek en.rings.(!best)).idx < 0)
    then best := i
  done;
  !best

let min_pending_head en =
  let s = min_pending_set en in
  if s < 0 then nil_task else ring_peek en.rings.(s)

let pop_min en =
  let s = min_pending_set en in
  if s < 0 then nil_task else pop_task en s

let pending_count en =
  let n = ref 0 in
  for i = 0 to Array.length en.rings - 1 do
    n := !n + en.rings.(i).rl
  done;
  !n

let uncommitted_remaining en =
  en.running > 0 || Vec.length en.waiting > 0 || pending_count en > 0

(* --- finishing --- *)

let vec_truncate v n =
  while Vec.length v > n do
    ignore (Vec.pop v)
  done

let waiting_remove en tk =
  let n = Vec.length en.waiting in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let w = Vec.get en.waiting i in
    if w != tk then begin
      Vec.set en.waiting !j w;
      incr j
    end
  done;
  vec_truncate en.waiting !j

let release_task_rules en tk =
  for i = 0 to Vec.length tk.insts - 1 do
    let inst = Vec.get tk.insts i in
    unlive en inst;
    inst.ri_parent <- nil_task;
    Vec.push en.free_insts inst
  done;
  Vec.clear tk.insts

(* latency classes returned by [step]; the stepped classes come first *)
let lc_unit = 0

let lc_load = 1

let lc_store = 2

let lc_push_iter = 3

let lc_prim = 4

let lc_blocked = 5

let lc_committed = 6

let lc_aborted = 7

let lc_retried = 8

let outcome_of_class rc =
  if rc = lc_committed then Committed_task
  else if rc = lc_aborted then Aborted_task
  else Retried_task

let finish en (tk : task) rc =
  if tk.status = s_running then en.running <- en.running - 1
  else if tk.status = s_waiting then waiting_remove en tk;
  release_task_rules en tk;
  if rc = lc_committed then begin
    tk.status <- s_committed;
    en.stats.committed <- en.stats.committed + 1
  end
  else if rc = lc_aborted then begin
    tk.status <- s_squashed;
    en.stats.aborted <- en.stats.aborted + 1
  end
  else begin
    tk.status <- s_squashed;
    en.stats.retried <- en.stats.retried + 1;
    (* TLS-style squash and re-execute in place: same index and payload,
       re-activated at the front of its queue, so the well-order minimum
       is always at a queue head *)
    let again = new_task en ~set:tk.set ~n_pay:tk.n_pay in
    Array.blit tk.idx 0 again.idx 0 en.width;
    Array.blit tk.pay_i 0 again.pay_i 0 tk.n_pay;
    Array.blit tk.pay_f 0 again.pay_f 0 tk.n_pay;
    Array.blit tk.pay_tg 0 again.pay_tg 0 tk.n_pay;
    enqueue en again ~front:true
  end;
  Vec.push en.free_tasks tk;
  rc

(* --- stepping --- *)

(* stack-slot-0 coercions with the tag check inline (no float crosses a
   call boundary on the non-error path) *)
let stack0_int en =
  if en.st_tg.(0) = tg_int then en.st_i.(0)
  else int_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

let stack0_truthy en =
  if en.st_tg.(0) = tg_bool || en.st_tg.(0) = tg_int then en.st_i.(0) <> 0
  else truthy_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

(* evaluate an argument list into scratch slots; returns its length *)
let eval_into en tk (args : Opcode.eop array array) ia fa ta =
  let n = Array.length args in
  for i = 0 to n - 1 do
    eval en tk nil_inst args.(i);
    ia.(i) <- en.st_i.(0);
    fa.(i) <- en.st_f.(0);
    ta.(i) <- en.st_tg.(0)
  done;
  n

let eval_args en tk args = eval_into en tk args en.ar_i en.ar_f en.ar_tg

let array_missing en arr = invalid_arg ("State: unknown array " ^ en.prog.Opcode.array_names.(arr))

let bounds_err en arr i len =
  invalid_arg
    (Printf.sprintf "State: %s[%d] out of bounds (length %d)" en.prog.Opcode.array_names.(arr) i
       len)

let store_type_err en arr tg =
  invalid_arg
    (Printf.sprintf "State: type mismatch writing %s to %s"
       (Binop.vstr tg en.st_i.(0) en.st_f.(0))
       en.prog.Opcode.array_names.(arr))

(* Execute one operation of a running task and return its latency
   class.  The commit on an empty continuation does not count as an
   executed op.  Loads and stores go straight to the state arrays; they
   reach the state's access trace only while tracing is on. *)
let step en (tk : task) =
  match en.prog.Opcode.code.(tk.pc) with
  | Opcode.I_commit -> finish en tk lc_committed
  | op -> begin
      en.stats.ops_executed <- en.stats.ops_executed + 1;
      match op with
      | Opcode.I_commit -> assert false
      | Opcode.I_let { dst; e; next } ->
          eval en tk nil_inst e;
          tk.reg_i.(dst) <- en.st_i.(0);
          tk.reg_f.(dst) <- en.st_f.(0);
          tk.reg_tg.(dst) <- en.st_tg.(0);
          tk.pc <- next;
          lc_unit
      | Opcode.I_load { dst; arr; addr; next } ->
          eval en tk nil_inst addr;
          let i = stack0_int en in
          State.touch en.st en.prog.Opcode.array_names.(arr) i false;
          begin
            match en.arr_data.(arr) with
            | A_int a ->
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                tk.reg_i.(dst) <- a.(i);
                tk.reg_tg.(dst) <- tg_int
            | A_float a ->
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                tk.reg_f.(dst) <- a.(i);
                tk.reg_tg.(dst) <- tg_float
            | A_missing -> array_missing en arr
          end;
          tk.pc <- next;
          en.touched_arr <- arr;
          en.touched_idx <- i;
          lc_load
      | Opcode.I_store { arr; addr; v; next } ->
          eval en tk nil_inst addr;
          let i = stack0_int en in
          eval en tk nil_inst v;
          State.touch en.st en.prog.Opcode.array_names.(arr) i true;
          let tg = en.st_tg.(0) in
          begin
            match en.arr_data.(arr) with
            | A_int a ->
                if tg <> tg_int then store_type_err en arr tg;
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                a.(i) <- en.st_i.(0)
            | A_float a ->
                if tg = tg_bool then store_type_err en arr tg;
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                a.(i) <- (if tg = tg_int then float_of_int en.st_i.(0) else en.st_f.(0))
            | A_missing -> array_missing en arr
          end;
          tk.pc <- next;
          en.touched_arr <- arr;
          en.touched_idx <- i;
          lc_store
      | Opcode.I_push { set; args; next } ->
          let n = eval_args en tk args in
          do_push en ~parent_idx:tk.idx ~set ~nargs:n;
          tk.pc <- next;
          lc_unit
      | Opcode.I_push_iter { set; lo; hi; ivar; args; next } ->
          eval en tk nil_inst lo;
          let lo_v = stack0_int en in
          eval en tk nil_inst hi;
          let hi_v = stack0_int en in
          for i = lo_v to hi_v - 1 do
            tk.reg_i.(ivar) <- i;
            tk.reg_tg.(ivar) <- tg_int;
            let n = eval_args en tk args in
            do_push en ~parent_idx:tk.idx ~set ~nargs:n
          done;
          tk.pc <- next;
          en.touched_idx <- hi_v - lo_v;
          lc_push_iter
      | Opcode.I_alloc { handle; rule; args; next } ->
          let n = eval_args en tk args in
          let inst = alloc_rule en tk ~rule_id:rule ~nargs:n in
          tk.handles.(handle) <- inst;
          tk.pc <- next;
          lc_unit
      | Opcode.I_await { dst; handle; handle_name; next } -> begin
          let inst = tk.handles.(handle) in
          if inst == nil_inst then
            invalid_arg ("Engine: Await on unallocated handle " ^ handle_name);
          if inst.ri_resolved <> 0 then begin
            tk.reg_i.(dst) <- (if inst.ri_resolved = 2 then 1 else 0);
            tk.reg_tg.(dst) <- tg_bool;
            tk.pc <- next;
            lc_unit
          end
          else begin
            tk.status <- s_waiting;
            tk.await_dst <- dst;
            tk.await_inst <- inst;
            en.running <- en.running - 1;
            Vec.push en.waiting tk;
            lc_blocked
          end
        end
      | Opcode.I_emit { label; args; next } ->
          let n = eval_into en tk args en.em_i en.em_f en.em_tg in
          set_event en en.em_i en.em_f en.em_tg n;
          fire_event en ~kind:1 ~set:tk.set ~label ~index:tk.idx ~source_tid:tk.tid;
          tk.bcast <- true;
          tk.pc <- next;
          lc_unit
      | Opcode.I_if { c; then_pc; else_pc } ->
          eval en tk nil_inst c;
          tk.pc <- (if stack0_truthy en then then_pc else else_pc);
          lc_unit
      | Opcode.I_abort -> finish en tk lc_aborted
      | Opcode.I_retry -> finish en tk lc_retried
      | Opcode.I_prim { dsts; prim; name; args; next } -> begin
          match en.prim_impls.(prim) with
          | None -> invalid_arg ("Engine: unbound prim " ^ name)
          | Some impl ->
              en.prim_count.(prim) <- en.prim_count.(prim) + 1;
              let args =
                Array.to_list
                  (Array.map
                     (fun e ->
                       eval en tk nil_inst e;
                       box en.st_i en.st_f en.st_tg 0)
                     args)
              in
              let results =
                impl { Spec.state = en.st; Spec.task_index = Index.of_array tk.idx } args
              in
              let nr = List.length results and nd = Array.length dsts in
              if nr <> nd then
                invalid_arg
                  (Printf.sprintf "Engine: prim %s returned %d values, expected %d" name nr nd);
              List.iteri (fun i v -> unbox tk.reg_i tk.reg_f tk.reg_tg dsts.(i) v) results;
              tk.pc <- next;
              en.touched_arr <- prim;
              lc_prim
        end
    end

(* --- minimum resolution --- *)

let resolve_pending en =
  (* 1. broadcast a change of the minimum uncommitted task *)
  let mu0 = min_uncommitted en in
  if mu0 != nil_task && mu0.tid <> en.last_min_broadcast then begin
    en.last_min_broadcast <- mu0.tid;
    set_event en mu0.pay_i mu0.pay_f mu0.pay_tg mu0.n_pay;
    fire_min_changed en ~index:mu0.idx ~source_tid:mu0.tid
  end;
  (* 2. fire otherwise clauses for minimal waiting parents *)
  let mu = min_uncommitted en in
  let mw = ref nil_task in
  for i = 0 to Vec.length en.waiting - 1 do
    let w = Vec.get en.waiting i in
    if !mw == nil_task || idx_cmp w.idx !mw.idx < 0 then mw := w
  done;
  for i = 0 to Vec.length en.waiting - 1 do
    let w = Vec.get en.waiting i in
    let inst = w.await_inst in
    if inst != nil_inst && inst.ri_resolved = 0 then begin
      let rule = en.prog.Opcode.rules.(inst.ri_rule) in
      let minimal =
        if rule.Opcode.r_min_waiting then !mw == nil_task || idx_cmp w.idx !mw.idx = 0
        else mu == nil_task || idx_cmp w.idx mu.idx = 0
      in
      if minimal then begin
        en.stats.otherwise_fired <- en.stats.otherwise_fired + 1;
        resolve en inst rule.Opcode.r_otherwise
      end
    end
  done

(* wake every waiting task whose rule resolved, in ascending index
   order (ties newest-parked first); the woken tasks are left in
   [en.resumed], marked running, with their await verdict bound *)
let resume_ready en =
  Vec.clear en.resumed;
  let n = Vec.length en.waiting in
  for i = n - 1 downto 0 do
    let w = Vec.get en.waiting i in
    let inst = w.await_inst in
    if inst == nil_inst || inst.ri_resolved <> 0 then Vec.push en.resumed w
  done;
  if Vec.length en.resumed > 0 then begin
    let j = ref 0 in
    for i = 0 to n - 1 do
      let w = Vec.get en.waiting i in
      let inst = w.await_inst in
      if inst != nil_inst && inst.ri_resolved = 0 then begin
        Vec.set en.waiting !j w;
        incr j
      end
    done;
    vec_truncate en.waiting !j
  end;
  let m = Vec.length en.resumed in
  for i = 1 to m - 1 do
    let x = Vec.get en.resumed i in
    let k = ref (i - 1) in
    while !k >= 0 && idx_cmp (Vec.get en.resumed !k).idx x.idx > 0 do
      Vec.set en.resumed (!k + 1) (Vec.get en.resumed !k);
      decr k
    done;
    Vec.set en.resumed (!k + 1) x
  done;
  for i = 0 to m - 1 do
    let w = Vec.get en.resumed i in
    let inst = w.await_inst in
    if inst != nil_inst then begin
      w.reg_i.(w.await_dst) <- (if inst.ri_resolved = 2 then 1 else 0);
      w.reg_tg.(w.await_dst) <- tg_bool;
      match en.prog.Opcode.code.(w.pc) with
      | Opcode.I_await { next; _ } -> w.pc <- next
      | _ -> assert false
    end;
    w.await_inst <- nil_inst;
    w.await_dst <- -1;
    w.status <- s_running;
    en.running <- en.running + 1
  done

let resumed_count en = Vec.length en.resumed

let resumed_get en i = Vec.get en.resumed i

let deadlocked en =
  en.running = 0
  && pending_count en = 0
  && Vec.length en.waiting > 0
  && begin
       resolve_pending en;
       let all_stuck = ref true in
       for i = 0 to Vec.length en.waiting - 1 do
         let inst = (Vec.get en.waiting i).await_inst in
         if inst == nil_inst || inst.ri_resolved <> 0 then all_stuck := false
       done;
       !all_stuck
     end

(* --- construction --- *)

let create spec bindings st =
  begin
    match Spec.validate spec with
    | Ok () -> ()
    | Error es -> invalid_arg ("Engine.create: invalid spec: " ^ String.concat "; " es)
  end;
  let prog = Opcode.compile spec in
  let width = max prog.Opcode.n_sets 1 in
  let arr_data =
    Array.map
      (fun name ->
        if State.has_array st name then begin
          match State.int_array st name with
          | a -> A_int a
          | exception Invalid_argument _ -> A_float (State.float_array st name)
        end
        else A_missing)
      prog.Opcode.array_names
  in
  let ar_cap = max 1 (max prog.Opcode.max_push_args prog.Opcode.max_rule_params) in
  let em_i = Array.make prog.Opcode.max_event_fields 0 in
  let em_f = Array.make prog.Opcode.max_event_fields 0.0 in
  let em_tg = Array.make prog.Opcode.max_event_fields tg_int in
  {
    prog;
    st;
    stats =
      {
        activated = 0;
        committed = 0;
        aborted = 0;
        retried = 0;
        events_fired = 0;
        otherwise_fired = 0;
        clause_resolutions = 0;
        ops_executed = 0;
        rule_allocs = 0;
      };
    width;
    counters = Array.make width 0;
    rings = Array.init width (fun _ -> ring_create ());
    rr = 0;
    next_tid = 0;
    running = 0;
    waiting = Vec.create ();
    h_idx = Array.make (8 * width) 0;
    h_task = Array.make 8 nil_task;
    h_tid = Array.make 8 0;
    h_len = 0;
    live = Vec.create ();
    snap = Vec.create ();
    free_tasks = Vec.create ();
    free_insts = Vec.create ();
    last_min_broadcast = -1;
    log = Vec.create ();
    prim_impls =
      Array.map (fun name -> List.assoc_opt name bindings.Spec.prims) prog.Opcode.prim_names;
    prim_count = Array.make (Array.length prog.Opcode.prim_names) 0;
    expected_fns =
      Array.map
        (fun (r : Opcode.crule) -> List.assoc_opt r.Opcode.r_name bindings.Spec.expected)
        prog.Opcode.rules;
    arr_data;
    st_i = Array.make prog.Opcode.max_stack 0;
    st_f = Array.make prog.Opcode.max_stack 0.0;
    st_tg = Array.make prog.Opcode.max_stack tg_int;
    ev_i = em_i;
    ev_f = em_f;
    ev_tg = em_tg;
    ev_n = 0;
    cx_earlier = false;
    cx_later = false;
    em_i;
    em_f;
    em_tg;
    ar_i = Array.make ar_cap 0;
    ar_f = Array.make ar_cap 0.0;
    ar_tg = Array.make ar_cap tg_int;
    resumed = Vec.create ();
    touched_arr = 0;
    touched_idx = 0;
  }

(* --- views --- *)

let program en = en.prog

let stats en = en.stats

let touched_array en = en.touched_arr

let touched_index en = en.touched_idx

let waiting_count en = Vec.length en.waiting

let waiting_get en i = Vec.get en.waiting i

let live_rule_count en = Vec.length en.live

let prim_counts en =
  let acc = ref [] in
  for i = Array.length en.prim_count - 1 downto 0 do
    if en.prim_count.(i) > 0 then acc := (en.prog.Opcode.prim_names.(i), en.prim_count.(i)) :: !acc
  done;
  !acc

let task_tid tk = tk.tid

let task_set tk = tk.set

let task_pc tk = tk.pc

let task_index tk = Index.of_array tk.idx

let compare_index a b = idx_cmp a.idx b.idx

let task_var tk name =
  let rec find r =
    if r >= Array.length tk.names then None
    else if tk.names.(r) <> name then find (r + 1)
    else if tk.reg_tg.(r) = tg_unbound then None
    else Some (box tk.reg_i tk.reg_f tk.reg_tg r)
  in
  find 0
