(* The ECA core: executes an {!Opcode.program} over pooled, preallocated
   mutable frames.  Every interpretation of a specification runs on it —
   the {!Semantics} policies (sequential oracle, worker-pool runtime,
   domains) and the cycle simulator's timing shell in [agp_hw].

   What makes it fast:
   - [create] compiles each pc of the flat op array into a closure, so a
     step is one indirect call, with the op's operands, state array and
     continuation resolved once per engine;
   - an expression compiles into a closure typed by where its value goes
     (an int, a truth value, a slot written in place), with a fast path
     for a single leaf or two leaves and an int-int operator, the shapes
     of almost every evaluation; any other shape or tag, and every rule
     condition, runs the postfix bytecode over preallocated scratch
     stacks (ints + floats + tags, no [Value.t] boxing on the hot path);
   - tasks, rule instances, queues and the uncommitted order are
     pooled flat structures recycled through free lists, so the
     steady-state loop allocates nothing;
   - a task record carries an immutable pool id, and the uncommitted
     order holds (index row, pool id, tid) int entries, so it never
     writes a pointer (no write barrier).  Activations arrive almost
     always in index order within their set, so each set keeps a FIFO
     run sorted in (index, tid) and only out-of-order activations
     (retries, children of a parent that ran ahead) enter a fallback
     heap: the minimum uncommitted task costs O(1) amortized per
     activation, and is the oldest of the minimum index.  The last
     answer is kept until its task dies or a smaller one arrives, so
     asking again with nothing changed is one liveness test;
   - payload, index and register copies on the task path are typed
     loops, not [Array.blit]/[Array.fill] (C calls that, on pooled
     major-heap arrays, run the write barrier per element);
   - an event reaches only the rules that listen to it (the {!Opcode}
     listener table), and a keyed rule's instances hash by key, so an
     event visits only the instances its key field can match;
   - parked tasks sit in an indexed min-heap on their well-order index
     and a resolution queues its waiter on a wake list, so the
     minimum-task broadcast and the wake-up cost what changed, not
     what is parked.

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
  pid : int; (* pool id: this record's slot in the engine's [pool] *)
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
  mutable wpos : int; (* slot in the waiting heap, -1 = not parked *)
  mutable wseq : int; (* park sequence number: larger = parked later *)
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
  (* intrusive live chain: -2 = not live, -1 = its rule's unkeyed
     chain, b >= 0 = bucket b of its rule's key table *)
  mutable ri_chain : int;
  mutable ri_next : rinst;
  mutable ri_prev : rinst;
}

let rec nil_task =
  {
    pid = -1;
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
    wpos = -1;
    wseq = 0;
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
    ri_chain = -2;
    ri_next = nil_inst;
    ri_prev = nil_inst;
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

(* a set's run in the uncommitted order: a FIFO ring of int entries
   (see "the uncommitted order" below), capacity [umask + 1], a power of
   two *)
type run = {
  mutable ub : int array;
  mutable uh : int; (* head entry *)
  mutable ul : int; (* entries *)
  mutable umask : int;
}

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
  mutable pending : int; (* tasks in the rings *)
  mutable rr : int; (* round-robin pointer for pop_any *)
  mutable next_tid : int;
  mutable running : int;
  (* parked tasks: binary min-heap on the index row; [wpos] is each
     task's slot *)
  mutable wh : task array;
  mutable wh_len : int;
  w_per_set : int array; (* parked tasks per set *)
  mutable wseq_next : int;
  wake : task Vec.t; (* the wake list: parked tasks whose instance resolved *)
  (* the uncommitted order, entries of (index row, pool id, tid) ints
     ordered by (row, tid): a run per set, and a binary min-heap for
     out-of-order activations.  Entry [k] of the heap is
     [h.(k * hs ..)]: the row's [width] columns, then the pool id, then
     the tid. *)
  runs : run array;
  mutable h : int array;
  hs : int; (* entry stride, width + 2 *)
  mutable h_len : int;
  (* the last minimum found, [nil_task] = unknown, and its tid *)
  mutable mu : task;
  mutable mu_tid : int;
  (* pool id -> record, for every record ever made; a plain array, as
     every look at a run head or the heap's top reads it *)
  mutable pool : task array;
  mutable pool_n : int;
  (* live (unresolved) rule instances, chained per rule: keyed rules
     hash by key into [kb], the rest sit on [ch_head] *)
  ch_head : rinst array;
  kb : rinst array array; (* per rule; [||] for an unkeyed rule *)
  kcount : int array; (* per rule: instances in [kb] *)
  mutable live_n : int;
  free_tasks : task Vec.t;
  free_insts : rinst Vec.t;
  mutable last_min_broadcast : int;
  log : lev Vec.t;
  prim_impls : Spec.prim_impl option array;
  prim_count : int array;
  expected_fns : (Value.t list -> int) option array; (* per rule *)
  (* pc -> the closure that executes the op there, built by [create] *)
  mutable exec : (task -> int) array;
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
  (* emit argument scratch *)
  em_i : int array;
  em_f : float array;
  em_tg : int array;
  resumed : task Vec.t;
  (* what the last [step] touched, for the timing shell *)
  mutable touched_arr : int;
  mutable touched_idx : int;
  checked : bool; (* shells call [check_invariants] as they go *)
  mutable check_calls : int;
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

(* Typed copies.  [Array.blit]/[Array.fill] are C calls that, on a
   major-heap array, cannot know the elements are immediates and run
   the write barrier per element; these loops store ints and unboxed
   floats directly. *)
let blit_ints (src : int array) so (dst : int array) d n =
  for k = 0 to n - 1 do
    dst.(d + k) <- src.(so + k)
  done

let blit_floats (src : float array) so (dst : float array) d n =
  for k = 0 to n - 1 do
    dst.(d + k) <- src.(so + k)
  done

let fill_ints (a : int array) o n (x : int) =
  for k = o to o + n - 1 do
    a.(k) <- x
  done

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
      let tk =
        {
          pid = en.pool_n;
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
          wpos = -1;
          wseq = 0;
        }
      in
      if en.pool_n = Array.length en.pool then begin
        let np = Array.make (2 * en.pool_n) nil_task in
        Array.blit en.pool 0 np 0 en.pool_n;
        en.pool <- np
      end;
      en.pool.(en.pool_n) <- tk;
      en.pool_n <- en.pool_n + 1;
      tk
    end
  in
  tk.tid <- en.next_tid;
  en.next_tid <- en.next_tid + 1;
  tk.set <- set;
  tk.names <- p.Opcode.set_regs.(set);
  ensure_pay tk n_pay;
  tk.n_pay <- n_pay;
  fill_ints tk.reg_tg 0 (Array.length tk.reg_tg) tg_unbound;
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
      ri_chain = -2;
      ri_next = nil_inst;
      ri_prev = nil_inst;
    }

(* --- the uncommitted order ---

   Every activation leaves one entry, (index row, pool id, tid), all
   ints, so nothing here writes a pointer.  Entries are totally ordered
   by (row, tid): of two tasks with equal indices the older comes first.
   Activations almost always arrive in index order within their set, so
   each set keeps a FIFO run of entries, sorted because an entry joins
   it only when its row is not below the run's tail (and its tid is
   larger than any already there).  The rest, retries and [For_all]
   children of a parent that ran ahead, go to a small fallback heap.
   An entry dies when its task finishes or broadcasts, and is dropped
   when it reaches a run's head or the heap's top, so the minimum costs
   O(1) amortized per activation plus a look at each set's run head. *)

(* row [ai] of [a] precedes row [bi] of [b]: the first column inline,
   the rest of the row only on a tie *)
let row_lt (a : int array) ai (b : int array) bi w =
  let x = a.(ai) and y = b.(bi) in
  x < y || (x = y && cmp_rows a ai b bi w 1 < 0)

(* entry [ai] of [a] precedes entry [bi] of [b]: (row, tid) order *)
let entry_lt (a : int array) ai (b : int array) bi w =
  let x = a.(ai) and y = b.(bi) in
  x < y
  || x = y
     &&
     let c = cmp_rows a ai b bi w 1 in
     c < 0 || (c = 0 && a.(ai + w + 1) < b.(bi + w + 1))

let put_entry en (a : int array) o (tk : task) =
  blit_ints tk.idx 0 a o en.width;
  a.(o + en.width) <- tk.pid;
  a.(o + en.width + 1) <- tk.tid

(* the record still holds task [tid], uncommitted and not broadcast *)
let holds_live (tk : task) tid =
  tk.tid = tid
  && (tk.status = s_pending || tk.status = s_running || tk.status = s_waiting)
  && not tk.bcast

(* the entry at [o] of [a] names a live task *)
let entry_live en (a : int array) o = holds_live en.pool.(a.(o + en.width)) a.(o + en.width + 1)

(* offset of a run's [k]-th entry from its head *)
let run_off en r k = ((r.uh + k) land r.umask) * en.hs

let run_push en r (tk : task) =
  if r.ul > r.umask then begin
    let cap = r.umask + 1 in
    let nb = Array.make (2 * cap * en.hs) 0 in
    for k = 0 to r.ul - 1 do
      blit_ints r.ub (run_off en r k) nb (k * en.hs) en.hs
    done;
    r.ub <- nb;
    r.uh <- 0;
    r.umask <- (2 * cap) - 1
  end;
  put_entry en r.ub (run_off en r r.ul) tk;
  r.ul <- r.ul + 1

let rec run_drop_dead en r =
  if r.ul > 0 && not (entry_live en r.ub (r.uh * en.hs)) then begin
    r.uh <- (r.uh + 1) land r.umask;
    r.ul <- r.ul - 1;
    run_drop_dead en r
  end

(* The fallback heap.  Both sifts move a hole instead of swapping: the
   moving entry waits in a slot past the end (the pushed entry, or the
   dropped top's replacement) and is written once, into the hole's final
   slot. *)

(* room for one more entry and the waiting slot past it *)
let heap_ensure en =
  let cap = Array.length en.h / en.hs in
  if en.h_len + 2 > cap then begin
    let nh = Array.make (2 * cap * en.hs) 0 in
    blit_ints en.h 0 nh 0 (cap * en.hs);
    en.h <- nh
  end

let heap_move en src dst = blit_ints en.h (src * en.hs) en.h (dst * en.hs) en.hs

(* move the hole at [i] up past every parent that the entry waiting in
   slot [m] precedes; the hole's final slot *)
let rec hole_up en i m =
  if i = 0 then 0
  else begin
    let parent = (i - 1) / 2 in
    if entry_lt en.h (m * en.hs) en.h (parent * en.hs) en.width then begin
      heap_move en parent i;
      hole_up en parent m
    end
    else i
  end

(* move the hole at [i] down past every child that precedes the entry
   waiting in slot [m]; the hole's final slot *)
let rec hole_down en i m =
  let n = en.h_len and hs = en.hs and w = en.width in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < n && entry_lt en.h (l * hs) en.h (m * hs) w then l else m in
  let s = if r < n && entry_lt en.h (r * hs) en.h (s * hs) w then r else s in
  if s = m then i
  else begin
    heap_move en s i;
    hole_down en s m
  end

let heap_push en (tk : task) =
  heap_ensure en;
  let m = en.h_len + 1 in
  put_entry en en.h (m * en.hs) tk;
  heap_move en m (hole_up en en.h_len m);
  en.h_len <- en.h_len + 1

let heap_drop_top en =
  let last = en.h_len - 1 in
  en.h_len <- last;
  if last > 0 then heap_move en last (hole_down en 0 last)

let rec heap_drop_dead en =
  if en.h_len > 0 && not (entry_live en en.h 0) then begin
    heap_drop_top en;
    heap_drop_dead en
  end

(* file an activation: on its set's run when its row is not below the
   run's tail, else on the fallback heap.  A live kept minimum gives
   way only to a smaller row (the newcomer's tid is the larger); a dead
   one is forgotten, as its record may already hold another task. *)
let order_push en (tk : task) =
  if en.mu != nil_task then
    if not (holds_live en.mu en.mu_tid) then en.mu <- nil_task
    else if row_lt tk.idx 0 en.mu.idx 0 en.width then begin
      en.mu <- tk;
      en.mu_tid <- tk.tid
    end;
  let r = en.runs.(tk.set) in
  if r.ul = 0 || not (row_lt tk.idx 0 r.ub (run_off en r (r.ul - 1)) en.width) then
    run_push en r tk
  else heap_push en tk

(* the least live run head of sets [s..] and the entry at [bo] of [ba]
   (none when [bo < 0]) *)
let rec min_heads en s (ba : int array) bo =
  if s = Array.length en.runs then if bo < 0 then nil_task else en.pool.(ba.(bo + en.width))
  else begin
    let r = en.runs.(s) in
    run_drop_dead en r;
    let o = r.uh * en.hs in
    if r.ul > 0 && (bo < 0 || entry_lt r.ub o ba bo en.width) then min_heads en (s + 1) r.ub o
    else min_heads en (s + 1) ba bo
  end

(* The minimum uncommitted task, the oldest among equal indices: the
   least of the live run heads and heap top.  A task that has fired its
   commit broadcast (its first Emit) is retired for ordering purposes:
   its tail pipelines behind later tasks, as a TLS commit stage drains
   while younger work proceeds.  A recycled record (tid mismatch) means
   the original task finished.  The answer is kept in [mu] until that
   task dies or a smaller one arrives ([order_push]); the timing shell
   asks for it once per stalled allocation, most often with nothing
   changed. *)
let min_uncommitted en =
  if en.mu != nil_task && holds_live en.mu en.mu_tid then en.mu
  else begin
    heap_drop_dead en;
    let m = min_heads en 0 en.h (if en.h_len = 0 then -1 else 0) in
    en.mu <- m;
    en.mu_tid <- m.tid;
    m
  end

(* --- live rule instances: per-rule chains, keyed rules hashed --- *)

(* bucket of an int key in a table of [mask + 1] buckets *)
let key_bucket v mask =
  let h = v * 0x19E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* no index of [reads] names an in-range bool slot of [tg] (length [n]) *)
let rec no_bool_reads (reads : int array) (tg : int array) n k =
  if k >= Array.length reads then true
  else begin
    let i = reads.(k) in
    (i < 0 || i >= n || tg.(i) <> tg_bool) && no_bool_reads reads tg n (k + 1)
  end

(* an instance of a keyed rule goes in a key bucket when its key param
   is an int and no param the clauses read is a bool (Opcode's
   exactness rule); otherwise on the rule's unkeyed chain *)
let inst_keyed (r : Opcode.crule) inst =
  let p = r.Opcode.r_key_param in
  r.Opcode.r_key_field >= 0
  && p < inst.ri_np
  && inst.ri_ptg.(p) = tg_int
  && no_bool_reads r.Opcode.r_reads_p inst.ri_ptg inst.ri_np 0

let chain_push_head en inst chain =
  let r = inst.ri_rule in
  let head = if chain < 0 then en.ch_head.(r) else en.kb.(r).(chain) in
  inst.ri_next <- head;
  inst.ri_prev <- nil_inst;
  if head != nil_inst then head.ri_prev <- inst;
  if chain < 0 then en.ch_head.(r) <- inst else en.kb.(r).(chain) <- inst;
  inst.ri_chain <- chain

let rec rehash en inst p mask =
  if inst != nil_inst then begin
    let next = inst.ri_next in
    chain_push_head en inst (key_bucket inst.ri_pi.(p) mask);
    rehash en next p mask
  end

(* double a rule's key table and rehash its instances *)
let grow_buckets en r =
  let old = en.kb.(r) in
  let mask = (2 * Array.length old) - 1 in
  en.kb.(r) <- Array.make (mask + 1) nil_inst;
  let p = en.prog.Opcode.rules.(r).Opcode.r_key_param in
  Array.iter (fun head -> rehash en head p mask) old

let link en inst =
  let r = inst.ri_rule in
  let rule = en.prog.Opcode.rules.(r) in
  if inst_keyed rule inst then begin
    en.kcount.(r) <- en.kcount.(r) + 1;
    if en.kcount.(r) > Array.length en.kb.(r) then grow_buckets en r;
    chain_push_head en inst
      (key_bucket inst.ri_pi.(rule.Opcode.r_key_param) (Array.length en.kb.(r) - 1))
  end
  else chain_push_head en inst (-1);
  en.live_n <- en.live_n + 1

let unlink en inst =
  let chain = inst.ri_chain in
  if chain <> -2 then begin
    let r = inst.ri_rule in
    let next = inst.ri_next and prev = inst.ri_prev in
    if prev != nil_inst then prev.ri_next <- next
    else if chain < 0 then en.ch_head.(r) <- next
    else en.kb.(r).(chain) <- next;
    if next != nil_inst then next.ri_prev <- prev;
    if chain >= 0 then en.kcount.(r) <- en.kcount.(r) - 1;
    inst.ri_next <- nil_inst;
    inst.ri_prev <- nil_inst;
    inst.ri_chain <- -2;
    en.live_n <- en.live_n - 1
  end

(* --- rule resolution --- *)

(* resolving the instance a parked task awaits puts the task on the
   wake list: the list holds exactly the parked tasks whose instance
   has resolved *)
let resolve en inst b =
  if inst.ri_resolved = 0 then begin
    inst.ri_resolved <- (if b then 2 else 1);
    unlink en inst;
    let w = inst.ri_parent in
    if w.await_inst == inst && w.wpos >= 0 then Vec.push en.wake w
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

(* Deliver the current event to one chain: [kind] 0 = activated,
   1 = reached, 2 = min_changed.  Resolution unlinks the instance being
   visited, so the walk reads [next] first. *)
let rec deliver_chain en inst kind set label (index : int array) source_tid =
  if inst != nil_inst then begin
    let next = inst.ri_next in
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
    end;
    deliver_chain en next kind set label index source_tid
  end

(* Deliver the current event to the instances of the listening
   [rules].  A keyed rule's bucketed instances are visited only in the
   event's key bucket when the event's key field is an int and no field
   the rule reads is a bool; any other event visits every bucket. *)
let deliver en (rules : int array) ~kind ~set ~label ~index ~source_tid =
  for j = 0 to Array.length rules - 1 do
    let r = rules.(j) in
    deliver_chain en en.ch_head.(r) kind set label index source_tid;
    let kb = en.kb.(r) in
    if en.kcount.(r) > 0 then begin
      let rule = en.prog.Opcode.rules.(r) in
      let f = rule.Opcode.r_key_field in
      if f < en.ev_n && en.ev_tg.(f) = tg_int && no_bool_reads rule.Opcode.r_reads_f en.ev_tg en.ev_n 0
      then
        deliver_chain en kb.(key_bucket en.ev_i.(f) (Array.length kb - 1)) kind set label index
          source_tid
      else
        for b = 0 to Array.length kb - 1 do
          deliver_chain en kb.(b) kind set label index source_tid
        done
    end
  done

(* the field vector rule conditions read as CField *)
let set_event en ia fa ta n =
  en.ev_i <- ia;
  en.ev_f <- fa;
  en.ev_tg <- ta;
  en.ev_n <- n

let listeners en ~kind ~set ~label =
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
  let rules = listeners en ~kind ~set ~label in
  if Array.length rules > 0 && en.live_n > 0 then
    deliver en rules ~kind ~set ~label ~index ~source_tid

let fire_min_changed en ~(index : int array) ~source_tid =
  en.stats.events_fired <- en.stats.events_fired + 1;
  let rules = listeners en ~kind:2 ~set:0 ~label:0 in
  if Array.length rules > 0 && en.live_n > 0 then
    deliver en rules ~kind:2 ~set:(-1) ~label:(-1) ~index ~source_tid

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

(* [inst] comes from [new_inst] with its [nargs] params already
   written *)
let alloc_rule en (tk : task) inst ~rule_id ~nargs =
  let r = en.prog.Opcode.rules.(rule_id) in
  inst.ri_rule <- rule_id;
  inst.ri_parent <- tk;
  inst.ri_np <- nargs;
  inst.ri_resolved <- 0;
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
  if r.Opcode.r_counted && inst.ri_counter <= 0 then inst.ri_resolved <- 2 else link en inst;
  Vec.push tk.insts inst;
  inst

(* --- activation --- *)

let enqueue en (tk : task) ~front =
  let r = en.rings.(tk.set) in
  if front then ring_push_front r tk else ring_push r tk;
  en.pending <- en.pending + 1;
  order_push en tk;
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
  fill_ints tk.idx 0 en.width 0;
  tk.idx.(set) <- stamp en set;
  enqueue en tk ~front:false

(* --- queues --- *)

let take en tk =
  tk.status <- s_running;
  en.pending <- en.pending - 1;
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

(* The smallest of the per-set queue heads.  A head is not always its
   set's minimum pending task: a ring is FIFO, and a task's index is its
   pushing parent's prefix followed by its set's stamp (0 in a [For_all]
   set), so a parent that ran ahead of a smaller one queues a larger
   child first.  DESIGN.md records this deviation of priority
   admission. *)
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

let pending_count en = en.pending

let pending_in_set en set = en.rings.(set).rl

let uncommitted_remaining en = en.running > 0 || en.wh_len > 0 || en.pending > 0

(* --- the waiting heap: parked tasks ordered by index --- *)

let wh_put en i tk =
  en.wh.(i) <- tk;
  tk.wpos <- i

let rec wh_sift_up en i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let tk = en.wh.(i) in
    if idx_cmp tk.idx en.wh.(parent).idx < 0 then begin
      wh_put en i en.wh.(parent);
      wh_put en parent tk;
      wh_sift_up en parent
    end
  end

let rec wh_sift_down en i =
  let n = en.wh_len in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < n && idx_cmp en.wh.(l).idx en.wh.(i).idx < 0 then l else i in
  let s = if r < n && idx_cmp en.wh.(r).idx en.wh.(s).idx < 0 then r else s in
  if s <> i then begin
    let tk = en.wh.(i) in
    wh_put en i en.wh.(s);
    wh_put en s tk;
    wh_sift_down en s
  end

let park en tk =
  if en.wh_len = Array.length en.wh then begin
    let nw = Array.make (2 * Array.length en.wh) nil_task in
    Array.blit en.wh 0 nw 0 en.wh_len;
    en.wh <- nw
  end;
  let i = en.wh_len in
  en.wh_len <- i + 1;
  wh_put en i tk;
  tk.wseq <- en.wseq_next;
  en.wseq_next <- en.wseq_next + 1;
  en.w_per_set.(tk.set) <- en.w_per_set.(tk.set) + 1;
  wh_sift_up en i

let unpark en tk =
  let i = tk.wpos and last = en.wh_len - 1 in
  en.wh_len <- last;
  if i < last then begin
    let moved = en.wh.(last) in
    wh_put en i moved;
    en.wh.(last) <- nil_task;
    wh_sift_down en i;
    wh_sift_up en moved.wpos
  end
  else en.wh.(last) <- nil_task;
  tk.wpos <- -1;
  en.w_per_set.(tk.set) <- en.w_per_set.(tk.set) - 1

(* --- finishing --- *)

let release_task_rules en tk =
  for i = 0 to Vec.length tk.insts - 1 do
    let inst = Vec.get tk.insts i in
    unlink en inst;
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
  (* a parked task's pc is its Await until [resume_ready] moves it, so
     only a running task reaches a finishing op *)
  if tk.status = s_running then en.running <- en.running - 1;
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
    blit_ints tk.idx 0 again.idx 0 en.width;
    blit_ints tk.pay_i 0 again.pay_i 0 tk.n_pay;
    blit_floats tk.pay_f 0 again.pay_f 0 tk.n_pay;
    blit_ints tk.pay_tg 0 again.pay_tg 0 tk.n_pay;
    enqueue en again ~front:true
  end;
  Vec.push en.free_tasks tk;
  rc

(* --- stepping ---

   [create] compiles every pc into a closure that executes its op, so
   [step] is one indirect call: the op's kind, operands, state array and
   continuation are resolved once per engine, not on every step.  An
   expression compiles into a closure typed by where its value goes: an
   int (addresses, [Push_iter] bounds), a truth value ([If]), or a
   tagged slot written in place ([Let], arguments, stored values).

   The shapes that make up almost every evaluation get a fast path: one
   leaf ([Param], [Var] or an int constant), or two such leaves joined
   by an int-int [+ - * = <> < <= > >=].  A fast path tests the tags it
   relies on (an int, a [Param] in range, a bound register) and on any
   other tag runs [eval] over the same bytecode, so the postfix
   evaluator and {!Binop} stay the one statement of promotion,
   evaluation order and error strings.  [/] and [%] always go to
   [eval], which owns their zero checks. *)

(* stack-slot-0 coercions with the tag check inline (no float crosses a
   call boundary on the non-error path) *)
let stack0_int en =
  if en.st_tg.(0) = tg_int then en.st_i.(0)
  else int_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

let stack0_truthy en =
  if en.st_tg.(0) = tg_bool || en.st_tg.(0) = tg_int then en.st_i.(0) <> 0
  else truthy_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

(* a leaf of a fast shape *)
type leaf =
  | L_int of int
  | L_param of int
  | L_reg of int

type shape =
  | Leaf of leaf
  | Bin of Spec.binop * leaf * leaf (* a [fast_op] *)
  | Slow

let leaf_of (e : Opcode.eop) =
  match e with
  | Opcode.E_int n -> Some (L_int n)
  | Opcode.E_param i when i >= 0 -> Some (L_param i)
  | Opcode.E_reg (r, _) -> Some (L_reg r)
  | _ -> None

(* the int-int binops with a fast path: not [/] and [%], whose zero
   checks stay in [eval] *)
let fast_op (op : Spec.binop) =
  match op with
  | Spec.Add | Spec.Sub | Spec.Mul -> true
  | Spec.Eq | Spec.Ne | Spec.Lt | Spec.Le | Spec.Gt | Spec.Ge -> true
  | Spec.Div | Spec.Rem | Spec.Min | Spec.Max | Spec.And | Spec.Or -> false

let shape_of (c : Opcode.eop array) =
  match c with
  | [| e |] -> ( match leaf_of e with Some l -> Leaf l | None -> Slow)
  | [| a; b; Opcode.E_binop op |] when fast_op op -> (
      match (leaf_of a, leaf_of b) with
      | Some a, Some b -> Bin (op, a, b)
      | _ -> Slow)
  | _ -> Slow

let is_cmp (op : Spec.binop) =
  match op with
  | Spec.Eq | Spec.Ne | Spec.Lt | Spec.Le | Spec.Gt | Spec.Ge -> true
  | _ -> false

(* the leaf holds an int *)
let[@inline] leaf_is_int (tk : task) l =
  match l with
  | L_int _ -> true
  | L_param i -> i < tk.n_pay && tk.pay_tg.(i) = tg_int
  | L_reg r -> tk.reg_tg.(r) = tg_int

let[@inline] leaf_int (tk : task) l =
  match l with
  | L_int n -> n
  | L_param i -> tk.pay_i.(i)
  | L_reg r -> tk.reg_i.(r)

(* [x op y] for a fast op; a comparison gives 1 or 0 *)
let[@inline] int_op (op : Spec.binop) (x : int) (y : int) =
  match op with
  | Spec.Add -> x + y
  | Spec.Sub -> x - y
  | Spec.Mul -> x * y
  | Spec.Eq -> if x = y then 1 else 0
  | Spec.Ne -> if x <> y then 1 else 0
  | Spec.Lt -> if x < y then 1 else 0
  | Spec.Le -> if x <= y then 1 else 0
  | Spec.Gt -> if x > y then 1 else 0
  | _ -> if x >= y then 1 else 0

(* an expression whose value must be an int *)
let int_expr en (c : Opcode.eop array) : task -> int =
  let slow tk =
    eval en tk nil_inst c;
    stack0_int en
  in
  match shape_of c with
  | Leaf (L_int n) -> fun _ -> n
  | Leaf (L_param i) ->
      fun tk -> if i < tk.n_pay && tk.pay_tg.(i) = tg_int then tk.pay_i.(i) else slow tk
  | Leaf (L_reg r) -> fun tk -> if tk.reg_tg.(r) = tg_int then tk.reg_i.(r) else slow tk
  | Bin (op, a, b) when not (is_cmp op) ->
      fun tk ->
        if leaf_is_int tk a && leaf_is_int tk b then int_op op (leaf_int tk a) (leaf_int tk b)
        else slow tk
  | Bin _ | Slow -> slow

(* an expression tested for truth (a bool, or an int other than 0) *)
let truthy_expr en (c : Opcode.eop array) : task -> bool =
  let slow tk =
    eval en tk nil_inst c;
    stack0_truthy en
  in
  match shape_of c with
  | Leaf (L_int n) ->
      let b = n <> 0 in
      fun _ -> b
  | Leaf (L_param i) ->
      fun tk ->
        if i < tk.n_pay && (tk.pay_tg.(i) = tg_int || tk.pay_tg.(i) = tg_bool) then
          tk.pay_i.(i) <> 0
        else slow tk
  | Leaf (L_reg r) ->
      fun tk ->
        let tg = tk.reg_tg.(r) in
        if tg = tg_int || tg = tg_bool then tk.reg_i.(r) <> 0 else slow tk
  | Bin (op, a, b) ->
      fun tk ->
        if leaf_is_int tk a && leaf_is_int tk b then int_op op (leaf_int tk a) (leaf_int tk b) <> 0
        else slow tk
  | Slow -> slow

(* an expression whose tagged value is written to slot [k] of three
   parallel arrays: ints (and bools), floats, tags *)
type slot = task -> int array -> float array -> int array -> int -> unit

let slot_expr en (c : Opcode.eop array) : slot =
  let slow tk (ia : int array) (fa : float array) (ta : int array) k =
    eval en tk nil_inst c;
    ia.(k) <- en.st_i.(0);
    fa.(k) <- en.st_f.(0);
    ta.(k) <- en.st_tg.(0)
  in
  match shape_of c with
  | Leaf (L_int n) ->
      fun _ ia _ ta k ->
        ia.(k) <- n;
        ta.(k) <- tg_int
  | Leaf (L_param i) ->
      fun tk ia fa ta k ->
        if i < tk.n_pay then begin
          ia.(k) <- tk.pay_i.(i);
          fa.(k) <- tk.pay_f.(i);
          ta.(k) <- tk.pay_tg.(i)
        end
        else slow tk ia fa ta k
  | Leaf (L_reg r) ->
      fun tk ia fa ta k ->
        let tg = tk.reg_tg.(r) in
        if tg <> tg_unbound then begin
          ia.(k) <- tk.reg_i.(r);
          fa.(k) <- tk.reg_f.(r);
          ta.(k) <- tg
        end
        else slow tk ia fa ta k
  | Bin (op, a, b) ->
      let tg = if is_cmp op then tg_bool else tg_int in
      fun tk ia fa ta k ->
        if leaf_is_int tk a && leaf_is_int tk b then begin
          ia.(k) <- int_op op (leaf_int tk a) (leaf_int tk b);
          ta.(k) <- tg
        end
        else slow tk ia fa ta k
  | Slow -> slow

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

(* a state array, resolved once per engine *)
type arr =
  | A_int of int array
  | A_float of float array
  | A_missing

let resolve_array st name =
  if not (State.has_array st name) then A_missing
  else
    match State.int_array st name with
    | a -> A_int a
    | exception Invalid_argument _ -> A_float (State.float_array st name)

(* every op but the commit counts as executed *)
let[@inline] count_op en = en.stats.ops_executed <- en.stats.ops_executed + 1

(* activate a child of [tk] in [set] whose payload [args] write in
   place: index = the parent's prefix up to the slot, then the stamp *)
let push_child en (tk : task) set (args : slot array) =
  let n = Array.length args in
  let child = new_task en ~set ~n_pay:n in
  for k = 0 to n - 1 do
    args.(k) tk child.pay_i child.pay_f child.pay_tg k
  done;
  blit_ints tk.idx 0 child.idx 0 set;
  fill_ints child.idx set (en.width - set) 0;
  child.idx.(set) <- stamp en set;
  enqueue en child ~front:false

(* The closure that executes [op] and returns its latency class.  Loads
   and stores go straight to the state arrays, after [State.touch]
   (which records the access only while the state is tracing). *)
let compile_op en (op : Opcode.inst) : task -> int =
  let names = en.prog.Opcode.array_names in
  match op with
  | Opcode.I_commit -> fun tk -> finish en tk lc_committed
  | Opcode.I_let { dst; e; next } ->
      let e = slot_expr en e in
      fun tk ->
        count_op en;
        e tk tk.reg_i tk.reg_f tk.reg_tg dst;
        tk.pc <- next;
        lc_unit
  | Opcode.I_load { dst; arr; addr; next } -> (
      let addr = int_expr en addr and name = names.(arr) in
      match resolve_array en.st name with
      | A_int a ->
          fun tk ->
            count_op en;
            let i = addr tk in
            State.touch en.st name i false;
            if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
            tk.reg_i.(dst) <- a.(i);
            tk.reg_tg.(dst) <- tg_int;
            tk.pc <- next;
            en.touched_arr <- arr;
            en.touched_idx <- i;
            lc_load
      | data ->
          fun tk ->
            count_op en;
            let i = addr tk in
            State.touch en.st name i false;
            begin
              match data with
              | A_float a ->
                  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                  tk.reg_f.(dst) <- a.(i);
                  tk.reg_tg.(dst) <- tg_float
              | A_int _ | A_missing -> array_missing en arr
            end;
            tk.pc <- next;
            en.touched_arr <- arr;
            en.touched_idx <- i;
            lc_load)
  | Opcode.I_store { arr; addr; v; next } -> (
      (* the value goes to stack slot 0, where the error path reads it *)
      let addr = int_expr en addr and v = slot_expr en v and name = names.(arr) in
      match resolve_array en.st name with
      | A_int a ->
          fun tk ->
            count_op en;
            let i = addr tk in
            v tk en.st_i en.st_f en.st_tg 0;
            State.touch en.st name i true;
            let tg = en.st_tg.(0) in
            if tg <> tg_int then store_type_err en arr tg;
            if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
            a.(i) <- en.st_i.(0);
            tk.pc <- next;
            en.touched_arr <- arr;
            en.touched_idx <- i;
            lc_store
      | data ->
          fun tk ->
            count_op en;
            let i = addr tk in
            v tk en.st_i en.st_f en.st_tg 0;
            State.touch en.st name i true;
            let tg = en.st_tg.(0) in
            begin
              match data with
              | A_float a ->
                  if tg = tg_bool then store_type_err en arr tg;
                  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                  a.(i) <- (if tg = tg_int then float_of_int en.st_i.(0) else en.st_f.(0))
              | A_int _ | A_missing -> array_missing en arr
            end;
            tk.pc <- next;
            en.touched_arr <- arr;
            en.touched_idx <- i;
            lc_store)
  | Opcode.I_push { set; args; next } ->
      let args = Array.map (slot_expr en) args in
      fun tk ->
        count_op en;
        push_child en tk set args;
        tk.pc <- next;
        lc_unit
  | Opcode.I_push_iter { set; lo; hi; ivar; args; next } ->
      let lo = int_expr en lo and hi = int_expr en hi and args = Array.map (slot_expr en) args in
      fun tk ->
        count_op en;
        let lo_v = lo tk in
        let hi_v = hi tk in
        for i = lo_v to hi_v - 1 do
          tk.reg_i.(ivar) <- i;
          tk.reg_tg.(ivar) <- tg_int;
          push_child en tk set args
        done;
        tk.pc <- next;
        en.touched_idx <- hi_v - lo_v;
        lc_push_iter
  | Opcode.I_alloc { handle; rule; args; next } ->
      let args = Array.map (slot_expr en) args in
      let n = Array.length args in
      fun tk ->
        count_op en;
        let inst = new_inst en in
        for k = 0 to n - 1 do
          args.(k) tk inst.ri_pi inst.ri_pf inst.ri_ptg k
        done;
        tk.handles.(handle) <- alloc_rule en tk inst ~rule_id:rule ~nargs:n;
        tk.pc <- next;
        lc_unit
  | Opcode.I_await { dst; handle; handle_name; next } ->
      fun tk ->
        count_op en;
        let inst = tk.handles.(handle) in
        if inst == nil_inst then invalid_arg ("Engine: Await on unallocated handle " ^ handle_name);
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
          park en tk;
          lc_blocked
        end
  | Opcode.I_emit { label; args; next } ->
      let args = Array.map (slot_expr en) args in
      let n = Array.length args in
      fun tk ->
        count_op en;
        for k = 0 to n - 1 do
          args.(k) tk en.em_i en.em_f en.em_tg k
        done;
        set_event en en.em_i en.em_f en.em_tg n;
        fire_event en ~kind:1 ~set:tk.set ~label ~index:tk.idx ~source_tid:tk.tid;
        tk.bcast <- true;
        tk.pc <- next;
        lc_unit
  | Opcode.I_if { c; then_pc; else_pc } ->
      let c = truthy_expr en c in
      fun tk ->
        count_op en;
        tk.pc <- (if c tk then then_pc else else_pc);
        lc_unit
  | Opcode.I_abort ->
      fun tk ->
        count_op en;
        finish en tk lc_aborted
  | Opcode.I_retry ->
      fun tk ->
        count_op en;
        finish en tk lc_retried
  | Opcode.I_prim { dsts; prim; name; args; next } ->
      fun tk -> (
        count_op en;
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
            lc_prim)

(* Execute one operation of a running task and return its latency
   class: the closure [create] compiled for its pc. *)
let step en (tk : task) = en.exec.(tk.pc) tk

(* --- minimum resolution --- *)

(* fire the otherwise clause of a parked task's rule when the task is
   minimal in the rule's scope: [top] is the smallest parked index,
   [mu] the minimum uncommitted task *)
let otherwise_if_minimal en w (top : int array) mu =
  let inst = w.await_inst in
  if inst.ri_resolved = 0 then begin
    let rule = en.prog.Opcode.rules.(inst.ri_rule) in
    let minimal =
      if rule.Opcode.r_min_waiting then idx_cmp w.idx top = 0
      else mu == nil_task || idx_cmp w.idx mu.idx = 0
    in
    if minimal then begin
      en.stats.otherwise_fired <- en.stats.otherwise_fired + 1;
      resolve en inst rule.Opcode.r_otherwise
    end
  end

(* visit the heap entries whose index is at most [bound]: heap order
   prunes every subtree whose root is above it *)
let rec otherwise_below en i (bound : int array) top mu =
  if i < en.wh_len then begin
    let w = en.wh.(i) in
    if idx_cmp w.idx bound <= 0 then begin
      otherwise_if_minimal en w top mu;
      otherwise_below en ((2 * i) + 1) bound top mu;
      otherwise_below en ((2 * i) + 2) bound top mu
    end
  end

let resolve_pending en =
  (* 1. broadcast a change of the minimum uncommitted task *)
  let mu0 = min_uncommitted en in
  if mu0 != nil_task && mu0.tid <> en.last_min_broadcast then begin
    en.last_min_broadcast <- mu0.tid;
    set_event en mu0.pay_i mu0.pay_f mu0.pay_tg mu0.n_pay;
    fire_min_changed en ~index:mu0.idx ~source_tid:mu0.tid
  end;
  (* 2. fire otherwise clauses for minimal parked tasks.  A minimal task
     has the smallest parked index or the minimum uncommitted one, so
     only entries up to the larger of the two can qualify — unless
     there is no minimum uncommitted task, when every Min_uncommitted
     waiter does.  Resolution only queues wake-ups; the heap stays put
     while it is walked. *)
  if en.wh_len > 0 then begin
    let mu = min_uncommitted en in
    let top = en.wh.(0).idx in
    if mu == nil_task then
      for i = 0 to en.wh_len - 1 do
        otherwise_if_minimal en en.wh.(i) top mu
      done
    else otherwise_below en 0 (if idx_cmp mu.idx top > 0 then mu.idx else top) top mu
  end

(* wake order: ascending index, ties newest-parked first *)
let wakes_before a b =
  let c = idx_cmp a.idx b.idx in
  c < 0 || (c = 0 && a.wseq > b.wseq)

(* wake every task on the wake list in wake order; the woken tasks are
   left in [en.resumed], marked running, with their await verdict
   bound *)
let resume_ready en =
  Vec.clear en.resumed;
  for i = 0 to Vec.length en.wake - 1 do
    let w = Vec.get en.wake i in
    unpark en w;
    Vec.push en.resumed w
  done;
  Vec.clear en.wake;
  let m = Vec.length en.resumed in
  for i = 1 to m - 1 do
    let x = Vec.get en.resumed i in
    let k = ref (i - 1) in
    while !k >= 0 && wakes_before x (Vec.get en.resumed !k) do
      Vec.set en.resumed (!k + 1) (Vec.get en.resumed !k);
      decr k
    done;
    Vec.set en.resumed (!k + 1) x
  done;
  for i = 0 to m - 1 do
    let w = Vec.get en.resumed i in
    let inst = w.await_inst in
    w.reg_i.(w.await_dst) <- (if inst.ri_resolved = 2 then 1 else 0);
    w.reg_tg.(w.await_dst) <- tg_bool;
    begin
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

(* every parked task whose instance resolved is on the wake list, so
   after a last resolution pass an empty list means all are stuck *)
let deadlocked en =
  en.running = 0
  && en.pending = 0
  && en.wh_len > 0
  && begin
       resolve_pending en;
       Vec.length en.wake = 0
     end

(* --- construction --- *)

let check_by_default = ref (Sys.getenv_opt "AGP_CHECK" = Some "1")

let set_check_invariants b = check_by_default := b

let create spec bindings st =
  begin
    match Spec.validate spec with
    | Ok () -> ()
    | Error es -> invalid_arg ("Engine.create: invalid spec: " ^ String.concat "; " es)
  end;
  let prog = Opcode.compile spec in
  let width = max prog.Opcode.n_sets 1 in
  let em_i = Array.make prog.Opcode.max_event_fields 0 in
  let em_f = Array.make prog.Opcode.max_event_fields 0.0 in
  let em_tg = Array.make prog.Opcode.max_event_fields tg_int in
  let en =
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
    pending = 0;
    rr = 0;
    next_tid = 0;
    running = 0;
    wh = Array.make 8 nil_task;
    wh_len = 0;
    w_per_set = Array.make width 0;
    wseq_next = 0;
    wake = Vec.create ();
    runs =
      Array.init width (fun _ -> { ub = Array.make (8 * (width + 2)) 0; uh = 0; ul = 0; umask = 7 });
    h = Array.make (8 * (width + 2)) 0;
    hs = width + 2;
    h_len = 0;
    mu = nil_task;
    mu_tid = -1;
    pool = Array.make 8 nil_task;
    pool_n = 0;
    ch_head = Array.make (Array.length prog.Opcode.rules) nil_inst;
    kb =
      Array.map
        (fun (r : Opcode.crule) -> if r.Opcode.r_key_field >= 0 then Array.make 8 nil_inst else [||])
        prog.Opcode.rules;
    kcount = Array.make (Array.length prog.Opcode.rules) 0;
    live_n = 0;
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
    exec = [||];
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
    resumed = Vec.create ();
    touched_arr = 0;
    touched_idx = 0;
    checked = !check_by_default;
    check_calls = 0;
  }
  in
  en.exec <- Array.map (compile_op en) prog.Opcode.code;
  en

(* --- views --- *)

let program en = en.prog

let stats en = en.stats

let touched_array en = en.touched_arr

let touched_index en = en.touched_idx

let waiting_count en = en.wh_len

let waiting_in_set en set = en.w_per_set.(set)

let waiting_min en = if en.wh_len = 0 then nil_task else en.wh.(0)

let live_rule_count en = en.live_n

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

(* --- invariants --- *)

let checked en = en.checked

let check_budget = 64

let status_name s =
  if s = s_pending then "pending"
  else if s = s_running then "running"
  else if s = s_waiting then "parked"
  else if s = s_committed then "committed"
  else "squashed"

let check_step (tk : task) =
  if tk.status <> s_running then
    failwith
      (Printf.sprintf "Engine.check_invariants: stepping task %d, which is %s, not running" tk.tid
         (status_name tk.status))

let check_invariants en =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Engine.check_invariants: " ^ m)) fmt in
  (* the waiting heap *)
  let per_set = Array.make (Array.length en.w_per_set) 0 in
  for i = 0 to en.wh_len - 1 do
    let w = en.wh.(i) in
    if w.wpos <> i then fail "heap slot %d holds task %d whose wpos is %d" i w.tid w.wpos;
    if w.status <> s_waiting then fail "heap slot %d holds task %d that is not parked" i w.tid;
    if w.await_inst == nil_inst then fail "parked task %d awaits no instance" w.tid;
    if i > 0 && idx_cmp en.wh.((i - 1) / 2).idx w.idx > 0 then
      fail "heap order broken at slot %d (task %d)" i w.tid;
    per_set.(w.set) <- per_set.(w.set) + 1
  done;
  for i = en.wh_len to Array.length en.wh - 1 do
    if en.wh.(i) != nil_task then fail "heap slot %d past the end is not cleared" i
  done;
  Array.iteri
    (fun s n ->
      if en.w_per_set.(s) <> n then fail "set %d counts %d parked tasks, the heap holds %d" s
          en.w_per_set.(s) n)
    per_set;
  (* the wake list: exactly the parked tasks whose instance resolved *)
  let on_list = Hashtbl.create 16 in
  Vec.iter
    (fun (w : task) ->
      if Hashtbl.mem on_list w.tid then fail "task %d is on the wake list twice" w.tid;
      Hashtbl.add on_list w.tid ();
      if w.wpos < 0 || w.status <> s_waiting then fail "woken task %d is not parked" w.tid;
      if w.await_inst.ri_resolved = 0 then fail "woken task %d awaits an unresolved instance" w.tid)
    en.wake;
  for i = 0 to en.wh_len - 1 do
    let w = en.wh.(i) in
    if w.await_inst.ri_resolved <> 0 && not (Hashtbl.mem on_list w.tid) then
      fail "parked task %d awaits a resolved instance but is not on the wake list" w.tid
  done;
  (* the live chains *)
  let total = ref 0 in
  let walk r chain head =
    let rule = en.prog.Opcode.rules.(r) in
    let rec go prev inst =
      if inst != nil_inst then begin
        incr total;
        if inst.ri_prev != prev then fail "rule %s: broken back link" rule.Opcode.r_name;
        if inst.ri_rule <> r then fail "rule %s chains an instance of rule %d" rule.Opcode.r_name
            inst.ri_rule;
        if inst.ri_chain <> chain then
          fail "rule %s: instance on chain %d records chain %d" rule.Opcode.r_name chain
            inst.ri_chain;
        if inst.ri_resolved <> 0 then fail "rule %s chains a resolved instance" rule.Opcode.r_name;
        let p = inst.ri_parent in
        if p == nil_task || not (p.status = s_pending || p.status = s_running || p.status = s_waiting)
        then fail "rule %s chains an instance of a finished task" rule.Opcode.r_name;
        if chain >= 0 then begin
          if not (inst_keyed rule inst) then
            fail "rule %s hashes an instance it cannot key" rule.Opcode.r_name;
          let b = key_bucket inst.ri_pi.(rule.Opcode.r_key_param) (Array.length en.kb.(r) - 1) in
          if b <> chain then
            fail "rule %s: instance keyed to bucket %d sits in bucket %d" rule.Opcode.r_name b chain
        end
        else if inst_keyed rule inst then
          fail "rule %s leaves a keyable instance unhashed" rule.Opcode.r_name;
        go inst inst.ri_next
      end
    in
    go nil_inst head
  in
  Array.iteri
    (fun r head ->
      walk r (-1) head;
      let before = !total in
      Array.iteri (fun b h -> walk r b h) en.kb.(r);
      if !total - before <> en.kcount.(r) then
        fail "rule %s counts %d keyed instances, its buckets hold %d"
          en.prog.Opcode.rules.(r).Opcode.r_name en.kcount.(r) (!total - before))
    en.ch_head;
  if !total <> en.live_n then fail "live count %d, chains hold %d" en.live_n !total;
  (* The uncommitted-order checks cost O(runs + heap + pool), a pass
     over the pending tasks, where the checks above cost O(parked +
     live).  So that a long queue does not make checking quadratic, they
     run on every [stride]-th call, the stride growing with the entries
     and the pool so that they visit about [check_budget] entries per
     call on average; every call while both hold fewer. *)
  en.check_calls <- en.check_calls + 1;
  let in_runs = Array.fold_left (fun n r -> n + r.ul) 0 en.runs in
  let stride = 1 + ((in_runs + en.h_len + en.pool_n) / check_budget) in
  if en.check_calls mod stride = 0 then begin
    (* every entry names a pooled record, and a live one carries its
       task's index (and, on a run, its set); runs ascend and the heap
       is ordered in (row, tid).  [min_uncommitted] drops dead heads
       until live ones surface, so it returns the least live entry;
       found here without dropping, so the check leaves the structures
       as they were. *)
    let w = en.width and hs = en.hs in
    let name s k =
      if s < 0 then Printf.sprintf "uncommitted-order heap slot %d" k
      else Printf.sprintf "set %d's run entry %d" s k
    in
    let least_a = ref en.h and least_o = ref (-1) and live = ref 0 in
    let entry s k (a : int array) o =
      let pid = a.(o + w) in
      if pid < 0 || pid >= en.pool_n || en.pool.(pid).pid <> pid then
        fail "%s names no pooled task (pool id %d)" (name s k) pid;
      if entry_live en a o then begin
        let tk = en.pool.(pid) in
        incr live;
        if cmp_rows a o tk.idx 0 w 0 <> 0 then
          fail "%s holds a row that is not task %d's index" (name s k) tk.tid;
        if s >= 0 && tk.set <> s then fail "%s holds task %d of set %d" (name s k) tk.tid tk.set;
        if !least_o < 0 || entry_lt a o !least_a !least_o w then begin
          least_a := a;
          least_o := o
        end
      end
    in
    Array.iteri
      (fun s r ->
        for k = 0 to r.ul - 1 do
          let o = run_off en r k in
          entry s k r.ub o;
          if k > 0 && not (entry_lt r.ub (run_off en r (k - 1)) r.ub o w) then
            fail "%s is out of (index, tid) order" (name s k)
        done)
      en.runs;
    for i = 0 to en.h_len - 1 do
      entry (-1) i en.h (i * hs);
      if i > 0 && entry_lt en.h (i * hs) en.h ((i - 1) / 2 * hs) w then
        fail "%s is out of (index, tid) heap order" (name (-1) i)
    done;
    (* the least entry must be the (index, tid) minimum over every pooled
       record that is uncommitted and has not broadcast, and each such
       record has exactly one live entry *)
    let brute = ref nil_task and uncommitted = ref 0 in
    for p = 0 to en.pool_n - 1 do
      let tk = en.pool.(p) in
      if holds_live tk tk.tid then begin
        incr uncommitted;
        if
          !brute == nil_task
          ||
          let c = idx_cmp tk.idx !brute.idx in
          c < 0 || (c = 0 && tk.tid < !brute.tid)
        then brute := tk
      end
    done;
    if !live <> !uncommitted then
      fail "%d live uncommitted-order entries for %d uncommitted tasks" !live !uncommitted;
    let got = if !least_o < 0 then -1 else !least_a.(!least_o + w + 1) in
    let want = if !brute == nil_task then -1 else !brute.tid in
    let tid t = if t < 0 then "none" else "tid " ^ string_of_int t in
    if got <> want then
      fail "the least live entry is %s, the minimum uncommitted task is %s" (tid got) (tid want);
    let kept = if en.mu != nil_task && holds_live en.mu en.mu_tid then en.mu_tid else got in
    if kept <> want then
      fail "min_uncommitted would give %s, the minimum uncommitted task is %s" (tid kept)
        (tid want);
    (* the queues and the free list: a queued task is pending, not
       parked and queued once; a free record holds a committed or
       squashed task and sits in no queue, on no wake list and in no
       waiting heap *)
    let queued = Array.make en.pool_n false and woken = Array.make en.pool_n false in
    Array.iteri
      (fun s r ->
        for k = 0 to r.rl - 1 do
          let tk = r.rd.((r.rh + k) mod Array.length r.rd) in
          if tk.status <> s_pending then
            fail "set %d queues task %d, which is %s" s tk.tid (status_name tk.status);
          if tk.wpos >= 0 then fail "task %d is both queued and parked" tk.tid;
          if queued.(tk.pid) then fail "task %d is queued twice" tk.tid;
          queued.(tk.pid) <- true
        done)
      en.rings;
    Vec.iter (fun (w : task) -> woken.(w.pid) <- true) en.wake;
    Vec.iter
      (fun (tk : task) ->
        if not (tk.status = s_committed || tk.status = s_squashed) then
          fail "free record %d holds task %d, which is %s" tk.pid tk.tid (status_name tk.status);
        if queued.(tk.pid) then fail "free record %d (task %d) is queued" tk.pid tk.tid;
        if woken.(tk.pid) then fail "free record %d (task %d) is on the wake list" tk.pid tk.tid;
        if tk.wpos >= 0 then fail "free record %d (task %d) is parked" tk.pid tk.tid)
      en.free_tasks
  end;
  (* the pending counter, and every activation accounted for *)
  let queued = Array.fold_left (fun n r -> n + r.rl) 0 en.rings in
  if queued <> en.pending then fail "pending counter %d, the queues hold %d" en.pending queued;
  let s = en.stats in
  if s.activated <> s.committed + s.aborted + s.retried + queued + en.running + en.wh_len then
    fail "activated %d <> committed %d + aborted %d + retried %d + pending %d + running %d + parked %d"
      s.activated s.committed s.aborted s.retried queued en.running en.wh_len
