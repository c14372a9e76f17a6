(* The ECA core: executes an {!Opcode.program} over flat int and float
   arrays.  Every interpretation of a specification runs on it — the
   {!Semantics} policies (sequential oracle, worker-pool runtime) and
   the cycle simulator's timing shell in [agp_hw].

   Task state comes in two parts, as in the paper's accelerator, where a
   queued task is its index and arguments in a queue bank and pipeline
   state exists only for the tasks in flight:
   - an activation row for every task, pending ones included: tid, set,
     status, broadcast flag, frame, payload length and the index row, at
     a fixed stride in one int array ([tr]), and the payload in three
     parallel arrays (ints, floats, tags) at another.  A {!task} is its
     row id;
   - a frame for every running or parked task: pc, await fields,
     waiting-heap slot and park sequence, the head of the task's
     rule-instance chain and its handles in one int array ([fr]), and
     its registers in three parallel arrays.  A task takes a frame when
     it is popped, keeps it while parked, and gives it back when it
     finishes, so frames number the tasks in flight, not the queued
     ones.
   Rule instances are int rows too: rule, parent row, counter, verdict,
   live-chain links and the next instance of the same task, with their
   params in three parallel arrays.  Rows, frames and instances are
   recycled through int free stacks, every structure that names a task
   or an instance (queues, heaps, wake list, chains) holds ints, and an
   event copies its fields into one fixed vector, so nothing on the
   activate -> step -> finish path stores a pointer or runs the write
   barrier, outside a prim call and a counted rule's event log.  What
   the loop still allocates: the doubling growth of these arrays, and
   the boxed values of a prim call, a counted rule's event log and a
   host activation.

   What makes it fast:
   - [create] compiles each pc of the flat op array into a closure, so a
     step is one indirect call, with the op's operands, state array and
     continuation resolved once per engine, and one closure per operand
     shape, so an op of a shape the apps compile to reads its operands
     inline (see "stepping" below);
   - an int operand of any other shape (an address, a [Push_iter]
     bound) compiles into a closure with a fast path for a single leaf
     or two leaves joined by an int-int [+ - *]; any other operand, shape
     or tag, and every rule condition, runs the postfix bytecode over
     preallocated scratch stacks (ints + floats + tags, no [Value.t]
     boxing on the hot path);
   - the per-op helpers ([new_task], [enqueue], [alloc_rule], [finish],
     [push_child] and the small ones they reach) are [@inline]: under
     dune's dev profile ([-opaque]) only calls within a module inline;
   - the uncommitted order holds (index row, row id, tid) int entries.
     Activations arrive almost always in index order within their set,
     so each set keeps a FIFO run sorted in (index, tid) and only
     out-of-order activations (retries, children of a parent that ran
     ahead) enter a fallback heap: the minimum uncommitted task costs
     O(1) amortized per activation, and is the oldest of the minimum
     index.  The last answer is kept until its task dies or a smaller
     one arrives, so asking again with nothing changed is one liveness
     test;
   - payload, index and register copies are typed loops, not
     [Array.blit]/[Array.fill] (C calls that, on major-heap arrays, run
     the write barrier per element);
   - an event reaches only the rules that listen to it (the {!Opcode}
     listener table), and a keyed rule's instances hash by key, so an
     event visits only the instances its key field can match.  An
     activation or a minimum change builds its event (payload copy,
     delivery) only when a listener has a live instance or, for an
     activation, the program has counted rules; it is counted either
     way;
   - the counters the shells poll live in one [view] record, exported
     [private], so a shell reads a field where it would call an
     accessor (under dune's dev profile, [-opaque], no call across
     modules inlines);
   - parked tasks sit in an indexed min-heap on their well-order index
     and a resolution queues its waiter on a wake list, so the
     minimum-task broadcast and the wake-up cost what changed, not
     what is parked.

   The core knows nothing about time.  [step] reports the latency class
   of the operation it executed and leaves the touched array and index
   in the view's [touched_arr]/[touched_idx]; a timing shell turns that
   into cycles. *)

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

(* a task is its activation row, a rule instance its instance row *)
type task = int

let nil_task = -1

let is_nil tk = tk < 0

(* activation row columns: [tr.((tk * ts) + o_...)] *)
let o_tid = 0

let o_set = 1

let o_status = 2

let o_bcast = 3 (* 1 = fired its commit broadcast (first Emit) *)

let o_frame = 4 (* the frame it holds, -1 = none *)

let o_npay = 5

let o_idx = 6 (* the well-order index, [width] columns *)

(* frame columns: [fr.((fm * fs) + f_...)] *)
let f_pc = 0

let f_row = 1 (* the task holding it, -1 = free *)

let f_await_dst = 2

let f_await = 3 (* the awaited instance, -1 = not awaiting *)

let f_wpos = 4 (* slot in the waiting heap, -1 = not parked *)

let f_wseq = 5 (* park sequence number: larger = parked later *)

let f_insts = 6 (* the last instance this incarnation allocated, -1 = none *)

let f_h = 7 (* the handles, -1 = unallocated *)

(* instance row columns: [ir.((inst * i_stride) + i_...)] *)
let i_rule = 0

let i_parent = 1 (* the allocating task, -1 = free *)

let i_np = 2

let i_counter = 3

let i_resolved = 4 (* 0 = unresolved, 1 = false, 2 = true *)

(* intrusive live chain: -2 = not live, -1 = its rule's unkeyed chain,
   b >= 0 = bucket b of its rule's key table *)
let i_chain = 5

let i_next = 6

let i_prev = 7

let i_link = 8 (* the parent's previous instance, -1 = none *)

let i_stride = 9

(* --- typed copies and growth ---

   [Array.blit]/[Array.fill] are C calls that, on a major-heap array,
   cannot know the elements are immediates and run the write barrier per
   element; these loops store ints and unboxed floats directly. *)
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

(* [a] grown to at least [need] elements and at least doubled *)
let grow_ints (a : int array) need x =
  let b = Array.make (max need (2 * Array.length a)) x in
  blit_ints a 0 b 0 (Array.length a);
  b

let grow_floats (a : float array) need =
  let b = Array.make (max need (2 * Array.length a)) 0.0 in
  blit_floats a 0 b 0 (Array.length a);
  b

(* a growable stack of ints: the free lists, the wake list, the woken
   tasks *)
type istack = {
  mutable sa : int array;
  mutable sn : int;
}

let istack () = { sa = Array.make 16 0; sn = 0 }

let ipush s x =
  if s.sn = Array.length s.sa then s.sa <- grow_ints s.sa (s.sn + 1) 0;
  s.sa.(s.sn) <- x;
  s.sn <- s.sn + 1

let ipop s =
  s.sn <- s.sn - 1;
  s.sa.(s.sn)

(* per-set pending queue: a FIFO ring of tasks, with push_front for
   TLS-style retry re-activation.  Its capacity is a power of two; its
   length is the set's [pending_in] count in the view, the only store
   of it. *)
type ring = {
  mutable rd : int array;
  mutable rh : int;
}

let ring_create () = { rd = Array.make 8 nil_task; rh = 0 }

let ring_grow r n =
  let cap = Array.length r.rd in
  let nd = Array.make (cap * 2) nil_task in
  for i = 0 to n - 1 do
    nd.(i) <- r.rd.((r.rh + i) land (cap - 1))
  done;
  r.rd <- nd;
  r.rh <- 0

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

(* What the shells poll, as plain fields, so a shell's read compiles to
   a load even where cross-module calls do not inline (dune's dev
   profile passes [-opaque]).  Each field is the only store of its
   counter: the engine writes it where the counter moves, and the
   interface exports the record [private]. *)
type view = {
  mutable pending : int; (* tasks in the rings *)
  mutable running : int;
  mutable parked : int; (* tasks in the waiting heap: its length *)
  mutable resumed : int; (* tasks the last [resume_ready] woke *)
  mutable live : int; (* unresolved rule instances *)
  mutable touched_arr : int; (* what the last [step] touched *)
  mutable touched_idx : int;
  pending_in : int array; (* per set: its ring's length *)
  parked_in : int array; (* per set: its tasks in the waiting heap *)
}

type t = {
  prog : Opcode.program;
  st : State.t;
  stats : stats;
  v : view;
  width : int;
  counters : int array; (* For_each stamps *)
  rings : ring array;
  mutable rr : int; (* round-robin pointer for pop_any *)
  mutable next_tid : int;
  (* activation rows: [ts] ints each in [tr], [pay] payload slots each
     in [tp_i]/[tp_f]/[tp_tg] *)
  ts : int;
  mutable tr : int array;
  pay : int;
  mutable tp_i : int array;
  mutable tp_f : float array;
  mutable tp_tg : int array;
  mutable rows_n : int; (* rows made *)
  free_rows : istack;
  (* frames: [fs] ints each in [fr], [nr] registers each in
     [fr_i]/[fr_f]/[fr_tg] *)
  fs : int;
  mutable fr : int array;
  nr : int;
  mutable fr_i : int array;
  mutable fr_f : float array;
  mutable fr_tg : int array; (* tg_unbound until written *)
  mutable frames_n : int; (* frames made *)
  free_frames : istack;
  (* rule instances: [i_stride] ints each in [ir], [mp] params each in
     [ip_i]/[ip_f]/[ip_tg] *)
  mutable ir : int array;
  mp : int;
  mutable ip_i : int array;
  mutable ip_f : float array;
  mutable ip_tg : int array;
  mutable insts_n : int; (* instances made *)
  free_insts : istack;
  (* parked tasks: binary min-heap on the index row, [v.parked] long;
     each frame's [f_wpos] is its task's slot *)
  mutable wh : int array;
  mutable wseq_next : int;
  wake : istack; (* the wake list: parked tasks whose instance resolved *)
  (* the uncommitted order, entries of (index row, row id, tid) ints
     ordered by (row, tid): a run per set, and a binary min-heap for
     out-of-order activations.  Entry [k] of the heap is
     [h.(k * hs ..)]: the row's [width] columns, then the row id, then
     the tid. *)
  runs : run array;
  mutable h : int array;
  hs : int; (* entry stride, width + 2 *)
  mutable h_len : int;
  (* the last minimum found, [nil_task] = unknown, and its tid *)
  mutable mu : task;
  mutable mu_tid : int;
  (* live (unresolved) rule instances, chained per rule: keyed rules
     hash by key into [kb], the rest sit on [ch_head] *)
  ch_head : int array;
  kb : int array array; (* per rule; [||] for an unkeyed rule *)
  kcount : int array; (* per rule: instances in [kb] *)
  mutable last_min_broadcast : int;
  (* the rules listening to each event: activated(set), reached(set,
     label), min_changed; from the {!Opcode} listener table *)
  act_rules : int array array;
  reach_rules : int array array array;
  min_rules : int array;
  log : lev Vec.t;
  prim_impls : Spec.prim_impl option array;
  prim_count : int array;
  expected_fns : (Value.t list -> int) option array; (* per rule *)
  (* pc -> the closure that executes the op there, built by [create];
     it takes the task and its frame *)
  mutable exec : (task -> int -> int) array;
  (* eval scratch *)
  st_i : int array;
  st_f : float array;
  st_tg : int array;
  (* the current event's field vector, which rule conditions read as
     CField: [ev_n] fields.  An event copies its fields in (an emit
     writes its arguments here), so no event stores a pointer. *)
  ev_i : int array;
  ev_f : float array;
  ev_tg : int array;
  mutable ev_n : int;
  mutable cx_earlier : bool;
  mutable cx_later : bool;
  (* the tasks the last [resume_ready] woke, [v.resumed] of them *)
  mutable resumed_a : int array;
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

(* where task [tk]'s index row starts in [tr] *)
let[@inline] idx_off en tk = (tk * en.ts) + o_idx

(* well-order comparison of two tasks' indices *)
let row_cmp en a b = cmp_rows en.tr (idx_off en a) en.tr (idx_off en b) en.width 0

let[@inline] frame_of en tk = en.tr.((tk * en.ts) + o_frame)

let[@inline] status_of en tk = en.tr.((tk * en.ts) + o_status)

let[@inline] set_pc en fm pc = en.fr.((fm * en.fs) + f_pc) <- pc

(* --- value helpers ---

   The binop table and the cold raisers live in {!Binop}, shared with
   the reference evaluator ([test/interp.ml]); the local tag constants above are
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
let rec overlap_row en inst p f =
  if f >= en.ev_n then false
  else begin
    let q = (inst * en.mp) + p in
    if
      cam_valid en.ev_tg.(f) en.ev_i.(f)
      (* Value.equal semantics, inline: same constructor, same value
         (float NaN compares unequal) *)
      && en.ip_tg.(q) = en.ev_tg.(f)
      && (if en.ip_tg.(q) = tg_float then en.ip_f.(q) = en.ev_f.(f) else en.ip_i.(q) = en.ev_i.(f))
    then true
    else overlap_row en inst p (f + 1)
  end

let rec overlap_scan en inst p f =
  if inst < 0 || p >= en.ir.((inst * i_stride) + i_np) then false
  else begin
    let q = (inst * en.mp) + p in
    if cam_valid en.ip_tg.(q) en.ip_i.(q) && overlap_row en inst p f then true
    else overlap_scan en inst (p + 1) f
  end

(* evaluate postfix bytecode; the result lands in stack slot 0.  Task
   [tk] and its frame [fm] supply Param/Var values; [inst] supplies rule
   params for condition code (pass [nil_task] and -1 for a rule
   condition, -1 as [inst] for a task-body expression).  The stack
   pointer is threaded as an argument (a [ref] here would allocate on
   every expression evaluation). *)
let rec eval_ops en (tk : task) fm inst (code : Opcode.eop array) n k sp =
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
          if i < 0 || tk < 0 || i >= en.tr.((tk * en.ts) + o_npay) then
            invalid_arg (Printf.sprintf "Interp: Param %d out of range" i);
          let q = (tk * en.pay) + i in
          en.st_i.(sp) <- en.tp_i.(q);
          en.st_f.(sp) <- en.tp_f.(q);
          en.st_tg.(sp) <- en.tp_tg.(q);
          sp + 1
      | Opcode.E_reg (r, name) ->
          let q = (fm * en.nr) + r in
          if fm < 0 || en.fr_tg.(q) = tg_unbound then
            invalid_arg ("Interp: unbound variable " ^ name);
          en.st_i.(sp) <- en.fr_i.(q);
          en.st_f.(sp) <- en.fr_f.(q);
          en.st_tg.(sp) <- en.fr_tg.(q);
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
          if inst < 0 || i < 0 || i >= en.ir.((inst * i_stride) + i_np) then raise Oor;
          let q = (inst * en.mp) + i in
          en.st_i.(sp) <- en.ip_i.(q);
          en.st_f.(sp) <- en.ip_f.(q);
          en.st_tg.(sp) <- en.ip_tg.(q);
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
    eval_ops en tk fm inst code n (k + 1) sp

let eval en (tk : task) fm inst (code : Opcode.eop array) =
  eval_ops en tk fm inst code (Array.length code) 0 0

(* --- rows, frames and instances ---

   Each kind is made on demand, at the end of its arrays, which double
   when full, and recycled through its free stack. *)

let[@inline] new_task en ~set ~n_pay =
  let tk =
    if en.free_rows.sn > 0 then ipop en.free_rows
    else begin
      let r = en.rows_n in
      if (r + 1) * en.ts > Array.length en.tr then begin
        en.tr <- grow_ints en.tr ((r + 1) * en.ts) 0;
        en.tp_i <- grow_ints en.tp_i ((r + 1) * en.pay) 0;
        en.tp_f <- grow_floats en.tp_f ((r + 1) * en.pay);
        en.tp_tg <- grow_ints en.tp_tg ((r + 1) * en.pay) tg_int
      end;
      en.rows_n <- r + 1;
      r
    end
  in
  let tr = en.tr and b = tk * en.ts in
  tr.(b + o_tid) <- en.next_tid;
  en.next_tid <- en.next_tid + 1;
  tr.(b + o_set) <- set;
  tr.(b + o_status) <- s_pending;
  tr.(b + o_bcast) <- 0;
  tr.(b + o_frame) <- -1;
  tr.(b + o_npay) <- n_pay;
  tk

(* bind a frame to task [tk], about to run from its set's entry *)
let bind_frame en tk =
  let fm =
    if en.free_frames.sn > 0 then ipop en.free_frames
    else begin
      let f = en.frames_n in
      if (f + 1) * en.fs > Array.length en.fr then begin
        en.fr <- grow_ints en.fr ((f + 1) * en.fs) 0;
        en.fr_i <- grow_ints en.fr_i ((f + 1) * en.nr) 0;
        en.fr_f <- grow_floats en.fr_f ((f + 1) * en.nr);
        en.fr_tg <- grow_ints en.fr_tg ((f + 1) * en.nr) tg_unbound
      end;
      en.frames_n <- f + 1;
      f
    end
  in
  let fr = en.fr and o = fm * en.fs in
  fr.(o + f_pc) <- en.prog.Opcode.entry.(en.tr.((tk * en.ts) + o_set));
  fr.(o + f_row) <- tk;
  fr.(o + f_await_dst) <- -1;
  fr.(o + f_await) <- -1;
  fr.(o + f_wpos) <- -1;
  fr.(o + f_wseq) <- 0;
  fr.(o + f_insts) <- -1;
  fill_ints fr (o + f_h) (en.fs - f_h) (-1);
  fill_ints en.fr_tg (fm * en.nr) en.nr tg_unbound;
  en.tr.((tk * en.ts) + o_frame) <- fm

let[@inline] unbind_frame en tk fm =
  en.fr.((fm * en.fs) + f_row) <- -1;
  en.tr.((tk * en.ts) + o_frame) <- -1;
  ipush en.free_frames fm

let[@inline] new_inst en =
  if en.free_insts.sn > 0 then ipop en.free_insts
  else begin
    let i = en.insts_n in
    if (i + 1) * i_stride > Array.length en.ir then begin
      en.ir <- grow_ints en.ir ((i + 1) * i_stride) 0;
      en.ip_i <- grow_ints en.ip_i ((i + 1) * en.mp) 0;
      en.ip_f <- grow_floats en.ip_f ((i + 1) * en.mp);
      en.ip_tg <- grow_ints en.ip_tg ((i + 1) * en.mp) tg_int
    end;
    let b = i * i_stride in
    en.ir.(b + i_parent) <- -1;
    en.ir.(b + i_chain) <- -2;
    en.ir.(b + i_next) <- -1;
    en.ir.(b + i_prev) <- -1;
    en.insts_n <- i + 1;
    i
  end

(* --- the uncommitted order ---

   Every activation leaves one entry, (index row, row id, tid), all
   ints.  Entries are totally ordered by (row, tid): of two tasks with
   equal indices the older comes first.  Activations almost always
   arrive in index order within their set, so each set keeps a FIFO run
   of entries, sorted because an entry joins it only when its row is not
   below the run's tail (and its tid is larger than any already there).
   The rest, retries and [For_all] children of a parent that ran ahead,
   go to a small fallback heap.  An entry dies when its task finishes or
   broadcasts, and is dropped when it reaches a run's head or the heap's
   top, so the minimum costs O(1) amortized per activation plus a look
   at each set's run head. *)

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

let[@inline] put_entry en (a : int array) o tk =
  blit_ints en.tr (idx_off en tk) a o en.width;
  a.(o + en.width) <- tk;
  a.(o + en.width + 1) <- en.tr.((tk * en.ts) + o_tid)

(* row [tk] still holds task [tid], uncommitted and not broadcast *)
let holds_live en tk tid =
  let b = tk * en.ts in
  en.tr.(b + o_tid) = tid
  && (let s = en.tr.(b + o_status) in
      s = s_pending || s = s_running || s = s_waiting)
  && en.tr.(b + o_bcast) = 0

(* the entry at [o] of [a] names a live task *)
let entry_live en (a : int array) o = holds_live en a.(o + en.width) a.(o + en.width + 1)

(* offset of a run's [k]-th entry from its head *)
let run_off en r k = ((r.uh + k) land r.umask) * en.hs

let[@inline] run_push en r tk =
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
  if en.h_len + 2 > cap then en.h <- grow_ints en.h (2 * cap * en.hs) 0

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

let heap_push en tk =
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
   one is forgotten, as its row may already hold another task. *)
let[@inline] order_push en tk =
  let ti = idx_off en tk in
  if en.mu >= 0 then
    if not (holds_live en en.mu en.mu_tid) then en.mu <- nil_task
    else if row_lt en.tr ti en.tr (idx_off en en.mu) en.width then begin
      en.mu <- tk;
      en.mu_tid <- en.tr.((tk * en.ts) + o_tid)
    end;
  let r = en.runs.(en.tr.((tk * en.ts) + o_set)) in
  if r.ul = 0 || not (row_lt en.tr ti r.ub (run_off en r (r.ul - 1)) en.width) then
    run_push en r tk
  else heap_push en tk

(* the least live run head of sets [s..] and the entry at [bo] of [ba]
   (none when [bo < 0]) *)
let rec min_heads en s (ba : int array) bo =
  if s = Array.length en.runs then if bo < 0 then nil_task else ba.(bo + en.width)
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
   while younger work proceeds.  A recycled row (tid mismatch) means
   the original task finished.  The answer is kept in [mu] until that
   task dies or a smaller one arrives ([order_push]); the timing shell
   asks for it once per stalled allocation, most often with nothing
   changed. *)
let min_uncommitted en =
  if en.mu >= 0 && holds_live en en.mu en.mu_tid then en.mu
  else begin
    heap_drop_dead en;
    let m = min_heads en 0 en.h (if en.h_len = 0 then -1 else 0) in
    en.mu <- m;
    en.mu_tid <- (if m < 0 then -1 else en.tr.((m * en.ts) + o_tid));
    m
  end

(* --- live rule instances: per-rule chains, keyed rules hashed --- *)

(* bucket of an int key in a table of [mask + 1] buckets *)
let key_bucket v mask =
  let h = v * 0x19E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* no index of [reads] names an in-range bool slot of the [n] tags from
   [o] on in [tg] *)
let rec no_bool_reads (reads : int array) (tg : int array) o n k =
  if k >= Array.length reads then true
  else begin
    let i = reads.(k) in
    (i < 0 || i >= n || tg.(o + i) <> tg_bool) && no_bool_reads reads tg o n (k + 1)
  end

(* an instance of a keyed rule goes in a key bucket when its key param
   is an int and no param the clauses read is a bool (Opcode's
   exactness rule); otherwise on the rule's unkeyed chain *)
let inst_keyed en (r : Opcode.crule) inst =
  let p = r.Opcode.r_key_param and np = en.ir.((inst * i_stride) + i_np) in
  r.Opcode.r_key_field >= 0
  && p < np
  && en.ip_tg.((inst * en.mp) + p) = tg_int
  && no_bool_reads r.Opcode.r_reads_p en.ip_tg (inst * en.mp) np 0

(* an instance's key: its key param *)
let inst_key en (r : Opcode.crule) inst = en.ip_i.((inst * en.mp) + r.Opcode.r_key_param)

let chain_push_head en inst chain =
  let ir = en.ir and b = inst * i_stride in
  let r = ir.(b + i_rule) in
  let head = if chain < 0 then en.ch_head.(r) else en.kb.(r).(chain) in
  ir.(b + i_next) <- head;
  ir.(b + i_prev) <- -1;
  if head >= 0 then ir.((head * i_stride) + i_prev) <- inst;
  if chain < 0 then en.ch_head.(r) <- inst else en.kb.(r).(chain) <- inst;
  ir.(b + i_chain) <- chain

let rec rehash en inst (rule : Opcode.crule) mask =
  if inst >= 0 then begin
    let next = en.ir.((inst * i_stride) + i_next) in
    chain_push_head en inst (key_bucket (inst_key en rule inst) mask);
    rehash en next rule mask
  end

(* double a rule's key table and rehash its instances *)
let grow_buckets en r =
  let old = en.kb.(r) in
  let mask = (2 * Array.length old) - 1 in
  en.kb.(r) <- Array.make (mask + 1) (-1);
  let rule = en.prog.Opcode.rules.(r) in
  Array.iter (fun head -> rehash en head rule mask) old

let link en inst =
  let r = en.ir.((inst * i_stride) + i_rule) in
  let rule = en.prog.Opcode.rules.(r) in
  if inst_keyed en rule inst then begin
    en.kcount.(r) <- en.kcount.(r) + 1;
    if en.kcount.(r) > Array.length en.kb.(r) then grow_buckets en r;
    chain_push_head en inst (key_bucket (inst_key en rule inst) (Array.length en.kb.(r) - 1))
  end
  else chain_push_head en inst (-1);
  en.v.live <- en.v.live + 1

let unlink en inst =
  let ir = en.ir and b = inst * i_stride in
  let chain = ir.(b + i_chain) in
  if chain <> -2 then begin
    let r = ir.(b + i_rule) in
    let next = ir.(b + i_next) and prev = ir.(b + i_prev) in
    if prev >= 0 then ir.((prev * i_stride) + i_next) <- next
    else if chain < 0 then en.ch_head.(r) <- next
    else en.kb.(r).(chain) <- next;
    if next >= 0 then ir.((next * i_stride) + i_prev) <- prev;
    if chain >= 0 then en.kcount.(r) <- en.kcount.(r) - 1;
    ir.(b + i_next) <- -1;
    ir.(b + i_prev) <- -1;
    ir.(b + i_chain) <- -2;
    en.v.live <- en.v.live - 1
  end

(* --- rule resolution --- *)

(* resolving the instance a parked task awaits puts the task on the
   wake list: the list holds exactly the parked tasks whose instance
   has resolved.  A live instance's parent is running or parked, so it
   holds a frame. *)
let resolve en inst b =
  let o = inst * i_stride in
  if en.ir.(o + i_resolved) = 0 then begin
    en.ir.(o + i_resolved) <- (if b then 2 else 1);
    unlink en inst;
    let w = en.ir.(o + i_parent) in
    let fo = frame_of en w * en.fs in
    if en.fr.(fo + f_await) = inst && en.fr.(fo + f_wpos) >= 0 then ipush en.wake w
  end

let clause_matches (c : Opcode.cclause) ~kind ~set ~label =
  match c.Opcode.c_kind with
  | 0 -> kind = 0 && c.Opcode.c_set = set
  | 1 -> kind = 1 && c.Opcode.c_set = set && c.Opcode.c_label = label
  | _ -> false

(* evaluate a clause condition against the current event context;
   out-of-range probes make the clause not match, any other evaluation
   error propagates (as [eval_cond_strict] in [test/interp.ml]) *)
let clause_holds en inst (c : Opcode.cclause) =
  match eval en nil_task (-1) inst c.Opcode.c_cond with
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
        let o = (inst * i_stride) + i_counter in
        en.ir.(o) <- en.ir.(o) - 1;
        if en.ir.(o) <= 0 then begin
          en.stats.clause_resolutions <- en.stats.clause_resolutions + 1;
          resolve en inst true
        end
  end

(* Deliver the current event, raised by task [src], to one chain:
   [kind] 0 = activated, 1 = reached, 2 = min_changed.  Resolution
   unlinks the instance being visited, so the walk reads [next] first.
   The source and every live instance's parent are live tasks, so equal
   rows mean the same task. *)
let rec deliver_chain en inst kind set label src =
  if inst >= 0 then begin
    let b = inst * i_stride in
    let next = en.ir.(b + i_next) and parent = en.ir.(b + i_parent) in
    if en.ir.(b + i_resolved) = 0 && parent <> src then begin
      let cmp = row_cmp en src parent in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      let cls = en.prog.Opcode.rules.(en.ir.(b + i_rule)).Opcode.r_clauses in
      for k = 0 to Array.length cls - 1 do
        if
          en.ir.(b + i_resolved) = 0
          && (if kind = 2 then cls.(k).Opcode.c_kind = 2 else clause_matches cls.(k) ~kind ~set ~label)
        then apply_clause en inst cls.(k)
      done
    end;
    deliver_chain en next kind set label src
  end

(* Deliver the current event to the instances of the listening
   [rules].  A keyed rule's bucketed instances are visited only in the
   event's key bucket when the event's key field is an int and no field
   the rule reads is a bool; any other event visits every bucket. *)
let deliver en (rules : int array) ~kind ~set ~label src =
  for j = 0 to Array.length rules - 1 do
    let r = rules.(j) in
    deliver_chain en en.ch_head.(r) kind set label src;
    let kb = en.kb.(r) in
    if en.kcount.(r) > 0 then begin
      let rule = en.prog.Opcode.rules.(r) in
      let f = rule.Opcode.r_key_field in
      if
        f < en.ev_n
        && en.ev_tg.(f) = tg_int
        && no_bool_reads rule.Opcode.r_reads_f en.ev_tg 0 en.ev_n 0
      then deliver_chain en kb.(key_bucket en.ev_i.(f) (Array.length kb - 1)) kind set label src
      else
        for b = 0 to Array.length kb - 1 do
          deliver_chain en kb.(b) kind set label src
        done
    end
  done

(* an event's fields: [n] slots of [ia]/[fa]/[ta] from [o], copied
   into the event vector *)
let set_event en (ia : int array) (fa : float array) (ta : int array) o n =
  blit_ints ia o en.ev_i 0 n;
  blit_floats fa o en.ev_f 0 n;
  blit_ints ta o en.ev_tg 0 n;
  en.ev_n <- n

(* the fields of an activation or minimum broadcast: the payload *)
let set_payload_event en tk =
  set_event en en.tp_i en.tp_f en.tp_tg (tk * en.pay) en.tr.((tk * en.ts) + o_npay)

(* Whether an event that [rules] listen to reads its fields: a counted
   rule logs every activated and reached event, and a listening rule
   with a live instance evaluates them.  Otherwise an activation or a
   minimum broadcast only counts (arXiv 2602.17119's data-driven rule:
   work happens only where an event has a consumer). *)
let[@inline] heard en (rules : int array) =
  en.prog.Opcode.has_counted || (Array.length rules > 0 && en.v.live > 0)

(* an activated (kind 0) or reached (kind 1) event of task [src], heard
   by [rules]; the event-field context must already be set *)
let fire_event en (rules : int array) ~kind ~set ~label src =
  en.stats.events_fired <- en.stats.events_fired + 1;
  if en.prog.Opcode.has_counted then begin
    let n = en.ev_n in
    Vec.push en.log
      {
        le_kind = kind;
        le_label = label;
        le_set = set;
        le_idx = Array.sub en.tr (idx_off en src) en.width;
        le_i = Array.sub en.ev_i 0 n;
        le_f = Array.sub en.ev_f 0 n;
        le_tg = Array.sub en.ev_tg 0 n;
      }
  end;
  if Array.length rules > 0 && en.v.live > 0 then deliver en rules ~kind ~set ~label src

(* --- counted-rule allocation: replay the event log --- *)

let count_past_matches en rule_id inst parent =
  let count = ref 0 in
  let cls = en.prog.Opcode.rules.(rule_id).Opcode.r_clauses in
  Vec.iter
    (fun ev ->
      let cmp = cmp_rows ev.le_idx 0 en.tr (idx_off en parent) en.width 0 in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      set_event en ev.le_i ev.le_f ev.le_tg 0 (Array.length ev.le_i);
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

(* a counted rule's starting counter: the matching events its params
   expect, less those already in the event log *)
let counted_start en rule_id inst tk nargs =
  let expected =
    match en.expected_fns.(rule_id) with
    | Some f -> f (List.init nargs (fun k -> box en.ip_i en.ip_f en.ip_tg ((inst * en.mp) + k)))
    | None ->
        invalid_arg
          ("Engine: counted rule " ^ en.prog.Opcode.rules.(rule_id).Opcode.r_name
         ^ " has no expected binding")
  in
  expected - count_past_matches en rule_id inst tk

(* [inst] comes from [new_inst] with its [nargs] params already
   written; it joins the instance chain of task [tk]'s frame [fm] *)
let[@inline] alloc_rule en tk fm inst ~rule_id ~nargs =
  let r = en.prog.Opcode.rules.(rule_id) in
  let b = inst * i_stride in
  en.ir.(b + i_rule) <- rule_id;
  en.ir.(b + i_parent) <- tk;
  en.ir.(b + i_np) <- nargs;
  en.ir.(b + i_resolved) <- 0;
  en.ir.(b + i_counter) <-
    (if r.Opcode.r_counted then counted_start en rule_id inst tk nargs else 0);
  en.stats.rule_allocs <- en.stats.rule_allocs + 1;
  if r.Opcode.r_counted && en.ir.(b + i_counter) <= 0 then en.ir.(b + i_resolved) <- 2
  else link en inst;
  let fo = (fm * en.fs) + f_insts in
  en.ir.(b + i_link) <- en.fr.(fo);
  en.fr.(fo) <- inst

(* --- activation --- *)

(* queue task [tk] in its set's ring, at the back or (a retry) the
   front *)
let[@inline] ring_push en set tk ~front =
  let r = en.rings.(set) and n = en.v.pending_in.(set) in
  if n = Array.length r.rd then ring_grow r n;
  let mask = Array.length r.rd - 1 in
  if front then begin
    r.rh <- (r.rh + mask) land mask;
    r.rd.(r.rh) <- tk
  end
  else r.rd.((r.rh + n) land mask) <- tk;
  en.v.pending_in.(set) <- n + 1;
  en.v.pending <- en.v.pending + 1

let ring_pop en set =
  let r = en.rings.(set) in
  let tk = r.rd.(r.rh) in
  r.rh <- (r.rh + 1) land (Array.length r.rd - 1);
  en.v.pending_in.(set) <- en.v.pending_in.(set) - 1;
  en.v.pending <- en.v.pending - 1;
  tk

let ring_peek en set =
  if en.v.pending_in.(set) = 0 then nil_task
  else
    let r = en.rings.(set) in
    r.rd.(r.rh)

let[@inline] enqueue en tk ~front =
  let set = en.tr.((tk * en.ts) + o_set) in
  ring_push en set tk ~front;
  order_push en tk;
  en.stats.activated <- en.stats.activated + 1;
  (* the activated event, its fields the task payload *)
  let rules = en.act_rules.(set) in
  if heard en rules then begin
    set_payload_event en tk;
    fire_event en rules ~kind:0 ~set ~label:(-1) tk
  end
  else en.stats.events_fired <- en.stats.events_fired + 1

let[@inline] stamp en slot =
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
  if n > en.pay then
    invalid_arg
      (Printf.sprintf "Engine: %d payload values for task set %s, at most %d" n set_name en.pay);
  let tk = new_task en ~set ~n_pay:n in
  List.iteri (fun k v -> unbox en.tp_i en.tp_f en.tp_tg ((tk * en.pay) + k) v) payload;
  let ti = idx_off en tk in
  fill_ints en.tr ti en.width 0;
  en.tr.(ti + set) <- stamp en set;
  enqueue en tk ~front:false

(* --- queues --- *)

let take en tk =
  bind_frame en tk;
  en.tr.((tk * en.ts) + o_status) <- s_running;
  en.v.running <- en.v.running + 1;
  tk

let pop_task en set = if en.v.pending_in.(set) = 0 then nil_task else take en (ring_pop en set)

(* top-level recursion: a local closure would allocate on every pop *)
let rec pop_from en tries =
  let n = Array.length en.rings in
  if tries >= n then nil_task
  else begin
    let i = (en.rr + tries) mod n in
    if en.v.pending_in.(i) = 0 then pop_from en (tries + 1)
    else begin
      en.rr <- (i + 1) mod n;
      take en (ring_pop en i)
    end
  end

let pop_any en = pop_from en 0

(* The smallest of the per-set queue heads.  A head is not always its
   set's minimum pending task: a ring is FIFO, and a task's index is its
   pushing parent's prefix followed by its set's stamp (0 in a [For_all]
   set), so a parent that ran ahead of a smaller one queues a larger
   child first.  DESIGN.md records this deviation of priority
   admission. *)
let min_pending_set en =
  let best = ref (-1) in
  for i = 0 to Array.length en.rings - 1 do
    let h = ring_peek en i in
    if h >= 0 && (!best < 0 || row_cmp en h (ring_peek en !best) < 0) then best := i
  done;
  !best

let min_pending_head en =
  let s = min_pending_set en in
  if s < 0 then nil_task else ring_peek en s

let pop_min en =
  let s = min_pending_set en in
  if s < 0 then nil_task else pop_task en s

(* --- the waiting heap: parked tasks ordered by index --- *)

let wpos_of en tk = en.fr.((frame_of en tk * en.fs) + f_wpos)

let wh_put en i tk =
  en.wh.(i) <- tk;
  en.fr.((frame_of en tk * en.fs) + f_wpos) <- i

let rec wh_sift_up en i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let tk = en.wh.(i) in
    if row_cmp en tk en.wh.(parent) < 0 then begin
      wh_put en i en.wh.(parent);
      wh_put en parent tk;
      wh_sift_up en parent
    end
  end

let rec wh_sift_down en i =
  let n = en.v.parked in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < n && row_cmp en en.wh.(l) en.wh.(i) < 0 then l else i in
  let s = if r < n && row_cmp en en.wh.(r) en.wh.(s) < 0 then r else s in
  if s <> i then begin
    let tk = en.wh.(i) in
    wh_put en i en.wh.(s);
    wh_put en s tk;
    wh_sift_down en s
  end

let park en tk =
  if en.v.parked = Array.length en.wh then en.wh <- grow_ints en.wh (en.v.parked + 1) nil_task;
  let i = en.v.parked in
  en.v.parked <- i + 1;
  wh_put en i tk;
  en.fr.((frame_of en tk * en.fs) + f_wseq) <- en.wseq_next;
  en.wseq_next <- en.wseq_next + 1;
  let set = en.tr.((tk * en.ts) + o_set) in
  en.v.parked_in.(set) <- en.v.parked_in.(set) + 1;
  wh_sift_up en i

let unpark en tk =
  let i = wpos_of en tk and last = en.v.parked - 1 in
  en.v.parked <- last;
  if i < last then begin
    let moved = en.wh.(last) in
    wh_put en i moved;
    en.wh.(last) <- nil_task;
    wh_sift_down en i;
    wh_sift_up en (wpos_of en moved)
  end
  else en.wh.(last) <- nil_task;
  en.fr.((frame_of en tk * en.fs) + f_wpos) <- -1;
  let set = en.tr.((tk * en.ts) + o_set) in
  en.v.parked_in.(set) <- en.v.parked_in.(set) - 1

(* --- finishing --- *)

(* unlink and free every instance on a task's chain, from [inst] *)
let rec release_insts en inst =
  if inst >= 0 then begin
    let b = inst * i_stride in
    let next = en.ir.(b + i_link) in
    unlink en inst;
    en.ir.(b + i_parent) <- -1;
    ipush en.free_insts inst;
    release_insts en next
  end

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

let outcome_of_class rc : Agp_obs.Event.outcome =
  if rc = lc_committed then Commit else if rc = lc_aborted then Abort else Retry

(* A finished task gives back its instances and its frame, then its
   row.  The row keeps its tid, set and index until a later activation
   takes it, so a shell can still read them for the step's event. *)
let[@inline] finish en tk rc =
  let b = tk * en.ts in
  let fm = en.tr.(b + o_frame) in
  (* a parked task's pc is its Await until [resume_ready] moves it, so
     only a running task reaches a finishing op *)
  if en.tr.(b + o_status) = s_running then en.v.running <- en.v.running - 1;
  release_insts en en.fr.((fm * en.fs) + f_insts);
  unbind_frame en tk fm;
  if rc = lc_committed then begin
    en.tr.(b + o_status) <- s_committed;
    en.stats.committed <- en.stats.committed + 1
  end
  else if rc = lc_aborted then begin
    en.tr.(b + o_status) <- s_squashed;
    en.stats.aborted <- en.stats.aborted + 1
  end
  else begin
    en.tr.(b + o_status) <- s_squashed;
    en.stats.retried <- en.stats.retried + 1;
    (* TLS-style squash and re-execute in place: same index and payload,
       re-activated at the front of its queue, so the well-order minimum
       is always at a queue head *)
    let n = en.tr.(b + o_npay) in
    let again = new_task en ~set:en.tr.(b + o_set) ~n_pay:n in
    blit_ints en.tr (idx_off en tk) en.tr (idx_off en again) en.width;
    let src = tk * en.pay and dst = again * en.pay in
    blit_ints en.tp_i src en.tp_i dst n;
    blit_floats en.tp_f src en.tp_f dst n;
    blit_ints en.tp_tg src en.tp_tg dst n;
    enqueue en again ~front:true
  end;
  ipush en.free_rows tk;
  rc

(* --- stepping ---

   [create] compiles every pc into a closure that executes its op, so
   [step] is one indirect call: the op's kind, operands, state array and
   continuation are resolved once per engine, not on every step.  A
   closure takes the task and its frame.

   An op gets a closure per operand shape, for the shapes the apps
   compile to ([p] a [Param], [r] a [Var], [i] an int constant):
   a load from an int array at [p], [r], [p+i] or [r+i]; [let p+r]; an
   [if] on [r], or on [r] compared with [i], [r] or [p-i]; a store of
   [p] or [r] at [r] into an int array; and argument lists ([Push],
   [Push_iter], [Alloc], [Emit]) of [p], [r] and [p+i], copied in one
   loop from operand positions decoded at compile time.  Such a closure
   reads and tag-checks its operands inline and writes its result
   directly.  [shape_of] alone says which bytecode is such a leaf or
   leaf pair; [operand], [args_of] and the [Let] and [If] arms are
   built on it.

   An int operand of any other shape (an address, a [Push_iter] bound)
   compiles into an [int_expr] closure, with a fast path for one leaf
   or two leaves joined by an int-int [+ - *].  Any other operand of an
   op that is not specialized runs [eval] over its bytecode.  A
   specialized op falls back the same way: on a tag its inline read
   does not take (a float, a bool, an unbound register) or a [Param]
   out of range, it runs [eval] over the operand's bytecode, operand by
   operand in the op's order.  So the postfix evaluator and {!Binop}
   stay the one statement of promotion, evaluation order and error
   strings.  [/] and [%] always go to [eval], which owns their zero
   checks. *)

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
  | Bin of Spec.binop * leaf * leaf (* [+ - *] *)
  | Slow

let leaf_of (e : Opcode.eop) =
  match e with
  | Opcode.E_int n -> Some (L_int n)
  | Opcode.E_param i when i >= 0 -> Some (L_param i)
  | Opcode.E_reg (r, _) -> Some (L_reg r)
  | _ -> None

(* an operand's shape: one leaf, or two joined by an int-int [+ - *]
   ([/] and [%] stay in [eval], which owns their zero checks).  The one
   statement of which bytecode an op closure may read inline. *)
let shape_of (c : Opcode.eop array) =
  match c with
  | [| e |] -> ( match leaf_of e with Some l -> Leaf l | None -> Slow)
  | [| a; b; Opcode.E_binop ((Spec.Add | Spec.Sub | Spec.Mul) as op) |] -> (
      match (leaf_of a, leaf_of b) with
      | Some a, Some b -> Bin (op, a, b)
      | _ -> Slow)
  | _ -> Slow

let is_cmp (op : Spec.binop) =
  match op with
  | Spec.Eq | Spec.Ne | Spec.Lt | Spec.Le | Spec.Gt | Spec.Ge -> true
  | _ -> false

(* payload slot [i] of task [tk] is in range *)
let[@inline] param_in en tk i = i < en.tr.((tk * en.ts) + o_npay)

(* the leaf holds an int *)
let[@inline] leaf_is_int en tk fm l =
  match l with
  | L_int _ -> true
  | L_param i -> param_in en tk i && en.tp_tg.((tk * en.pay) + i) = tg_int
  | L_reg r -> en.fr_tg.((fm * en.nr) + r) = tg_int

let[@inline] leaf_int en tk fm l =
  match l with
  | L_int n -> n
  | L_param i -> en.tp_i.((tk * en.pay) + i)
  | L_reg r -> en.fr_i.((fm * en.nr) + r)

(* [x op y] for the op of a [Bin] *)
let[@inline] int_op (op : Spec.binop) (x : int) (y : int) =
  match op with
  | Spec.Add -> x + y
  | Spec.Sub -> x - y
  | _ -> x * y

(* [eval] over an expression of task [tk] (frame [fm]), its value taken
   from stack slot 0: as an int, as a truth value, or copied to slot [k]
   of three parallel arrays.  The slow half of [int_expr], the fallback
   of a specialized op, and the whole of an operand no op specializes. *)
let eval_int en c tk fm =
  eval en tk fm (-1) c;
  stack0_int en

let eval_truthy en c tk fm =
  eval en tk fm (-1) c;
  stack0_truthy en

let eval_slot en c tk fm (ia : int array) (fa : float array) (ta : int array) k =
  eval en tk fm (-1) c;
  ia.(k) <- en.st_i.(0);
  fa.(k) <- en.st_f.(0);
  ta.(k) <- en.st_tg.(0)

(* an expression whose value must be an int *)
let int_expr en (c : Opcode.eop array) : task -> int -> int =
  let slow tk fm = eval_int en c tk fm in
  match shape_of c with
  | Leaf (L_int n) -> fun _ _ -> n
  | Leaf (L_param i) ->
      fun tk fm ->
        let q = (tk * en.pay) + i in
        if param_in en tk i && en.tp_tg.(q) = tg_int then en.tp_i.(q) else slow tk fm
  | Leaf (L_reg r) ->
      fun tk fm ->
        let q = (fm * en.nr) + r in
        if en.fr_tg.(q) = tg_int then en.fr_i.(q) else slow tk fm
  | Bin (op, a, b) ->
      fun tk fm ->
        if leaf_is_int en tk fm a && leaf_is_int en tk fm b then
          int_op op (leaf_int en tk fm a) (leaf_int en tk fm b)
        else slow tk fm
  | Slow -> slow

(* --- operands read inline --- *)

(* an int operand a specialized op reads inline: a [Param] or a [Var]
   plus a constant ([p], [p+i], [p-i], [r], [r+i], [r-i]; [x - k] is
   [x + (-k)] in wrapping int arithmetic) *)
type operand =
  | O_param of int * int
  | O_reg of int * int
  | O_other

let operand (c : Opcode.eop array) =
  match shape_of c with
  | Leaf (L_param i) -> O_param (i, 0)
  | Leaf (L_reg r) -> O_reg (r, 0)
  | Bin (Spec.Add, L_param i, L_int k) -> O_param (i, k)
  | Bin (Spec.Sub, L_param i, L_int k) -> O_param (i, -k)
  | Bin (Spec.Add, L_reg r, L_int k) -> O_reg (r, k)
  | Bin (Spec.Sub, L_reg r, L_int k) -> O_reg (r, -k)
  | Leaf (L_int _) | Bin _ | Slow -> O_other

(* payload slot [i] of task [tk] plus [k] when it holds an int, else
   the operand [c] evaluated *)
let[@inline] param_plus en tk fm i k c =
  let q = (tk * en.pay) + i in
  if param_in en tk i && en.tp_tg.(q) = tg_int then en.tp_i.(q) + k else eval_int en c tk fm

(* register [r] of frame [fm] plus [k] when it holds an int, else the
   operand [c] evaluated *)
let[@inline] reg_plus en tk fm r k c =
  let q = (fm * en.nr) + r in
  if en.fr_tg.(q) = tg_int then en.fr_i.(q) + k else eval_int en c tk fm

(* a comparison as the orderings it accepts: bit [compare x y + 1] *)
let cmp_mask (op : Spec.binop) =
  match op with
  | Spec.Lt -> 0b001
  | Spec.Eq -> 0b010
  | Spec.Le -> 0b011
  | Spec.Gt -> 0b100
  | Spec.Ne -> 0b101
  | _ (* [Ge]: only comparisons get here *) -> 0b110

let[@inline] holds m (x : int) (y : int) = (m lsr (compare x y + 1)) land 1 = 1

(* [c] as register [r] compared by [op] with the operand after it:
   [Some (op, r, shape, operand)] of that operand *)
let reg_cmp (c : Opcode.eop array) =
  let n = Array.length c in
  if n < 3 then None
  else
    match (c.(0), c.(n - 1)) with
    | Opcode.E_reg (r, _), Opcode.E_binop op when is_cmp op ->
        let x = Array.sub c 1 (n - 2) in
        Some (op, r, shape_of x, operand x)
    | _ -> None

(* An argument list, decoded at compile time: per argument its kind,
   its operand (the payload slot or register), the constant a [p+i]
   adds and its bytecode, which a failed inline read, or an argument of
   any other shape, evaluates. *)
let ak_param = 0

let ak_reg = 1

let ak_param_plus = 2

let ak_other = 3

type args = {
  ak : int array;
  ax : int array;
  ad : int array;
  acode : Opcode.eop array array;
}

let args_of (args : Opcode.eop array array) =
  let n = Array.length args in
  let a = { ak = Array.make n ak_other; ax = Array.make n 0; ad = Array.make n 0; acode = args } in
  for j = 0 to n - 1 do
    match shape_of args.(j) with
    | Leaf (L_param i) ->
        a.ak.(j) <- ak_param;
        a.ax.(j) <- i
    | Leaf (L_reg r) ->
        a.ak.(j) <- ak_reg;
        a.ax.(j) <- r
    | Bin (Spec.Add, L_param i, L_int k) ->
        a.ak.(j) <- ak_param_plus;
        a.ax.(j) <- i;
        a.ad.(j) <- k
    | Leaf (L_int _) | Bin _ | Slow -> ()
  done;
  a

(* write the arguments of task [tk] (frame [fm]) to slots [o..] of
   three parallel arrays, in order *)
let[@inline] copy_args en (a : args) tk fm (ia : int array) (fa : float array) (ta : int array) o =
  for j = 0 to Array.length a.ak - 1 do
    let kind = a.ak.(j) and x = a.ax.(j) and d = o + j in
    if kind = ak_reg then begin
      let q = (fm * en.nr) + x in
      let tg = en.fr_tg.(q) in
      if tg <> tg_unbound then begin
        ia.(d) <- en.fr_i.(q);
        fa.(d) <- en.fr_f.(q);
        ta.(d) <- tg
      end
      else eval_slot en a.acode.(j) tk fm ia fa ta d
    end
    else if kind = ak_param && param_in en tk x then begin
      let q = (tk * en.pay) + x in
      ia.(d) <- en.tp_i.(q);
      fa.(d) <- en.tp_f.(q);
      ta.(d) <- en.tp_tg.(q)
    end
    else if
      kind = ak_param_plus && param_in en tk x && en.tp_tg.((tk * en.pay) + x) = tg_int
    then begin
      ia.(d) <- en.tp_i.((tk * en.pay) + x) + a.ad.(j);
      ta.(d) <- tg_int
    end
    else eval_slot en a.acode.(j) tk fm ia fa ta d
  done

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

(* the rest of a load of element [i] of int array [a] into register
   [dst] *)
let[@inline] load_int en (a : int array) arr dst next fm i =
  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
  let q = (fm * en.nr) + dst in
  en.fr_i.(q) <- a.(i);
  en.fr_tg.(q) <- tg_int;
  set_pc en fm next;
  en.v.touched_arr <- arr;
  en.v.touched_idx <- i;
  lc_load

(* the int a store writes into an int array from stack slot 0, where
   the value was evaluated and where the type error reads it *)
let stack0_stored en arr =
  let tg = en.st_tg.(0) in
  if tg <> tg_int then store_type_err en arr tg;
  en.st_i.(0)

(* the rest of a store of [x] to element [i] of int array [a] *)
let[@inline] store_int en (a : int array) arr next fm i x =
  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
  a.(i) <- x;
  set_pc en fm next;
  en.v.touched_arr <- arr;
  en.v.touched_idx <- i;
  lc_store

let[@inline] branch en fm b then_pc else_pc =
  set_pc en fm (if b then then_pc else else_pc);
  lc_unit

(* activate a child of [tk] (frame [fm]) in [set] whose payload [args]
   write in place: index = the parent's prefix up to the slot, then the
   stamp *)
let[@inline] push_child en tk fm set (args : args) =
  let child = new_task en ~set ~n_pay:(Array.length args.ak) in
  copy_args en args tk fm en.tp_i en.tp_f en.tp_tg (child * en.pay);
  let ci = idx_off en child in
  blit_ints en.tr (idx_off en tk) en.tr ci set;
  fill_ints en.tr (ci + set) (en.width - set) 0;
  en.tr.(ci + set) <- stamp en set;
  enqueue en child ~front:false

(* The closure that executes [op] and returns its latency class.  Loads
   and stores go straight to the state arrays and leave what they
   touched in the view. *)
let compile_op en (op : Opcode.inst) : task -> int -> int =
  let names = en.prog.Opcode.array_names in
  match op with
  | Opcode.I_commit -> fun tk _ -> finish en tk lc_committed
  | Opcode.I_let { dst; e; next } -> (
      match shape_of e with
      | Bin (Spec.Add, L_param i, L_reg r) ->
          fun tk fm ->
            count_op en;
            let pq = (tk * en.pay) + i and rq = (fm * en.nr) + r and q = (fm * en.nr) + dst in
            if param_in en tk i && en.tp_tg.(pq) = tg_int && en.fr_tg.(rq) = tg_int then begin
              en.fr_i.(q) <- en.tp_i.(pq) + en.fr_i.(rq);
              en.fr_tg.(q) <- tg_int
            end
            else eval_slot en e tk fm en.fr_i en.fr_f en.fr_tg q;
            set_pc en fm next;
            lc_unit
      | _ ->
          fun tk fm ->
            count_op en;
            eval_slot en e tk fm en.fr_i en.fr_f en.fr_tg ((fm * en.nr) + dst);
            set_pc en fm next;
            lc_unit)
  | Opcode.I_load { dst; arr; addr; next } -> (
      match (resolve_array en.st names.(arr), operand addr) with
      | A_int a, O_param (i, k) ->
          fun tk fm ->
            count_op en;
            load_int en a arr dst next fm (param_plus en tk fm i k addr)
      | A_int a, O_reg (r, k) ->
          fun tk fm ->
            count_op en;
            load_int en a arr dst next fm (reg_plus en tk fm r k addr)
      | A_int a, O_other ->
          let slow = int_expr en addr in
          fun tk fm ->
            count_op en;
            load_int en a arr dst next fm (slow tk fm)
      | data, _ ->
          let slow = int_expr en addr in
          fun tk fm ->
            count_op en;
            let i = slow tk fm in
            begin
              match data with
              | A_float a ->
                  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                  let q = (fm * en.nr) + dst in
                  en.fr_f.(q) <- a.(i);
                  en.fr_tg.(q) <- tg_float
              | A_int _ | A_missing -> array_missing en arr
            end;
            set_pc en fm next;
            en.v.touched_arr <- arr;
            en.v.touched_idx <- i;
            lc_load)
  | Opcode.I_store { arr; addr; v = vc; next } -> (
      match (resolve_array en.st names.(arr), operand addr, shape_of vc) with
      | A_int a, O_reg (r, k), Leaf (L_param i) ->
          fun tk fm ->
            count_op en;
            let ix = reg_plus en tk fm r k addr in
            let q = (tk * en.pay) + i in
            let x =
              if param_in en tk i && en.tp_tg.(q) = tg_int then en.tp_i.(q)
              else begin
                eval en tk fm (-1) vc;
                stack0_stored en arr
              end
            in
            store_int en a arr next fm ix x
      | A_int a, O_reg (r, k), Leaf (L_reg s) ->
          fun tk fm ->
            count_op en;
            let ix = reg_plus en tk fm r k addr in
            let q = (fm * en.nr) + s in
            let x =
              if en.fr_tg.(q) = tg_int then en.fr_i.(q)
              else begin
                eval en tk fm (-1) vc;
                stack0_stored en arr
              end
            in
            store_int en a arr next fm ix x
      | A_int a, _, _ ->
          let addr_slow = int_expr en addr in
          fun tk fm ->
            count_op en;
            let ix = addr_slow tk fm in
            eval en tk fm (-1) vc;
            store_int en a arr next fm ix (stack0_stored en arr)
      | data, _, _ ->
          let addr_slow = int_expr en addr in
          fun tk fm ->
            count_op en;
            let i = addr_slow tk fm in
            eval en tk fm (-1) vc;
            let tg = en.st_tg.(0) in
            begin
              match data with
              | A_float a ->
                  if tg = tg_bool then store_type_err en arr tg;
                  if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                  a.(i) <- (if tg = tg_int then float_of_int en.st_i.(0) else en.st_f.(0))
              | A_int _ | A_missing -> array_missing en arr
            end;
            set_pc en fm next;
            en.v.touched_arr <- arr;
            en.v.touched_idx <- i;
            lc_store)
  | Opcode.I_push { set; args; next } ->
      let args = args_of args in
      fun tk fm ->
        count_op en;
        push_child en tk fm set args;
        set_pc en fm next;
        lc_unit
  | Opcode.I_push_iter { set; lo; hi; ivar; args; next } ->
      let lo = int_expr en lo and hi = int_expr en hi and args = args_of args in
      fun tk fm ->
        count_op en;
        let lo_v = lo tk fm in
        let hi_v = hi tk fm in
        let q = (fm * en.nr) + ivar in
        for i = lo_v to hi_v - 1 do
          en.fr_i.(q) <- i;
          en.fr_tg.(q) <- tg_int;
          push_child en tk fm set args
        done;
        set_pc en fm next;
        en.v.touched_idx <- hi_v - lo_v;
        lc_push_iter
  | Opcode.I_alloc { handle; rule; args; next } ->
      let args = args_of args in
      let n = Array.length args.ak in
      fun tk fm ->
        count_op en;
        let inst = new_inst en in
        copy_args en args tk fm en.ip_i en.ip_f en.ip_tg (inst * en.mp);
        alloc_rule en tk fm inst ~rule_id:rule ~nargs:n;
        en.fr.((fm * en.fs) + f_h + handle) <- inst;
        set_pc en fm next;
        lc_unit
  | Opcode.I_await { dst; handle; handle_name; next } ->
      fun tk fm ->
        count_op en;
        let fo = fm * en.fs in
        let inst = en.fr.(fo + f_h + handle) in
        if inst < 0 then invalid_arg ("Engine: Await on unallocated handle " ^ handle_name);
        let verdict = en.ir.((inst * i_stride) + i_resolved) in
        if verdict <> 0 then begin
          let q = (fm * en.nr) + dst in
          en.fr_i.(q) <- (if verdict = 2 then 1 else 0);
          en.fr_tg.(q) <- tg_bool;
          set_pc en fm next;
          lc_unit
        end
        else begin
          en.tr.((tk * en.ts) + o_status) <- s_waiting;
          en.fr.(fo + f_await_dst) <- dst;
          en.fr.(fo + f_await) <- inst;
          en.v.running <- en.v.running - 1;
          park en tk;
          lc_blocked
        end
  | Opcode.I_emit { label; args; next } ->
      let args = args_of args in
      let n = Array.length args.ak in
      fun tk fm ->
        count_op en;
        copy_args en args tk fm en.ev_i en.ev_f en.ev_tg 0;
        en.ev_n <- n;
        let set = en.tr.((tk * en.ts) + o_set) in
        fire_event en en.reach_rules.(set).(label) ~kind:1 ~set ~label tk;
        en.tr.((tk * en.ts) + o_bcast) <- 1;
        set_pc en fm next;
        lc_unit
  | Opcode.I_if { c; then_pc; else_pc } -> (
      match (shape_of c, reg_cmp c) with
      | Leaf (L_reg r), _ ->
          fun tk fm ->
            count_op en;
            let q = (fm * en.nr) + r in
            let tg = en.fr_tg.(q) in
            let b =
              if tg = tg_int || tg = tg_bool then en.fr_i.(q) <> 0 else eval_truthy en c tk fm
            in
            branch en fm b then_pc else_pc
      | _, Some (op, r, Leaf (L_int n), _) ->
          let m = cmp_mask op in
          fun tk fm ->
            count_op en;
            let q = (fm * en.nr) + r in
            let b =
              if en.fr_tg.(q) = tg_int then holds m en.fr_i.(q) n else eval_truthy en c tk fm
            in
            branch en fm b then_pc else_pc
      | _, Some (op, r, Leaf (L_reg s), _) ->
          let m = cmp_mask op in
          fun tk fm ->
            count_op en;
            let q = (fm * en.nr) + r and qs = (fm * en.nr) + s in
            let b =
              if en.fr_tg.(q) = tg_int && en.fr_tg.(qs) = tg_int then
                holds m en.fr_i.(q) en.fr_i.(qs)
              else eval_truthy en c tk fm
            in
            branch en fm b then_pc else_pc
      | _, Some (op, r, _, O_param (i, k)) ->
          let m = cmp_mask op in
          fun tk fm ->
            count_op en;
            let q = (fm * en.nr) + r and pq = (tk * en.pay) + i in
            let b =
              if en.fr_tg.(q) = tg_int && param_in en tk i && en.tp_tg.(pq) = tg_int then
                holds m en.fr_i.(q) (en.tp_i.(pq) + k)
              else eval_truthy en c tk fm
            in
            branch en fm b then_pc else_pc
      | _ ->
          fun tk fm ->
            count_op en;
            branch en fm (eval_truthy en c tk fm) then_pc else_pc)
  | Opcode.I_abort ->
      fun tk _ ->
        count_op en;
        finish en tk lc_aborted
  | Opcode.I_retry ->
      fun tk _ ->
        count_op en;
        finish en tk lc_retried
  | Opcode.I_prim { dsts; prim; name; args; next } ->
      fun tk fm -> (
        count_op en;
        match en.prim_impls.(prim) with
        | None -> invalid_arg ("Engine: unbound prim " ^ name)
        | Some impl ->
            en.prim_count.(prim) <- en.prim_count.(prim) + 1;
            let args =
              Array.to_list
                (Array.map
                   (fun e ->
                     eval en tk fm (-1) e;
                     box en.st_i en.st_f en.st_tg 0)
                   args)
            in
            let results =
              impl
                {
                  Spec.state = en.st;
                  Spec.task_index = Index.of_array (Array.sub en.tr (idx_off en tk) en.width);
                }
                args
            in
            let nr = List.length results and nd = Array.length dsts in
            if nr <> nd then
              invalid_arg
                (Printf.sprintf "Engine: prim %s returned %d values, expected %d" name nr nd);
            List.iteri
              (fun i v -> unbox en.fr_i en.fr_f en.fr_tg ((fm * en.nr) + dsts.(i)) v)
              results;
            set_pc en fm next;
            en.v.touched_arr <- prim;
            lc_prim)

(* Execute one operation of a running task and return its latency
   class: the closure [create] compiled for its pc, given the task and
   its frame. *)
let step en tk =
  let fm = frame_of en tk in
  en.exec.(en.fr.((fm * en.fs) + f_pc)) tk fm

(* --- minimum resolution --- *)

(* fire the otherwise clause of a parked task's rule when the task is
   minimal in the rule's scope: [top] is the parked task of smallest
   index, [mu] the minimum uncommitted task *)
let otherwise_if_minimal en w top mu =
  let inst = en.fr.((frame_of en w * en.fs) + f_await) in
  let b = inst * i_stride in
  if en.ir.(b + i_resolved) = 0 then begin
    let rule = en.prog.Opcode.rules.(en.ir.(b + i_rule)) in
    let minimal =
      if rule.Opcode.r_min_waiting then row_cmp en w top = 0
      else mu < 0 || row_cmp en w mu = 0
    in
    if minimal then begin
      en.stats.otherwise_fired <- en.stats.otherwise_fired + 1;
      resolve en inst rule.Opcode.r_otherwise
    end
  end

(* visit the heap entries whose index is at most task [bound]'s: heap
   order prunes every subtree whose root is above it *)
let rec otherwise_below en i bound top mu =
  if i < en.v.parked then begin
    let w = en.wh.(i) in
    if row_cmp en w bound <= 0 then begin
      otherwise_if_minimal en w top mu;
      otherwise_below en ((2 * i) + 1) bound top mu;
      otherwise_below en ((2 * i) + 2) bound top mu
    end
  end

let resolve_pending en =
  (* 1. broadcast a change of the minimum uncommitted task.  The
     counted-rule log keeps no min_changed event, so its fields (the
     task's payload) are built only for a listener with a live
     instance. *)
  let mu0 = min_uncommitted en in
  if mu0 >= 0 && en.tr.((mu0 * en.ts) + o_tid) <> en.last_min_broadcast then begin
    en.last_min_broadcast <- en.tr.((mu0 * en.ts) + o_tid);
    en.stats.events_fired <- en.stats.events_fired + 1;
    if Array.length en.min_rules > 0 && en.v.live > 0 then begin
      set_payload_event en mu0;
      deliver en en.min_rules ~kind:2 ~set:(-1) ~label:(-1) mu0
    end
  end;
  (* 2. fire otherwise clauses for minimal parked tasks.  A minimal task
     has the smallest parked index or the minimum uncommitted one, so
     only entries up to the larger of the two can qualify — unless
     there is no minimum uncommitted task, when every Min_uncommitted
     waiter does.  Resolution only queues wake-ups; the heap stays put
     while it is walked. *)
  if en.v.parked > 0 then begin
    let mu = min_uncommitted en in
    let top = en.wh.(0) in
    if mu < 0 then
      for i = 0 to en.v.parked - 1 do
        otherwise_if_minimal en en.wh.(i) top mu
      done
    else otherwise_below en 0 (if row_cmp en mu top > 0 then mu else top) top mu
  end

(* wake order: ascending index, ties newest-parked first *)
let wakes_before en a b =
  let c = row_cmp en a b in
  c < 0
  || c = 0
     && en.fr.((frame_of en a * en.fs) + f_wseq) > en.fr.((frame_of en b * en.fs) + f_wseq)

(* wake every task on the wake list in wake order; the woken tasks are
   left in [resumed_a] ([v.resumed] of them), marked running, with their
   await verdict bound *)
let resume_ready en =
  let m = en.wake.sn in
  if Array.length en.resumed_a < m then en.resumed_a <- grow_ints en.resumed_a m nil_task;
  let rs = en.resumed_a in
  for i = 0 to m - 1 do
    let w = en.wake.sa.(i) in
    unpark en w;
    rs.(i) <- w
  done;
  en.wake.sn <- 0;
  en.v.resumed <- m;
  for i = 1 to m - 1 do
    let x = rs.(i) in
    let k = ref (i - 1) in
    while !k >= 0 && wakes_before en x rs.(!k) do
      rs.(!k + 1) <- rs.(!k);
      decr k
    done;
    rs.(!k + 1) <- x
  done;
  for i = 0 to m - 1 do
    let w = rs.(i) in
    let fm = frame_of en w in
    let fo = fm * en.fs in
    let q = (fm * en.nr) + en.fr.(fo + f_await_dst) in
    en.fr_i.(q) <- (if en.ir.((en.fr.(fo + f_await) * i_stride) + i_resolved) = 2 then 1 else 0);
    en.fr_tg.(q) <- tg_bool;
    begin
      match en.prog.Opcode.code.(en.fr.(fo + f_pc)) with
      | Opcode.I_await { next; _ } -> en.fr.(fo + f_pc) <- next
      | _ -> assert false
    end;
    en.fr.(fo + f_await) <- -1;
    en.fr.(fo + f_await_dst) <- -1;
    en.tr.((w * en.ts) + o_status) <- s_running;
    en.v.running <- en.v.running + 1
  done

let resumed_get en i =
  if i < 0 || i >= en.v.resumed then invalid_arg "Engine.resumed_get: index out of bounds";
  en.resumed_a.(i)

(* every parked task whose instance resolved is on the wake list, so
   after a last resolution pass an empty list means all are stuck *)
let deadlocked en =
  en.v.running = 0
  && en.v.pending = 0
  && en.v.parked > 0
  && begin
       resolve_pending en;
       en.wake.sn = 0
     end

(* --- construction --- *)

let check_by_default = ref (Sys.getenv_opt "AGP_CHECK" = Some "1")

let set_check_invariants b = check_by_default := b

(* initial capacities: rows, frames and instances double from here *)
let rows0 = 64

let frames0 = 16

let insts0 = 16

let create spec bindings st =
  begin
    match Spec.validate spec with
    | Ok () -> ()
    | Error es -> invalid_arg ("Engine.create: invalid spec: " ^ String.concat "; " es)
  end;
  let prog = Opcode.compile spec in
  let width = max prog.Opcode.n_sets 1 in
  let ts = o_idx + width in
  let pay = max 1 (max prog.Opcode.max_arity prog.Opcode.max_push_args) in
  let fs = f_h + prog.Opcode.max_handles in
  let nr = max 1 prog.Opcode.max_regs in
  let mp = max 1 prog.Opcode.max_rule_params in
  let n_ev = max pay prog.Opcode.max_event_fields in
  let heard_by kind set label = prog.Opcode.listeners.(Opcode.listener_slot prog ~kind ~set ~label) in
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
      v =
        {
          pending = 0;
          running = 0;
          parked = 0;
          resumed = 0;
          live = 0;
          touched_arr = 0;
          touched_idx = 0;
          pending_in = Array.make width 0;
          parked_in = Array.make width 0;
        };
      width;
      counters = Array.make width 0;
      rings = Array.init width (fun _ -> ring_create ());
      rr = 0;
      next_tid = 0;
      ts;
      tr = Array.make (rows0 * ts) 0;
      pay;
      tp_i = Array.make (rows0 * pay) 0;
      tp_f = Array.make (rows0 * pay) 0.0;
      tp_tg = Array.make (rows0 * pay) tg_int;
      rows_n = 0;
      free_rows = istack ();
      fs;
      fr = Array.make (frames0 * fs) 0;
      nr;
      fr_i = Array.make (frames0 * nr) 0;
      fr_f = Array.make (frames0 * nr) 0.0;
      fr_tg = Array.make (frames0 * nr) tg_unbound;
      frames_n = 0;
      free_frames = istack ();
      ir = Array.make (insts0 * i_stride) 0;
      mp;
      ip_i = Array.make (insts0 * mp) 0;
      ip_f = Array.make (insts0 * mp) 0.0;
      ip_tg = Array.make (insts0 * mp) tg_int;
      insts_n = 0;
      free_insts = istack ();
      wh = Array.make 8 nil_task;
      wseq_next = 0;
      wake = istack ();
      runs =
        Array.init width (fun _ ->
            { ub = Array.make (8 * (width + 2)) 0; uh = 0; ul = 0; umask = 7 });
      h = Array.make (8 * (width + 2)) 0;
      hs = width + 2;
      h_len = 0;
      mu = nil_task;
      mu_tid = -1;
      ch_head = Array.make (Array.length prog.Opcode.rules) (-1);
      kb =
        Array.map
          (fun (r : Opcode.crule) -> if r.Opcode.r_key_field >= 0 then Array.make 8 (-1) else [||])
          prog.Opcode.rules;
      kcount = Array.make (Array.length prog.Opcode.rules) 0;
      last_min_broadcast = -1;
      act_rules = Array.init prog.Opcode.n_sets (fun set -> heard_by 0 set (-1));
      reach_rules =
        Array.init prog.Opcode.n_sets (fun set ->
            Array.init (Array.length prog.Opcode.labels) (fun label -> heard_by 1 set label));
      min_rules = heard_by 2 0 0;
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
      ev_i = Array.make n_ev 0;
      ev_f = Array.make n_ev 0.0;
      ev_tg = Array.make n_ev tg_int;
      ev_n = 0;
      cx_earlier = false;
      cx_later = false;
      resumed_a = Array.make 16 nil_task;
      checked = !check_by_default;
      check_calls = 0;
    }
  in
  en.exec <- Array.map (compile_op en) prog.Opcode.code;
  en

(* --- views --- *)

let program en = en.prog

let stats en = en.stats

let view en = en.v

let array_bases en =
  Array.map
    (fun name -> if State.has_array en.st name then State.base en.st name else 0)
    en.prog.Opcode.array_names

let waiting_min en = if en.v.parked = 0 then nil_task else en.wh.(0)

let prim_counts en =
  let acc = ref [] in
  for i = Array.length en.prim_count - 1 downto 0 do
    if en.prim_count.(i) > 0 then acc := (en.prog.Opcode.prim_names.(i), en.prim_count.(i)) :: !acc
  done;
  !acc

let task_tid en tk = en.tr.((tk * en.ts) + o_tid)

let task_set en tk = en.tr.((tk * en.ts) + o_set)

let task_pc en tk =
  let fm = frame_of en tk in
  if fm < 0 then en.prog.Opcode.entry.(task_set en tk) else en.fr.((fm * en.fs) + f_pc)

let task_index en tk = Index.of_array (Array.sub en.tr (idx_off en tk) en.width)

let compare_index en a b = row_cmp en a b

let task_var en tk name =
  let fm = frame_of en tk in
  let names = en.prog.Opcode.set_regs.(task_set en tk) in
  let rec find r =
    if fm < 0 || r >= Array.length names then None
    else if names.(r) <> name then find (r + 1)
    else begin
      let q = (fm * en.nr) + r in
      if en.fr_tg.(q) = tg_unbound then None else Some (box en.fr_i en.fr_f en.fr_tg q)
    end
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

let check_step en tk =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Engine.check_invariants: " ^ m)) fmt in
  if tk < 0 || tk >= en.rows_n then fail "stepping row %d, which holds no task" tk;
  let s = status_of en tk and fm = frame_of en tk in
  if s <> s_running then
    fail "stepping task %d, which is %s, not running" (task_tid en tk) (status_name s);
  if fm < 0 || en.fr.((fm * en.fs) + f_row) <> tk then
    fail "stepping task %d, which holds no frame" (task_tid en tk)

let check_invariants en =
  let fail fmt = Printf.ksprintf (fun m -> failwith ("Engine.check_invariants: " ^ m)) fmt in
  let tid = task_tid en and set = task_set en and frame = frame_of en in
  let live s = s = s_pending || s = s_running || s = s_waiting in
  let fcol tk c = en.fr.((frame tk * en.fs) + c) in
  let icol inst c = en.ir.((inst * i_stride) + c) in
  (* the waiting heap; a parked task holds a frame that names it *)
  let per_set = Array.make (Array.length en.v.parked_in) 0 in
  for i = 0 to en.v.parked - 1 do
    let w = en.wh.(i) in
    if w < 0 || w >= en.rows_n then fail "heap slot %d names no row (%d)" i w;
    if status_of en w <> s_waiting then fail "heap slot %d holds task %d that is not parked" i (tid w);
    let fm = frame w in
    if fm < 0 || fm >= en.frames_n || en.fr.((fm * en.fs) + f_row) <> w then
      fail "parked task %d holds no frame of its own (frame %d)" (tid w) fm;
    if fcol w f_wpos <> i then fail "heap slot %d holds task %d whose wpos is %d" i (tid w) (fcol w f_wpos);
    let inst = fcol w f_await in
    if inst < 0 || inst >= en.insts_n then fail "parked task %d awaits no instance" (tid w);
    if i > 0 && row_cmp en en.wh.((i - 1) / 2) w > 0 then
      fail "heap order broken at slot %d (task %d)" i (tid w);
    per_set.(set w) <- per_set.(set w) + 1
  done;
  for i = en.v.parked to Array.length en.wh - 1 do
    if en.wh.(i) <> nil_task then fail "heap slot %d past the end is not cleared" i
  done;
  Array.iteri
    (fun s n ->
      if en.v.parked_in.(s) <> n then fail "set %d counts %d parked tasks, the heap holds %d" s
          en.v.parked_in.(s) n)
    per_set;
  (* the wake list: exactly the parked tasks whose instance resolved *)
  let on_list = Hashtbl.create 16 in
  for i = 0 to en.wake.sn - 1 do
    let w = en.wake.sa.(i) in
    if w < 0 || w >= en.rows_n then fail "the wake list names no row (%d)" w;
    if Hashtbl.mem on_list w then fail "task %d is on the wake list twice" (tid w);
    Hashtbl.add on_list w ();
    if status_of en w <> s_waiting || frame w < 0 || fcol w f_wpos < 0 then
      fail "woken task %d is not parked" (tid w);
    let inst = fcol w f_await in
    if inst < 0 || inst >= en.insts_n || icol inst i_resolved = 0 then
      fail "woken task %d awaits an unresolved instance" (tid w)
  done;
  for i = 0 to en.v.parked - 1 do
    let w = en.wh.(i) in
    if icol (fcol w f_await) i_resolved <> 0 && not (Hashtbl.mem on_list w) then
      fail "parked task %d awaits a resolved instance but is not on the wake list" (tid w)
  done;
  (* the live chains: every link names an instance row that is in use,
     whose parent is a live task holding a frame *)
  let total = ref 0 in
  let walk r chain head =
    let rule = en.prog.Opcode.rules.(r) in
    let rec go prev inst =
      if inst >= 0 then begin
        incr total;
        if inst >= en.insts_n then fail "rule %s: a chain link names no instance (%d)" rule.Opcode.r_name inst;
        if icol inst i_prev <> prev then fail "rule %s: broken back link" rule.Opcode.r_name;
        if icol inst i_rule <> r then
          fail "rule %s chains an instance of rule %d" rule.Opcode.r_name (icol inst i_rule);
        if icol inst i_chain <> chain then
          fail "rule %s: instance on chain %d records chain %d" rule.Opcode.r_name chain
            (icol inst i_chain);
        if icol inst i_resolved <> 0 then fail "rule %s chains a resolved instance" rule.Opcode.r_name;
        let p = icol inst i_parent in
        if p < 0 || p >= en.rows_n || not (live (status_of en p)) then
          fail "rule %s chains an instance of a finished task" rule.Opcode.r_name;
        if frame p < 0 then fail "rule %s chains an instance of task %d, which holds no frame"
            rule.Opcode.r_name (tid p);
        if chain >= 0 then begin
          if not (inst_keyed en rule inst) then
            fail "rule %s hashes an instance it cannot key" rule.Opcode.r_name;
          let b = key_bucket (inst_key en rule inst) (Array.length en.kb.(r) - 1) in
          if b <> chain then
            fail "rule %s: instance keyed to bucket %d sits in bucket %d" rule.Opcode.r_name b chain
        end
        else if inst_keyed en rule inst then
          fail "rule %s leaves a keyable instance unhashed" rule.Opcode.r_name;
        go inst (icol inst i_next)
      end
    in
    go (-1) head
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
  if !total <> en.v.live then fail "live count %d, chains hold %d" en.v.live !total;
  (* the last wake-up and the last step's touched fields *)
  if en.v.resumed < 0 || en.v.resumed > Array.length en.resumed_a then
    fail "resumed count %d, room for %d" en.v.resumed (Array.length en.resumed_a);
  for i = 0 to en.v.resumed - 1 do
    let w = en.resumed_a.(i) in
    if w < 0 || w >= en.rows_n then fail "resumed task %d names no row (%d)" i w
  done;
  let touchable = max 1 (max (Array.length en.prog.Opcode.array_names) (Array.length en.prim_count)) in
  if en.v.touched_arr < 0 || en.v.touched_arr >= touchable then
    fail "touched array %d, the program has %d" en.v.touched_arr touchable;
  (* The checks below cost O(runs + heap + rows + frames + instances),
     where the checks above cost O(parked + live).  So that a long queue
     does not make checking quadratic, they run on every [stride]-th
     call, the stride growing with what they visit so that they visit
     about [check_budget] entries per call on average; every call while
     it is smaller. *)
  en.check_calls <- en.check_calls + 1;
  let in_runs = Array.fold_left (fun n r -> n + r.ul) 0 en.runs in
  let stride =
    1 + ((in_runs + en.h_len + en.rows_n + en.frames_n + en.insts_n) / check_budget)
  in
  if en.check_calls mod stride = 0 then begin
    (* every entry names a row, and a live one carries its task's index
       (and, on a run, its set); runs ascend and the heap is ordered in
       (row, tid).  [min_uncommitted] drops dead heads until live ones
       surface, so it returns the least live entry; found here without
       dropping, so the check leaves the structures as they were. *)
    let w = en.width and hs = en.hs in
    let name s k =
      if s < 0 then Printf.sprintf "uncommitted-order heap slot %d" k
      else Printf.sprintf "set %d's run entry %d" s k
    in
    let least_a = ref en.h and least_o = ref (-1) and nlive = ref 0 in
    let entry s k (a : int array) o =
      let tk = a.(o + w) in
      if tk < 0 || tk >= en.rows_n then fail "%s names no row (row %d)" (name s k) tk;
      if entry_live en a o then begin
        incr nlive;
        if cmp_rows a o en.tr (idx_off en tk) w 0 <> 0 then
          fail "%s holds a row that is not task %d's index" (name s k) (tid tk);
        if s >= 0 && set tk <> s then fail "%s holds task %d of set %d" (name s k) (tid tk) (set tk);
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
    (* the least entry must be the (index, tid) minimum over every row
       that is uncommitted and has not broadcast, and each such row has
       exactly one live entry *)
    let brute = ref nil_task and uncommitted = ref 0 in
    for tk = 0 to en.rows_n - 1 do
      if holds_live en tk (tid tk) then begin
        incr uncommitted;
        if
          !brute < 0
          ||
          let c = row_cmp en tk !brute in
          c < 0 || (c = 0 && tid tk < tid !brute)
        then brute := tk
      end
    done;
    if !nlive <> !uncommitted then
      fail "%d live uncommitted-order entries for %d uncommitted tasks" !nlive !uncommitted;
    let got = if !least_o < 0 then -1 else !least_a.(!least_o + w + 1) in
    let want = if !brute < 0 then -1 else tid !brute in
    let tid_str t = if t < 0 then "none" else "tid " ^ string_of_int t in
    if got <> want then
      fail "the least live entry is %s, the minimum uncommitted task is %s" (tid_str got)
        (tid_str want);
    let kept = if en.mu >= 0 && holds_live en en.mu en.mu_tid then en.mu_tid else got in
    if kept <> want then
      fail "min_uncommitted would give %s, the minimum uncommitted task is %s" (tid_str kept)
        (tid_str want);
    (* frames: a pending or finished task holds none, a running or
       parked one exactly one, which names it back; every frame is bound
       or free, never both, and bound plus free frames are the frames
       made.  A task's instance chain links instances in use whose
       parent is that task; chained plus free instances are the
       instances made.  The view's running, parked and per-set pending
       and parked counters count the rows of each status. *)
    let bound = Array.make en.frames_n (-1) and n_bound = ref 0 and n_running = ref 0 in
    let owned = Array.make en.insts_n false and n_owned = ref 0 in
    let pending_rows = Array.make en.width 0 and parked_rows = Array.make en.width 0 in
    for tk = 0 to en.rows_n - 1 do
      let s = status_of en tk and fm = frame tk in
      if s = s_running then incr n_running
      else if s = s_pending then pending_rows.(set tk) <- pending_rows.(set tk) + 1
      else if s = s_waiting then parked_rows.(set tk) <- parked_rows.(set tk) + 1;
      if s = s_running || s = s_waiting then begin
        if fm < 0 || fm >= en.frames_n then
          fail "%s task %d holds no frame (frame %d)" (status_name s) (tid tk) fm;
        if bound.(fm) >= 0 then
          fail "frame %d is bound to tasks %d and %d" fm (tid bound.(fm)) (tid tk);
        if en.fr.((fm * en.fs) + f_row) <> tk then
          fail "task %d holds frame %d, which names row %d" (tid tk) fm en.fr.((fm * en.fs) + f_row);
        bound.(fm) <- tk;
        incr n_bound;
        let rec chain inst =
          if inst >= 0 then begin
            if inst >= en.insts_n then fail "task %d's instance chain names no instance (%d)" (tid tk) inst;
            if owned.(inst) then fail "instance %d is chained twice" inst;
            if icol inst i_parent <> tk then
              fail "task %d's instance chain holds instance %d of row %d" (tid tk) inst
                (icol inst i_parent);
            owned.(inst) <- true;
            incr n_owned;
            chain (icol inst i_link)
          end
        in
        chain (en.fr.((fm * en.fs) + f_insts))
      end
      else if fm >= 0 then fail "%s task %d holds frame %d" (status_name s) (tid tk) fm
    done;
    if !n_running <> en.v.running then
      fail "running counter %d, %d tasks are running" en.v.running !n_running;
    for s = 0 to en.width - 1 do
      if pending_rows.(s) <> en.v.pending_in.(s) then
        fail "set %d counts %d pending tasks, %d rows are pending" s en.v.pending_in.(s)
          pending_rows.(s);
      if parked_rows.(s) <> en.v.parked_in.(s) then
        fail "set %d counts %d parked tasks, %d rows are parked" s en.v.parked_in.(s)
          parked_rows.(s)
    done;
    let woken = Array.make en.rows_n false in
    for i = 0 to en.v.resumed - 1 do
      let w = en.resumed_a.(i) in
      if woken.(w) then fail "task %d was woken twice in one wake-up" (tid w);
      woken.(w) <- true
    done;
    let freed = Array.make en.frames_n false in
    for i = 0 to en.free_frames.sn - 1 do
      let fm = en.free_frames.sa.(i) in
      if fm < 0 || fm >= en.frames_n then fail "the free frame list names no frame (%d)" fm;
      if freed.(fm) then fail "frame %d is free twice" fm;
      if bound.(fm) >= 0 then fail "frame %d is free and bound to task %d" fm (tid bound.(fm));
      if en.fr.((fm * en.fs) + f_row) <> -1 then fail "free frame %d names row %d" fm
          en.fr.((fm * en.fs) + f_row);
      freed.(fm) <- true
    done;
    if !n_bound + en.free_frames.sn <> en.frames_n then
      fail "%d bound and %d free frames, %d made" !n_bound en.free_frames.sn en.frames_n;
    let ifreed = Array.make en.insts_n false in
    for i = 0 to en.free_insts.sn - 1 do
      let inst = en.free_insts.sa.(i) in
      if inst < 0 || inst >= en.insts_n then fail "the free instance list names no instance (%d)" inst;
      if ifreed.(inst) || owned.(inst) then fail "instance %d is free twice or free and chained" inst;
      if icol inst i_parent <> -1 || icol inst i_chain <> -2 then
        fail "free instance %d is still linked" inst;
      ifreed.(inst) <- true
    done;
    if !n_owned + en.free_insts.sn <> en.insts_n then
      fail "%d chained and %d free instances, %d made" !n_owned en.free_insts.sn en.insts_n;
    (* the queues and the free rows: a queued task is pending, not
       parked and queued once; a free row holds a committed or squashed
       task and sits in no queue, on no wake list and in no waiting
       heap *)
    let queued = Array.make en.rows_n false in
    Array.iteri
      (fun s r ->
        for k = 0 to en.v.pending_in.(s) - 1 do
          let tk = r.rd.((r.rh + k) land (Array.length r.rd - 1)) in
          if tk < 0 || tk >= en.rows_n then fail "set %d queues no row (%d)" s tk;
          if status_of en tk <> s_pending then
            fail "set %d queues task %d, which is %s" s (tid tk) (status_name (status_of en tk));
          if frame tk >= 0 && fcol tk f_wpos >= 0 then fail "task %d is both queued and parked" (tid tk);
          if queued.(tk) then fail "task %d is queued twice" (tid tk);
          queued.(tk) <- true
        done)
      en.rings;
    let rfreed = Array.make en.rows_n false in
    for i = 0 to en.free_rows.sn - 1 do
      let tk = en.free_rows.sa.(i) in
      if tk < 0 || tk >= en.rows_n then fail "the free row list names no row (%d)" tk;
      if rfreed.(tk) then fail "row %d is free twice" tk;
      rfreed.(tk) <- true;
      let s = status_of en tk in
      if not (s = s_committed || s = s_squashed) then
        fail "free row %d holds task %d, which is %s" tk (tid tk) (status_name s);
      if queued.(tk) then fail "free row %d (task %d) is queued" tk (tid tk);
      if Hashtbl.mem on_list tk then fail "free row %d (task %d) is on the wake list" tk (tid tk);
      if frame tk >= 0 then fail "free row %d (task %d) is parked or holds a frame" tk (tid tk)
    done
  end;
  (* the pending counter is the sum of the queues' lengths, and every
     activation is accounted for *)
  let queued = Array.fold_left ( + ) 0 en.v.pending_in in
  if queued <> en.v.pending then fail "pending counter %d, the queues hold %d" en.v.pending queued;
  let parked = Array.fold_left ( + ) 0 en.v.parked_in in
  if parked <> en.v.parked then fail "parked counter %d, the sets count %d" en.v.parked parked;
  let s = en.stats in
  if s.activated <> s.committed + s.aborted + s.retried + queued + en.v.running + en.v.parked then
    fail "activated %d <> committed %d + aborted %d + retried %d + pending %d + running %d + parked %d"
      s.activated s.committed s.aborted s.retried queued en.v.running en.v.parked
