(* One semantics, many interpretations.

   The small-step ECA-rule semantics lives in {!Engine}.  This module is
   the single driver around it, parameterized over an {!interpretation}
   record: a {!policy} (which scheduling discipline feeds tasks to the
   stepper) plus {!hooks} (effect observers fired at every lifecycle
   transition).  A substrate is a record, not a reimplementation: a new
   backend (tracing, profiling, counting, future cost-model evaluators)
   is an interpretation record away.

   The loops read the engine's counters as fields of its
   {!Engine.view}, fetched once per run, and test a task handle for
   [nil_task] as a negative int: under dune's dev profile ([-opaque]) a
   call into another module never inlines, so on the per-op path a
   field read or a comparison replaces a call. *)

(* Typed liveness failures, raised by the core itself and rebound here
   (OCaml exception rebinding), so handlers matching either name keep
   working. *)
exception Deadlock = Engine.Deadlock

exception Step_limit_exceeded = Engine.Step_limit_exceeded

let () =
  Printexc.register_printer (function
    | Deadlock msg -> Some (Printf.sprintf "Agp_core.Semantics.Deadlock(%S)" msg)
    | Step_limit_exceeded n -> Some (Printf.sprintf "Agp_core.Semantics.Step_limit_exceeded(%d)" n)
    | _ -> None)

type step_event =
  | Acquired
  | Resumed
  | Executed of Spec.op
  | Blocked_on of string
  | Finished of Engine.outcome

type hooks = { on_event : tick:int -> worker:int -> Engine.task -> step_event -> unit }

let null_hooks = { on_event = (fun ~tick:_ ~worker:_ _ _ -> ()) }

type policy =
  | Min_first of { max_tasks : int }
  | Workers of { workers : int; max_steps : int }

type interpretation = {
  descr : string;
  policy : policy;
  hooks : hooks;
}

type report = {
  tasks_run : int;
  steps : int;
  max_concurrency : int;
  max_waiting : int;
  avg_busy : float;
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

let oracle ?(max_tasks = 10_000_000) () =
  { descr = "Semantics.oracle"; policy = Min_first { max_tasks }; hooks = null_hooks }

let pipelined ?(workers = 8) ?(max_steps = 100_000_000) () =
  { descr = "Semantics.pipelined"; policy = Workers { workers; max_steps }; hooks = null_hooks }

let with_hooks interp hooks = { interp with hooks }

let with_descr interp descr = { interp with descr }

(* Effect hooks fire only when the interpretation has some: with the
   null hooks the loops build no [Executed] block and make no call. *)
let hooked hooks = hooks != null_hooks

(* What a step's latency class means to the hooks; [pc] is the task's
   program counter before the step. *)
let step_event eng pc rc =
  let prog = Engine.program eng in
  match prog.Opcode.source.(pc), prog.Opcode.code.(pc) with
  | Some op, _ when rc < Engine.lc_blocked -> Executed op
  | _, Opcode.I_await { handle_name; _ } when rc = Engine.lc_blocked -> Blocked_on handle_name
  | _ -> Finished (Engine.outcome_of_class rc)

let imax (a : int) b = if a >= b then a else b

let[@inline] is_nil (tk : Engine.task) = (tk :> int) < 0

(* some task is pending, running or parked *)
let[@inline] remaining (v : Engine.view) = v.running > 0 || v.parked > 0 || v.pending > 0

(* --- Min_first: Definition 4.3, always run the minimum active task to
   completion, with hooks at every transition. *)
let run_min_first ~max_tasks ~hooks eng =
  let v = Engine.view eng in
  let hooked = hooked hooks in
  let checked = Engine.checked eng in
  let tasks_run = ref 0 in
  let op_count = ref 0 in
  let fire task ev = hooks.on_event ~tick:!op_count ~worker:0 task ev in
  let rec drive task =
    let pc = if hooked then Engine.task_pc eng task else 0 in
    if checked then Engine.check_step eng task;
    let rc = Engine.step eng task in
    if checked then Engine.check_invariants eng;
    incr op_count;
    if hooked then fire task (step_event eng pc rc);
    if rc < Engine.lc_blocked then drive task
    else if rc > Engine.lc_blocked then Engine.resolve_pending eng
    else begin
      Engine.resolve_pending eng;
      Engine.resume_ready eng;
      if v.Engine.resumed = 0 then
        raise
          (Deadlock
             (Printf.sprintf "Engine: sequential deadlock at task %s of set %d"
                (Index.to_string (Engine.task_index eng task))
                (Engine.task_set eng task)));
      (* the running task is minimal, so it is what wakes *)
      if hooked then
        for i = 0 to v.Engine.resumed - 1 do
          fire (Engine.resumed_get eng i) Resumed
        done;
      drive task
    end
  in
  let rec loop () =
    if !tasks_run > max_tasks then raise (Step_limit_exceeded max_tasks);
    let task = Engine.pop_min eng in
    if not (is_nil task) then begin
      incr tasks_run;
      if hooked then fire task Acquired;
      drive task;
      loop ()
    end
  in
  loop ();
  {
    tasks_run = !tasks_run;
    steps = !op_count;
    max_concurrency = (if !tasks_run > 0 then 1 else 0);
    max_waiting = 0;
    avg_busy = (if !op_count > 0 then 1.0 else 0.0);
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

(* the resumable tasks: a FIFO ring of task ids *)
type fifo = {
  mutable q : Engine.task array;
  mutable qh : int;
  mutable qn : int;
}

let fifo () = { q = Array.make 16 Engine.nil_task; qh = 0; qn = 0 }

let fifo_push f tk =
  let cap = Array.length f.q in
  if f.qn = cap then begin
    let q = Array.make (2 * cap) Engine.nil_task in
    for i = 0 to f.qn - 1 do
      q.(i) <- f.q.((f.qh + i) mod cap)
    done;
    f.q <- q;
    f.qh <- 0
  end;
  f.q.((f.qh + f.qn) mod Array.length f.q) <- tk;
  f.qn <- f.qn + 1

let fifo_pop f =
  let tk = f.q.(f.qh) in
  f.qh <- (f.qh + 1) mod Array.length f.q;
  f.qn <- f.qn - 1;
  tk

(* queue the tasks [Engine.resume_ready] just woke *)
let take_woken q eng =
  for i = 0 to (Engine.view eng).Engine.resumed - 1 do
    fifo_push q (Engine.resumed_get eng i)
  done

(* --- Workers: the aggressive software runtime of §4.4.  A fixed pool
   of abstract workers, deterministic op-by-op interleaving; resumed
   tasks take slot priority over fresh pops (they are already deep in
   the pipeline).  Trace capture is this policy plus recording hooks —
   the hooks observe and never steer, so a traced run keeps the same
   schedule as an untraced one. *)
let run_workers ~descr ~workers ~max_steps ~hooks eng =
  if workers < 1 then invalid_arg (descr ^ ": workers must be positive");
  let v = Engine.view eng in
  let hooked = hooked hooks in
  let checked = Engine.checked eng in
  let slots = Array.make workers Engine.nil_task in
  let resumable = fifo () in
  let tasks_run = ref 0 in
  let steps = ref 0 in
  let max_concurrency = ref 0 in
  let total_busy = ref 0 in
  let max_waiting = ref 0 in
  let fire w task ev = hooks.on_event ~tick:!steps ~worker:w task ev in
  while remaining v do
    incr steps;
    if !steps > max_steps then raise (Step_limit_exceeded max_steps);
    let progressed = ref false in
    let busy_now = ref 0 in
    for w = 0 to workers - 1 do
      if is_nil slots.(w) then begin
        if resumable.qn > 0 then begin
          let task = fifo_pop resumable in
          if hooked then fire w task Resumed;
          slots.(w) <- task
        end
        else if v.Engine.pending > 0 then begin
          let task = Engine.pop_any eng in
          if hooked then fire w task Acquired;
          slots.(w) <- task
        end
      end;
      if not (is_nil slots.(w)) then incr busy_now
    done;
    total_busy := !total_busy + !busy_now;
    max_concurrency := imax !max_concurrency !busy_now;
    (* One operation per busy worker per tick. *)
    for w = 0 to workers - 1 do
      let task = slots.(w) in
      if not (is_nil task) then begin
        let pc = if hooked then Engine.task_pc eng task else 0 in
        if checked then Engine.check_step eng task;
        let rc = Engine.step eng task in
        if checked then Engine.check_invariants eng;
        progressed := true;
        if hooked then fire w task (step_event eng pc rc);
        if rc >= Engine.lc_blocked then begin
          if rc > Engine.lc_blocked then incr tasks_run;
          slots.(w) <- Engine.nil_task;
          Engine.resolve_pending eng
        end
      end
    done;
    max_waiting := imax !max_waiting v.Engine.parked;
    (* Wake tasks whose rendezvous resolved. *)
    Engine.resume_ready eng;
    if v.Engine.resumed > 0 then take_woken resumable eng;
    if (not !progressed) && resumable.qn = 0 then begin
      (* Nothing ran and nothing woke: either only parked tasks remain
         (give the minimum-task machinery a chance) or the spec is
         deadlocked. *)
      Engine.resolve_pending eng;
      Engine.resume_ready eng;
      take_woken resumable eng;
      if v.Engine.resumed = 0 && Engine.deadlocked eng then
        raise (Deadlock (descr ^ ": deadlock — a rule lacks a viable exit path"))
    end
  done;
  {
    tasks_run = !tasks_run;
    steps = !steps;
    max_concurrency = !max_concurrency;
    max_waiting = !max_waiting;
    avg_busy =
      (if !steps = 0 then 0.0 else float_of_int !total_busy /. float_of_int !steps);
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

let run_engine interp eng =
  match interp.policy with
  | Min_first { max_tasks } -> run_min_first ~max_tasks ~hooks:interp.hooks eng
  | Workers { workers; max_steps } ->
      run_workers ~descr:interp.descr ~workers ~max_steps ~hooks:interp.hooks eng

let run ?(initial = []) interp sp bindings st =
  let eng = Engine.create sp bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial eng set payload) initial;
  run_engine interp eng
