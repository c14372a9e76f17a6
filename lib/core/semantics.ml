(* One semantics, many interpretations.

   The small-step ECA-rule semantics lives in {!Engine}; what used to
   distinguish Sequential / Runtime / Parallel_runtime / Trace /
   Cpu_model was five hand-written driver loops around it, each free to
   drift.  This module is the single driver, parameterized over an
   {!interpretation} record: a {!policy} (which scheduling discipline
   feeds tasks to the stepper) plus {!hooks} (effect observers fired at
   every lifecycle transition).  A substrate is now a record, not a
   reimplementation — the legacy modules are thin adapters over {!run},
   and a new backend (tracing, profiling, counting, future cost-model
   evaluators) is an interpretation record away. *)

(* Typed liveness failures, raised by the core itself.  [Runtime]
   re-exports the same constructors (OCaml exception rebinding), so
   handlers matching any of the three names keep working. *)
exception Deadlock = Engine.Deadlock

exception Step_limit_exceeded = Engine.Step_limit_exceeded

let () =
  Printexc.register_printer (function
    | Deadlock msg -> Some (Printf.sprintf "Agp_core.Runtime.Deadlock(%S)" msg)
    | Step_limit_exceeded n -> Some (Printf.sprintf "Agp_core.Runtime.Step_limit_exceeded(%d)" n)
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
  | Domains of { domains : int option }

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
  domains_used : int;
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

let oracle ?(max_tasks = 10_000_000) () =
  { descr = "Sequential.run"; policy = Min_first { max_tasks }; hooks = null_hooks }

let pipelined ?(workers = 8) ?(max_steps = 100_000_000) () =
  { descr = "Runtime.run"; policy = Workers { workers; max_steps }; hooks = null_hooks }

let multicore ?domains () =
  { descr = "Parallel_runtime.run"; policy = Domains { domains }; hooks = null_hooks }

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

(* --- Min_first: Definition 4.3, always run the minimum active task to
   completion, with hooks at every transition. *)
let run_min_first ~max_tasks ~hooks eng =
  let hooked = hooked hooks in
  let checked = Engine.checked eng in
  let tasks_run = ref 0 in
  let op_count = ref 0 in
  let fire task ev = hooks.on_event ~tick:!op_count ~worker:0 task ev in
  let rec drive task =
    let pc = Engine.task_pc task in
    let rc = Engine.step eng task in
    if checked then Engine.check_invariants eng;
    incr op_count;
    if hooked then fire task (step_event eng pc rc);
    if rc < Engine.lc_blocked then drive task
    else if rc > Engine.lc_blocked then Engine.resolve_pending eng
    else begin
      Engine.resolve_pending eng;
      Engine.resume_ready eng;
      if Engine.resumed_count eng = 0 then
        raise
          (Deadlock
             (Printf.sprintf "Engine: sequential deadlock at task %s of set %d"
                (Index.to_string (Engine.task_index task))
                (Engine.task_set task)));
      (* the running task is minimal, so it is what wakes *)
      if hooked then
        for i = 0 to Engine.resumed_count eng - 1 do
          fire (Engine.resumed_get eng i) Resumed
        done;
      drive task
    end
  in
  let rec loop () =
    if !tasks_run > max_tasks then raise (Step_limit_exceeded max_tasks);
    let task = Engine.pop_min eng in
    if not (Engine.is_nil task) then begin
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
    domains_used = 0;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

(* queue the tasks [Engine.resume_ready] just woke *)
let take_woken q eng =
  for i = 0 to Engine.resumed_count eng - 1 do
    Queue.push (Engine.resumed_get eng i) q
  done

(* --- Workers: the aggressive software runtime of §4.4.  A fixed pool
   of abstract workers, deterministic op-by-op interleaving; resumed
   tasks take slot priority over fresh pops (they are already deep in
   the pipeline).  Trace capture is this policy plus recording hooks —
   the hooks observe and never steer, so a traced run keeps the same
   schedule as an untraced one. *)
let run_workers ~descr ~workers ~max_steps ~hooks eng =
  if workers < 1 then invalid_arg (descr ^ ": workers must be positive");
  let hooked = hooked hooks in
  let checked = Engine.checked eng in
  let slots = Array.make workers Engine.nil_task in
  let resumable = Queue.create () in
  let tasks_run = ref 0 in
  let steps = ref 0 in
  let max_concurrency = ref 0 in
  let total_busy = ref 0 in
  let max_waiting = ref 0 in
  let fire w task ev = hooks.on_event ~tick:!steps ~worker:w task ev in
  while Engine.uncommitted_remaining eng do
    incr steps;
    if !steps > max_steps then raise (Step_limit_exceeded max_steps);
    let progressed = ref false in
    let busy_now = ref 0 in
    for w = 0 to workers - 1 do
      if Engine.is_nil slots.(w) then begin
        if not (Queue.is_empty resumable) then begin
          let task = Queue.pop resumable in
          if hooked then fire w task Resumed;
          slots.(w) <- task
        end
        else begin
          let task = Engine.pop_any eng in
          if not (Engine.is_nil task) then begin
            if hooked then fire w task Acquired;
            slots.(w) <- task
          end
        end
      end;
      if not (Engine.is_nil slots.(w)) then incr busy_now
    done;
    total_busy := !total_busy + !busy_now;
    max_concurrency := imax !max_concurrency !busy_now;
    (* One operation per busy worker per tick. *)
    for w = 0 to workers - 1 do
      let task = slots.(w) in
      if not (Engine.is_nil task) then begin
        let pc = Engine.task_pc task in
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
    max_waiting := imax !max_waiting (Engine.waiting_count eng);
    (* Wake tasks whose rendezvous resolved. *)
    Engine.resume_ready eng;
    take_woken resumable eng;
    if (not !progressed) && Queue.is_empty resumable then begin
      (* Nothing ran and nothing woke: either only parked tasks remain
         (give the minimum-task machinery a chance) or the spec is
         deadlocked. *)
      Engine.resolve_pending eng;
      Engine.resume_ready eng;
      take_woken resumable eng;
      if Engine.resumed_count eng = 0 && Engine.deadlocked eng then
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
    domains_used = 0;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

(* --- Domains: genuinely multicore, OCaml 5 domains over the shared
   engine guarded by one lock.  Each domain repeatedly: take the lock,
   acquire a task (resumed first), run it op-by-op under the lock until
   it blocks or finishes, then release.  Holding the lock across a
   whole task slice keeps engine invariants simple; parallelism across
   domains comes from the slices interleaving at block/finish
   boundaries and from the OS overlapping the lock-free tails.  Hooks
   fire under the lock; [tick] is a global transition counter and
   [worker] the domain number, so counting/profiling interpretations
   observe a coherent stream even though the schedule is
   nondeterministic. *)
let run_domains ~descr ~domains ~hooks eng =
  let n_domains =
    match domains with
    | Some n -> max 1 n
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  let hooked = hooked hooks in
  let checked = Engine.checked eng in
  let lock = Mutex.create () in
  let resumable = Queue.create () in
  let tasks_run = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let ticks = ref 0 (* mutated under the lock only *) in
  let worker wid () =
    let fire task ev = hooks.on_event ~tick:!ticks ~worker:wid task ev in
    let idle_spins = ref 0 in
    let running = ref true in
    while !running && Atomic.get failure = None do
      Mutex.lock lock;
      let resumed = not (Queue.is_empty resumable) in
      let task = if resumed then Queue.pop resumable else Engine.pop_any eng in
      if not (Engine.is_nil task) then begin
        idle_spins := 0;
        incr ticks;
        if hooked then fire task (if resumed then Resumed else Acquired);
        let rec slice () =
          let pc = Engine.task_pc task in
          let rc = Engine.step eng task in
          if checked then Engine.check_invariants eng;
          incr ticks;
          if hooked then fire task (step_event eng pc rc);
          if rc < Engine.lc_blocked then slice ()
          else begin
            if rc > Engine.lc_blocked then Atomic.incr tasks_run;
            Engine.resolve_pending eng;
            Engine.resume_ready eng;
            take_woken resumable eng
          end
        in
        try slice () with e -> Atomic.set failure (Some e)
      end
      else if not (Engine.uncommitted_remaining eng) then running := false
      else begin
        (* nothing runnable here: give the minimum-task machinery a
           chance, then back off *)
        Engine.resolve_pending eng;
        Engine.resume_ready eng;
        take_woken resumable eng;
        incr idle_spins;
        if !idle_spins > 1_000_000 && Engine.deadlocked eng then
          Atomic.set failure (Some (Deadlock (descr ^ ": deadlock in rule resolution")))
      end;
      Mutex.unlock lock;
      if Engine.is_nil task then Domain.cpu_relax ()
    done
  in
  let spawned = List.init (n_domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  begin
    match Atomic.get failure with
    | Some e -> raise e
    | None -> ()
  end;
  {
    tasks_run = Atomic.get tasks_run;
    steps = !ticks;
    max_concurrency = 0;
    max_waiting = 0;
    avg_busy = 0.0;
    domains_used = n_domains;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

let run ?(initial = []) interp sp bindings st =
  let eng = Engine.create sp bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial eng set payload) initial;
  match interp.policy with
  | Min_first { max_tasks } -> run_min_first ~max_tasks ~hooks:interp.hooks eng
  | Workers { workers; max_steps } ->
      run_workers ~descr:interp.descr ~workers ~max_steps ~hooks:interp.hooks eng
  | Domains { domains } -> run_domains ~descr:interp.descr ~domains ~hooks:interp.hooks eng
