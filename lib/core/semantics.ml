(* One semantics, many interpretations.

   The small-step ECA-rule semantics lives in {!Engine}.  This module is
   the single driver around it, parameterized over an {!interpretation}
   record: a {!policy} (which scheduling discipline feeds tasks to the
   stepper) plus the sink its task events go to.  A substrate is a
   record, not a reimplementation: a new backend (tracing, profiling,
   counting, future cost-model evaluators) is an interpretation record
   away.

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

module Sink = Agp_obs.Sink
module Event = Agp_obs.Event

type policy =
  | Min_first of { max_tasks : int }
  | Workers of { workers : int; max_steps : int }

type interpretation = {
  descr : string;
  policy : policy;
  sink : Sink.t;
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
  { descr = "Semantics.oracle"; policy = Min_first { max_tasks }; sink = Sink.null }

let pipelined ?(workers = 8) ?(max_steps = 100_000_000) () =
  { descr = "Semantics.pipelined"; policy = Workers { workers; max_steps }; sink = Sink.null }

type hooks = { on_event : tick:int -> worker:int -> int -> Event.t -> unit }

let with_hooks interp h =
  let tap ~ts ev =
    match ev with
    | Event.Task_dispatch { pipe; tid; _ }
    | Event.Rendezvous_park { pipe; tid; _ }
    | Event.Task_finish { pipe; tid; _ } ->
        h.on_event ~tick:ts ~worker:pipe tid ev
    | Event.Rendezvous_resume { tid; _ } -> h.on_event ~tick:ts ~worker:(-1) tid ev
    | Event.Queue_full _ | Event.Cache_access _ | Event.Link_transfer _ -> ()
  in
  { interp with sink = Sink.tap tap }

(* The sentinel step observer: a loop calls [on_step] only when it is
   not this one (compared physically, once per run). *)
let no_step (_ : int) = ()

(* --- task events.  The loops call these only when the sink is
   enabled, so a null-sink run builds no event and makes no call. *)

let set_name eng tk = (Engine.program eng).Opcode.set_names.(Engine.task_set eng tk)

let dispatched sink eng ~ts ~worker tk =
  Sink.emit sink ~ts
    (Event.Task_dispatch
       {
         set = set_name eng tk;
         pipe = worker;
         tid = Engine.task_tid eng tk;
         index = Index.to_array (Engine.task_index eng tk);
       })

(* the task parked ([rc = lc_blocked]) or finished *)
let left sink eng ~ts ~worker tk rc =
  let set = set_name eng tk and tid = Engine.task_tid eng tk in
  Sink.emit sink ~ts
    (if rc = Engine.lc_blocked then Event.Rendezvous_park { set; pipe = worker; tid }
     else Event.Task_finish { set; pipe = worker; tid; outcome = Engine.outcome_of_class rc })

(* the tasks the last [Engine.resume_ready] woke *)
let resumed sink eng ~ts =
  for i = 0 to (Engine.view eng).Engine.resumed - 1 do
    let tk = Engine.resumed_get eng i in
    Sink.emit sink ~ts
      (Event.Rendezvous_resume { set = set_name eng tk; tid = Engine.task_tid eng tk })
  done

let imax (a : int) b = if a >= b then a else b

let[@inline] is_nil (tk : Engine.task) = (tk :> int) < 0

(* some task is pending, running or parked *)
let[@inline] remaining (v : Engine.view) = v.running > 0 || v.parked > 0 || v.pending > 0

(* --- Min_first: Definition 4.3, always run the minimum active task to
   completion, on worker 0, stamping events with the transition count. *)
let run_min_first ~max_tasks ~sink ~on_step eng =
  let v = Engine.view eng in
  let traced = Sink.enabled sink and stepped = on_step != no_step in
  let checked = Engine.checked eng in
  let tasks_run = ref 0 in
  let op_count = ref 0 in
  let rec drive task =
    if checked then Engine.check_step eng task;
    let rc = Engine.step eng task in
    if checked then Engine.check_invariants eng;
    incr op_count;
    if stepped then on_step rc;
    if rc < Engine.lc_blocked then drive task
    else begin
      if traced then left sink eng ~ts:!op_count ~worker:0 task rc;
      Engine.resolve_pending eng;
      if rc = Engine.lc_blocked then begin
        Engine.resume_ready eng;
        if v.Engine.resumed = 0 then
          raise
            (Deadlock
               (Printf.sprintf "Engine: sequential deadlock at task %s of set %d"
                  (Index.to_string (Engine.task_index eng task))
                  (Engine.task_set eng task)));
        (* the running task is minimal, so it is what wakes *)
        if traced then begin
          resumed sink eng ~ts:!op_count;
          dispatched sink eng ~ts:!op_count ~worker:0 task
        end;
        drive task
      end
    end
  in
  let rec loop () =
    if !tasks_run > max_tasks then raise (Step_limit_exceeded max_tasks);
    let task = Engine.pop_min eng in
    if not (is_nil task) then begin
      incr tasks_run;
      if traced then dispatched sink eng ~ts:!op_count ~worker:0 task;
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
let take_woken q eng ~traced sink ~ts =
  for i = 0 to (Engine.view eng).Engine.resumed - 1 do
    fifo_push q (Engine.resumed_get eng i)
  done;
  if traced then resumed sink eng ~ts

(* --- Workers: the aggressive software runtime of §4.4.  A fixed pool
   of abstract workers, deterministic op-by-op interleaving; resumed
   tasks take slot priority over fresh pops (they are already deep in
   the pipeline).  The sink observes and never steers, so a traced run
   keeps the same schedule as an untraced one. *)
let run_workers ~descr ~workers ~max_steps ~sink ~on_step eng =
  if workers < 1 then invalid_arg (descr ^ ": workers must be positive");
  let v = Engine.view eng in
  let traced = Sink.enabled sink and stepped = on_step != no_step in
  let checked = Engine.checked eng in
  let slots = Array.make workers Engine.nil_task in
  let resumable = fifo () in
  let tasks_run = ref 0 in
  let steps = ref 0 in
  let max_concurrency = ref 0 in
  let total_busy = ref 0 in
  let max_waiting = ref 0 in
  while remaining v do
    incr steps;
    if !steps > max_steps then raise (Step_limit_exceeded max_steps);
    let progressed = ref false in
    let busy_now = ref 0 in
    for w = 0 to workers - 1 do
      if is_nil slots.(w) then begin
        if resumable.qn > 0 then begin
          let task = fifo_pop resumable in
          if traced then dispatched sink eng ~ts:!steps ~worker:w task;
          slots.(w) <- task
        end
        else if v.Engine.pending > 0 then begin
          let task = Engine.pop_any eng in
          if traced then dispatched sink eng ~ts:!steps ~worker:w task;
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
        if checked then Engine.check_step eng task;
        let rc = Engine.step eng task in
        if checked then Engine.check_invariants eng;
        progressed := true;
        if stepped then on_step rc;
        if rc >= Engine.lc_blocked then begin
          if traced then left sink eng ~ts:!steps ~worker:w task rc;
          if rc > Engine.lc_blocked then incr tasks_run;
          slots.(w) <- Engine.nil_task;
          Engine.resolve_pending eng
        end
      end
    done;
    max_waiting := imax !max_waiting v.Engine.parked;
    (* Wake tasks whose rendezvous resolved. *)
    Engine.resume_ready eng;
    if v.Engine.resumed > 0 then take_woken resumable eng ~traced sink ~ts:!steps;
    if (not !progressed) && resumable.qn = 0 then begin
      (* Nothing ran and nothing woke: either only parked tasks remain
         (give the minimum-task machinery a chance) or the spec is
         deadlocked. *)
      Engine.resolve_pending eng;
      Engine.resume_ready eng;
      take_woken resumable eng ~traced sink ~ts:!steps;
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

let run_engine ?sink ?(on_step = no_step) interp eng =
  let sink = Option.value sink ~default:interp.sink in
  match interp.policy with
  | Min_first { max_tasks } -> run_min_first ~max_tasks ~sink ~on_step eng
  | Workers { workers; max_steps } ->
      run_workers ~descr:interp.descr ~workers ~max_steps ~sink ~on_step eng

let run ?sink ?on_step ?(initial = []) interp sp bindings st =
  let eng = Engine.create sp bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial eng set payload) initial;
  run_engine ?sink ?on_step interp eng
