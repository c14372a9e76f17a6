(* The cycle simulator: a timing shell around the ECA core
   ({!Agp_core.Engine}).  The core executes operations and reports each
   one's latency class; the shell owns everything that is time —
   replicated pipelines with bounded windows, queue-bank issue, the
   memory model, the rule-lane allocator stall, the event wheel that
   skips idle cycles, and per-cycle stall attribution.

   In-flight tasks wait on per-pipeline timing wheels, so a cycle
   visits only the tasks ready in it.  With the sink off, issue stops
   at a set's pipelines once its queue is empty or its pops are spent;
   attribution charges each set from its count of occupied pipelines
   and the pipelines stepped this scan.  Neither visits every pipeline
   every scan.  The slot pool, the squash
   log and the attribution matrix ({!Attribution}, charged in place)
   are flat preallocated arrays, so the steady-state loop allocates
   nothing. *)

module Engine = Agp_core.Engine
module Spec = Agp_core.Spec
module State = Agp_core.State
module Opcode = Agp_core.Opcode
module Index = Agp_core.Index
module Bdfg = Agp_dataflow.Bdfg
module Vec = Agp_util.Vec
module Sink = Agp_obs.Sink
module Event = Agp_obs.Event
module Attribution = Agp_obs.Attribution
module Timeline = Agp_obs.Timeline
module Lifecycle = Agp_obs.Lifecycle
module Metrics = Agp_obs.Metrics
module Json = Agp_obs.Json
module Report = Agp_obs.Report

type report = {
  cycles : int;
  seconds : float;
  utilization : float;
  wall_seconds : float;
  sim_cycles_per_sec : float;
  minor_words_per_cycle : float;
  engine_stats : Agp_core.Engine.stats;
  mem_reads : int;
  mem_writes : int;
  mem_hit_rate : float;
  bytes_over_link : int;
  peak_in_flight : int;
  pipelines : (string * int) list;
  attribution : Attribution.t;
  stall_rechecks : int;
}

(* One replicated pipeline.  Its in-flight tasks live in the shared
   calendar below; the pipeline itself keeps only its occupancy.  The
   pipelines of a set are contiguous, in set-slot order. *)
type pipe = {
  set : int;
  set_name : string;
  id : int;
  capacity : int;
  stage_ops : int;
  mutable n : int; (* tasks in flight in this pipeline *)
  mutable stepped : bool; (* advanced at least one op this cycle *)
}

let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

(* some task is pending, running or parked *)
let[@inline] remaining (v : Engine.view) = v.running > 0 || v.parked > 0 || v.pending > 0

(* The in-flight calendar.  Every in-flight task holds a pooled slot:
   parallel arrays indexed by slot id carrying the task, its pipeline,
   its admission sequence [q] (global, +1 per admission), the scan [e]
   at which its window first held it, the ops it has executed and the
   cycle it is ready for its next op.  A slot due within [wheel_size]
   cycles waits on its pipeline's timing wheel, in bucket
   [ready land wheel_mask]; a later one waits on the far list until it
   comes within range.  [sl_next] chains a bucket, and the free slots.
   [admit] and [release] also keep, per set, how many of its pipelines
   hold a task, and how many pipelines are full.

   A slot stalled at the rule-lane allocator leaves the wheel: it waits
   on its pipeline's stalled list, in ascending [q], flagged in
   [sl_stalled], until a lane may be its own (see [step_pipe] in
   {!run}).  The slots that stall during a scan are buffered in
   [fresh] and join the lists after the scan's drain, so none is tested
   twice in one scan. *)
let wheel_bits = 8

let wheel_size = 1 lsl wheel_bits

let wheel_mask = wheel_size - 1

type calendar = {
  mutable sl_task : Engine.task array; (* nil_task = free slot *)
  mutable sl_pipe : int array;
  mutable sl_q : int array;
  mutable sl_e : int array;
  mutable sl_ops : int array;
  mutable sl_ready : int array;
  mutable sl_next : int array;
  mutable sl_stalled : int array; (* 1 = on its pipeline's stalled list *)
  mutable free : int; (* head of the free chain, -1 = pool exhausted *)
  wheel : int array; (* (pipe lsl wheel_bits) lor bucket -> chain head, -1 = empty *)
  due : int array; (* per bucket: slots filed there, over all pipelines *)
  mutable far : int array;
  mutable far_n : int;
  mutable far_min : int; (* max_int when the far list is empty *)
  mutable live : int;
  mutable seq : int;
  occ : int array; (* per set: pipelines with n > 0 *)
  mutable full : int; (* pipelines with n >= capacity *)
  (* drain scratch: one bucket's slots in step order, and their keys *)
  mutable ds : int array;
  mutable dk : int array;
  st : int array array; (* per pipe: stalled slots, ascending q *)
  st_n : int array;
  st_min : int array; (* per pipe: a stalled slot of least task index *)
  mutable stalled : int; (* slots on the stalled lists *)
  mutable fresh : int array; (* slots stalled this scan *)
  mutable fresh_n : int;
  (* one pipeline's stalled slots in step order at this scan, and keys *)
  mutable ms : int array;
  mutable mk : int array;
}

let grow_ints a n x =
  let b = Array.make (imax 16 (2 * n)) x in
  Array.blit a 0 b 0 n;
  b

let grow_pool c =
  let n = Array.length c.sl_task in
  let b = Array.make (imax 16 (2 * n)) Engine.nil_task in
  Array.blit c.sl_task 0 b 0 n;
  c.sl_task <- b;
  c.sl_pipe <- grow_ints c.sl_pipe n 0;
  c.sl_q <- grow_ints c.sl_q n 0;
  c.sl_e <- grow_ints c.sl_e n 0;
  c.sl_ops <- grow_ints c.sl_ops n 0;
  c.sl_ready <- grow_ints c.sl_ready n 0;
  c.sl_next <- grow_ints c.sl_next n (-1);
  c.sl_stalled <- grow_ints c.sl_stalled n 0;
  for s = Array.length c.sl_task - 1 downto n do
    c.sl_next.(s) <- c.free;
    c.free <- s
  done

let calendar_create ~n_pipes ~n_sets ~slots =
  let c =
    {
      sl_task = [||];
      sl_pipe = [||];
      sl_q = [||];
      sl_e = [||];
      sl_ops = [||];
      sl_ready = [||];
      sl_next = [||];
      sl_stalled = [||];
      free = -1;
      wheel = Array.make (imax 1 n_pipes lsl wheel_bits) (-1);
      due = Array.make wheel_size 0;
      far = Array.make 16 0;
      far_n = 0;
      far_min = max_int;
      live = 0;
      seq = 0;
      occ = Array.make (imax n_sets 1) 0;
      full = 0;
      ds = Array.make 16 0;
      dk = Array.make 16 0;
      st = Array.init (imax 1 n_pipes) (fun _ -> Array.make 16 0);
      st_n = Array.make (imax 1 n_pipes) 0;
      st_min = Array.make (imax 1 n_pipes) (-1);
      stalled = 0;
      fresh = Array.make 16 0;
      fresh_n = 0;
      ms = Array.make 16 0;
      mk = Array.make 16 0;
    }
  in
  while Array.length c.sl_task < slots do
    grow_pool c
  done;
  c

let[@inline] file_wheel c s =
  let b = c.sl_ready.(s) land wheel_mask in
  let h = (c.sl_pipe.(s) lsl wheel_bits) lor b in
  c.sl_next.(s) <- c.wheel.(h);
  c.wheel.(h) <- s;
  c.due.(b) <- c.due.(b) + 1

(* file slot [s] by its ready cycle; [now] is the current cycle *)
let[@inline] file c s ~now =
  let r = c.sl_ready.(s) in
  if r - now < wheel_size then file_wheel c s
  else begin
    if c.far_n = Array.length c.far then c.far <- grow_ints c.far c.far_n 0;
    c.far.(c.far_n) <- s;
    c.far_n <- c.far_n + 1;
    if r < c.far_min then c.far_min <- r
  end

(* move the far slots due within the horizon of [now] onto the wheel *)
let migrate c ~now =
  let kept = ref 0 in
  c.far_min <- max_int;
  for i = 0 to c.far_n - 1 do
    let s = c.far.(i) in
    let r = c.sl_ready.(s) in
    if r - now < wheel_size then file_wheel c s
    else begin
      c.far.(!kept) <- s;
      incr kept;
      if r < c.far_min then c.far_min <- r
    end
  done;
  c.far_n <- !kept

let[@inline] admit c p tk ~ready ~e ~now =
  if c.free < 0 then grow_pool c;
  let s = c.free in
  c.free <- c.sl_next.(s);
  c.sl_task.(s) <- tk;
  c.sl_pipe.(s) <- p.id;
  c.sl_q.(s) <- c.seq;
  c.seq <- c.seq + 1;
  c.sl_e.(s) <- e;
  c.sl_ops.(s) <- 0;
  c.sl_ready.(s) <- ready;
  if p.n = 0 then c.occ.(p.set) <- c.occ.(p.set) + 1;
  p.n <- p.n + 1;
  if p.n = p.capacity then c.full <- c.full + 1;
  c.live <- c.live + 1;
  file c s ~now

let[@inline] release c p s =
  c.sl_task.(s) <- Engine.nil_task;
  c.sl_next.(s) <- c.free;
  c.free <- s;
  if p.n = p.capacity then c.full <- c.full - 1;
  p.n <- p.n - 1;
  if p.n = 0 then c.occ.(p.set) <- c.occ.(p.set) - 1;
  c.live <- c.live - 1

(* Unchain pipeline [pi]'s bucket for cycle [now] into the drain
   scratch, in the order its tasks step at scan [scan], and return how
   many there are.  The order is the one a window gives when each cycle
   it admits at its head and then visits every slot front to back,
   keeping the survivors reversed: at scan [scan] the slots with
   [scan - e] even come first in descending [q], then those with
   [scan - e] odd in ascending [q].  A bucket holds a handful of slots,
   so insertion sort on one int key suffices. *)
let drain c pi ~now ~scan =
  let b = now land wheel_mask in
  let h = (pi lsl wheel_bits) lor b in
  let n = ref 0 in
  let s = ref c.wheel.(h) in
  while !s >= 0 do
    let sl = !s in
    if !n = Array.length c.ds then begin
      c.ds <- grow_ints c.ds !n 0;
      c.dk <- grow_ints c.dk !n 0
    end;
    let q = c.sl_q.(sl) in
    let key = if (scan - c.sl_e.(sl)) land 1 = 0 then -q - 1 else q in
    let j = ref !n in
    while !j > 0 && c.dk.(!j - 1) > key do
      c.dk.(!j) <- c.dk.(!j - 1);
      c.ds.(!j) <- c.ds.(!j - 1);
      decr j
    done;
    c.dk.(!j) <- key;
    c.ds.(!j) <- sl;
    incr n;
    s := c.sl_next.(sl)
  done;
  c.wheel.(h) <- -1;
  c.due.(b) <- c.due.(b) - !n;
  !n

(* slot [s] stalled at the allocator this scan *)
let stall c s =
  if c.fresh_n = Array.length c.fresh then c.fresh <- grow_ints c.fresh c.fresh_n 0;
  c.fresh.(c.fresh_n) <- s;
  c.fresh_n <- c.fresh_n + 1

(* after a scan's drain, the slots that stalled in it join their
   pipelines' stalled lists, each in place by [q] *)
let file_stalled c en =
  for i = 0 to c.fresh_n - 1 do
    let s = c.fresh.(i) in
    let pi = c.sl_pipe.(s) in
    let n = c.st_n.(pi) in
    if n = Array.length c.st.(pi) then c.st.(pi) <- grow_ints c.st.(pi) n 0;
    let a = c.st.(pi) and q = c.sl_q.(s) in
    let j = ref n in
    while !j > 0 && c.sl_q.(a.(!j - 1)) > q do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- s;
    c.st_n.(pi) <- n + 1;
    c.sl_stalled.(s) <- 1;
    if n = 0 || Engine.compare_index en c.sl_task.(s) c.sl_task.(c.st_min.(pi)) < 0 then
      c.st_min.(pi) <- s
  done;
  c.stalled <- c.stalled + c.fresh_n;
  c.fresh_n <- 0

(* lay pipeline [pi]'s stalled slots out in the order [drain] would
   give them at scan [scan], with their keys, and return how many: the
   list is in ascending [q], so the even ones read backwards, then the
   odd ones forwards *)
let layout_stalled c pi ~scan =
  let n = c.st_n.(pi) and a = c.st.(pi) in
  if Array.length c.ms < n then begin
    c.ms <- Array.make (2 * n) 0;
    c.mk <- Array.make (2 * n) 0
  end;
  let k = ref 0 in
  for i = n - 1 downto 0 do
    if (scan - c.sl_e.(a.(i))) land 1 = 0 then begin
      c.ms.(!k) <- a.(i);
      c.mk.(!k) <- -c.sl_q.(a.(i)) - 1;
      incr k
    end
  done;
  for i = 0 to n - 1 do
    if (scan - c.sl_e.(a.(i))) land 1 = 1 then begin
      c.ms.(!k) <- a.(i);
      c.mk.(!k) <- c.sl_q.(a.(i));
      incr k
    end
  done;
  n

(* drop from pipeline [pi]'s stalled list the slots that stepped, and
   find its least index again if that slot went *)
let compact_stalled c en pi =
  let a = c.st.(pi) and k = ref 0 in
  for i = 0 to c.st_n.(pi) - 1 do
    if c.sl_stalled.(a.(i)) = 1 then begin
      a.(!k) <- a.(i);
      incr k
    end
  done;
  c.stalled <- c.stalled - (c.st_n.(pi) - !k);
  c.st_n.(pi) <- !k;
  if !k > 0 && c.sl_stalled.(c.st_min.(pi)) = 0 then begin
    c.st_min.(pi) <- a.(0);
    for i = 1 to !k - 1 do
      if Engine.compare_index en c.sl_task.(a.(i)) c.sl_task.(c.st_min.(pi)) < 0 then
        c.st_min.(pi) <- a.(i)
    done
  end

(* the first cycle after [now] at which some slot is ready; max_int
   when nothing is in flight *)
let next_due c ~now =
  let t = ref c.far_min in
  let d = ref 1 in
  while !d < wheel_size && now + !d < !t do
    if c.due.((now + !d) land wheel_mask) > 0 then t := now + !d;
    incr d
  done;
  !t

(* what [check_calendar] counts into, made once per run: [filed.(s)]
   is the number of the last check that found slot [s] filed *)
type scratch = {
  mutable filed : int array;
  mutable checks : int;
  per_pipe : int array;
  occ_seen : int array; (* per set: pipelines with a task *)
}

let scratch_create ~n_pipes ~n_sets =
  {
    filed = [||];
    checks = 0;
    per_pipe = Array.make (imax 1 n_pipes) 0;
    occ_seen = Array.make (imax 1 n_sets) 0;
  }

(* The calendar's invariants after a cycle's drain, for [AGP_CHECK=1]:
   every live slot is filed exactly once — in its own pipeline's bucket
   for its ready cycle or on the far list, and due after [now], or on
   its pipeline's stalled list;
   the bucket counts and the far minimum match what is filed; each
   stalled list holds flagged slots of its own pipeline in ascending
   [q], counted by [stalled], and notes its least index; each
   pipeline's occupancy counts its filed and stalled slots, summing to
   the live slots; the per-set occupied and the full pipeline counts
   match the occupancies; and the engine's pending counter matches its
   queues.  Only the buckets [due] counts as non-empty are walked: a
   live slot chained in a bucket counted empty is then missing from its
   pipeline's tally, which the occupancy check catches. *)
let check_calendar c en sc pipes ~now =
  let fail fmt = Printf.ksprintf failwith ("Accelerator.run: cycle %d: " ^^ fmt) now in
  if Array.length sc.filed < Array.length c.sl_task then
    sc.filed <- Array.make (Array.length c.sl_task) 0;
  sc.checks <- sc.checks + 1;
  let stamp = sc.checks and filed = sc.filed and per_pipe = sc.per_pipe in
  Array.fill per_pipe 0 (Array.length per_pipe) 0;
  let visit s =
    if Engine.is_nil c.sl_task.(s) || filed.(s) = stamp then fail "slot %d is free or filed twice" s;
    filed.(s) <- stamp;
    per_pipe.(c.sl_pipe.(s)) <- per_pipe.(c.sl_pipe.(s)) + 1
  in
  let visit_filed s =
    visit s;
    if c.sl_stalled.(s) <> 0 then fail "slot %d is flagged stalled but filed by its ready cycle" s;
    if c.sl_ready.(s) <= now then fail "slot %d was due at %d and not stepped" s c.sl_ready.(s)
  in
  for b = 0 to wheel_size - 1 do
    if c.due.(b) <> 0 then begin
      let chained = ref 0 in
      Array.iter
        (fun p ->
          let s = ref c.wheel.((p.id lsl wheel_bits) lor b) in
          while !s >= 0 do
            let r = c.sl_ready.(!s) in
            visit_filed !s;
            if c.sl_pipe.(!s) <> p.id || r land wheel_mask <> b || r - now >= wheel_size then
              fail "slot %d (pipe %d, ready %d) filed in pipe %d bucket %d" !s c.sl_pipe.(!s) r
                p.id b;
            incr chained;
            s := c.sl_next.(!s)
          done)
        pipes;
      if !chained <> c.due.(b) then fail "bucket %d chains %d slots, counted %d" b !chained c.due.(b)
    end
  done;
  let far_min = ref max_int in
  for i = 0 to c.far_n - 1 do
    visit_filed c.far.(i);
    far_min := imin !far_min c.sl_ready.(c.far.(i))
  done;
  if !far_min <> c.far_min then fail "far list minimum %d, recorded %d" !far_min c.far_min;
  if c.fresh_n <> 0 then fail "%d stalled slots not filed" c.fresh_n;
  let stalled = ref 0 in
  Array.iter
    (fun p ->
      let a = c.st.(p.id) in
      for i = 0 to c.st_n.(p.id) - 1 do
        let s = a.(i) in
        visit s;
        if c.sl_stalled.(s) <> 1 || c.sl_pipe.(s) <> p.id then
          fail "slot %d (pipe %d) on pipe %d's stalled list unflagged or misplaced" s c.sl_pipe.(s)
            p.id;
        if i > 0 && c.sl_q.(a.(i - 1)) >= c.sl_q.(s) then
          fail "pipe %d's stalled list is out of admission order at slot %d" p.id s;
        let least = c.st_min.(p.id) in
        if least < 0 || c.sl_stalled.(least) <> 1 || c.sl_pipe.(least) <> p.id
           || Engine.compare_index en c.sl_task.(s) c.sl_task.(least) < 0
        then fail "pipe %d's least stalled index is not at slot %d" p.id least;
        incr stalled
      done)
    pipes;
  let flagged = Array.fold_left ( + ) 0 c.sl_stalled in
  if !stalled <> c.stalled || flagged <> c.stalled then
    fail "%d slots on stalled lists, %d flagged, %d counted" !stalled flagged c.stalled;
  Array.iter
    (fun p ->
      if per_pipe.(p.id) <> p.n then fail "pipe %d holds %d tasks, %d filed" p.id p.n per_pipe.(p.id))
    pipes;
  let occupancy = Array.fold_left (fun acc p -> acc + p.n) 0 pipes in
  let occupied = Array.fold_left (fun acc tk -> if Engine.is_nil tk then acc else acc + 1) 0 c.sl_task in
  if occupancy <> c.live || occupied <> c.live then
    fail "pipelines hold %d tasks, %d slots are occupied, %d live" occupancy occupied c.live;
  let occ = sc.occ_seen and full = ref 0 in
  Array.fill occ 0 (Array.length occ) 0;
  Array.iter
    (fun p ->
      if p.n > 0 then occ.(p.set) <- occ.(p.set) + 1;
      if p.n >= p.capacity then incr full)
    pipes;
  for set = 0 to Array.length c.occ - 1 do
    if occ.(set) <> c.occ.(set) then
      fail "set %d has %d occupied pipelines, counted %d" set occ.(set) c.occ.(set)
  done;
  if !full <> c.full then fail "%d pipelines are full, counted %d" !full c.full;
  let v = Engine.view en in
  let queued = Array.fold_left ( + ) 0 v.Engine.pending_in in
  if queued <> v.Engine.pending then
    fail "the engine counts %d pending tasks, its queues hold %d" v.Engine.pending queued

(* every pipeline is charged exactly once per cycle: by cycle [upto],
   the set in slot [s] holds [upto x width.(s)] pipeline-cycles *)
let check_charged attr (spec : Spec.t) width ~upto =
  List.iteri
    (fun slot (ts : Spec.task_set) ->
      let charged = Attribution.set_total attr ~slot in
      if charged <> upto * width.(slot) then
        failwith
          (Printf.sprintf
             "Accelerator.run: set %s charged %d pipeline-cycles by cycle %d, not %d x %d"
             ts.Spec.ts_name charged upto upto width.(slot)))
    spec.Spec.task_sets

let simulate ?(config = Config.default) ?(sink = Sink.null) ?timeline ~spec ~bindings ~state
    ~initial () =
  let wall_start = Unix.gettimeofday () in
  let en = Engine.create spec bindings state in
  let v = Engine.view en in
  let prog = Engine.program en in
  let graph = Bdfg.of_program prog in
  let cfg =
    if config.Config.pipelines = [] then
      Config.with_pipelines config (Resource.heuristic_pipelines spec graph ~max_per_set:8)
    else config
  in
  let n_sets = prog.Opcode.n_sets in
  let mem = Memory.create ~sink cfg in
  let arr_base = Engine.array_bases en in
  let trace_addr i = State.trace_addr state i and trace_write i = State.trace_is_write state i in
  let prim_lat =
    Array.map
      (fun name -> Option.value ~default:4 (List.assoc_opt name cfg.Config.prim_latency))
      prog.Opcode.prim_names
  in
  List.iter (fun (set, payload) -> Engine.push_initial en set payload) initial;
  let next_pipe = ref 0 in
  let pipes =
    List.concat_map
      (fun (ts : Spec.task_set) ->
        let set_name = ts.Spec.ts_name in
        let stage_ops = Bdfg.stage_count graph set_name in
        let capacity = imax 4 (stage_ops * cfg.Config.window_factor) in
        List.init (Config.pipeline_count cfg set_name) (fun _ ->
            let id = !next_pipe in
            incr next_pipe;
            {
              set = Spec.task_set_slot spec set_name;
              set_name;
              id;
              capacity;
              stage_ops;
              n = 0;
              stepped = false;
            }))
      spec.Spec.task_sets
    |> Array.of_list
  in
  let n_pipes = Array.length pipes in
  (* set [s] owns pipelines [first_pipe.(s)] .. [first_pipe.(s) + width.(s) - 1] *)
  let first_pipe = Array.make (imax n_sets 1) (-1) in
  let width = Array.make (imax n_sets 1) 0 in
  Array.iter
    (fun p ->
      if first_pipe.(p.set) < 0 then first_pipe.(p.set) <- p.id;
      width.(p.set) <- width.(p.set) + 1)
    pipes;
  let total_stage_ops = Array.fold_left (fun acc p -> acc + p.stage_ops) 0 pipes in
  begin
    match timeline with
    | Some tl -> Timeline.start tl ~total_stage_ops ~bytes_per_cycle:(Config.bytes_per_cycle cfg)
    | None -> ()
  end;
  let instrumented = Sink.enabled sink in
  let checked = Engine.checked en in
  let attr = Attribution.create (List.map (fun ts -> ts.Spec.ts_name) spec.Spec.task_sets) in
  let sq_set = Vec.create () and sq_ops = Vec.create () in
  let pops_left = Array.make (imax n_sets 1) 0 in
  (* the pipelines stepped this scan, and per set how many of them
     stepped and how many of those still hold a task *)
  let stepped = Array.make (imax n_pipes 1) 0 and n_stepped = ref 0 in
  let busy_n = Array.make (imax n_sets 1) 0 and busy_occ = Array.make (imax n_sets 1) 0 in
  let cal =
    calendar_create ~n_pipes ~n_sets
      ~slots:(Array.fold_left (fun acc p -> acc + p.capacity + 4) 0 pipes)
  in
  let cycle = ref 0 in
  let active_op_cycles = ref 0 in
  let peak_in_flight = ref 0 in
  let sample () =
    let mst = Memory.stats mem in
    {
      Timeline.in_flight = cal.live;
      pending = v.Engine.pending;
      active_ops = !active_op_cycles;
      mem_hits = mst.Memory.hits;
      mem_misses = mst.Memory.misses;
      link_bytes = mst.Memory.bytes_over_link;
    }
  in
  let dispatch p tk ~now =
    if instrumented then
      Sink.emit sink ~ts:now
        (Event.Task_dispatch
           {
             set = p.set_name;
             pipe = p.id;
             tid = Engine.task_tid en tk;
             index = Index.to_array (Engine.task_index en tk);
           })
  in
  (* the allocator reserves a priority lane for the minimum uncommitted
     task (the liveness argument of §4.2.1 under finite rule lanes) *)
  let lanes = cfg.Config.rule_lanes in
  let must_stall_alloc tk =
    v.Engine.live >= lanes
    &&
    let mu = Engine.min_uncommitted en in
    (not (Engine.is_nil mu)) && Engine.compare_index en tk mu <> 0
  in
  (* a resumed task re-enters the least occupied pipeline of its set at
     the next cycle, so its window first holds it at the next scan *)
  let place_resumed ~now ~scan =
    for i = 0 to v.Engine.resumed - 1 do
      let w = Engine.resumed_get en i in
      let set = Engine.task_set en w in
      let best = ref (-1) in
      for pi = first_pipe.(set) to first_pipe.(set) + width.(set) - 1 do
        if !best < 0 || pipes.(pi).n < pipes.(!best).n then best := pi
      done;
      if !best < 0 then
        invalid_arg
          (Printf.sprintf "Accelerator.run: no pipeline for a resumed task of set %s"
             (List.nth spec.Spec.task_sets set).Spec.ts_name);
      let p = pipes.(!best) in
      if instrumented then
        Sink.emit sink ~ts:now
          (Event.Rendezvous_resume { set = p.set_name; tid = Engine.task_tid en w });
      dispatch p w ~now:(now + 1);
      admit cal p w ~ready:(now + 1) ~e:(scan + 1) ~now
    done
  in
  (* cycles until the task that just stepped is ready again, from the
     op's latency class *)
  let latency rc ~now =
    if rc = Engine.lc_unit then 1
    else if rc = Engine.lc_load then
      let addr = arr_base.(v.Engine.touched_arr) + (8 * v.Engine.touched_idx) in
      imax 1 (Memory.access mem ~now ~addr ~is_write:false - now)
    else if rc = Engine.lc_store then begin
      (* posted write: the task proceeds next cycle while the line
         transfer still occupies cache and link *)
      let addr = arr_base.(v.Engine.touched_arr) + (8 * v.Engine.touched_idx) in
      ignore (Memory.access mem ~now ~addr ~is_write:true);
      1
    end
    else if rc = Engine.lc_push_iter then imax 1 v.Engine.touched_idx
    else begin
      (* the accesses the prim's kernel reported, issued as one burst *)
      let completion =
        Memory.access_burst mem ~now ~n:(State.trace_length state) ~addr:trace_addr
          ~is_write:trace_write
      in
      State.clear_trace state;
      imax prim_lat.(v.Engine.touched_arr) (completion - now)
    end
  in
  let any_finish = ref false in
  (* execute one op of task [f], in flight in slot [s] of pipeline [p] *)
  let exec_slot p s f ~now =
    if checked then Engine.check_step en f;
    let tid = if instrumented then Engine.task_tid en f else 0 in
    let rc = Engine.step en f in
    incr active_op_cycles;
    if not p.stepped then begin
      p.stepped <- true;
      stepped.(!n_stepped) <- p.id;
      incr n_stepped
    end;
    if rc < Engine.lc_blocked then begin
      cal.sl_ops.(s) <- cal.sl_ops.(s) + 1;
      cal.sl_ready.(s) <- now + latency rc ~now;
      file cal s ~now
    end
    else begin
      if rc = Engine.lc_blocked then begin
        if instrumented then
          Sink.emit sink ~ts:now (Event.Rendezvous_park { set = p.set_name; pipe = p.id; tid })
      end
      else begin
        if rc <> Engine.lc_committed then begin
          Vec.push sq_set p.set;
          Vec.push sq_ops (cal.sl_ops.(s) + 1)
        end;
        if instrumented then
          Sink.emit sink ~ts:now
            (Event.Task_finish
               { set = p.set_name; pipe = p.id; tid; outcome = Engine.outcome_of_class rc })
      end;
      release cal p s;
      any_finish := true
    end
  in
  (* execute one op of the task in slot [s] of pipeline [p], or stall it
     at the rule-engine allocator.  The op at its pc matters only when
     the lanes are full (an [Alloc] may stall), so it is looked up only
     then. *)
  let step_slot p s ~now =
    let f = cal.sl_task.(s) in
    if v.Engine.live < lanes then exec_slot p s f ~now
    else
      match prog.Opcode.code.(Engine.task_pc en f) with
      | Opcode.I_alloc _ when must_stall_alloc f -> stall cal s
      | _ -> exec_slot p s f ~now
  in
  let stall_rechecks = ref 0 in
  (* whether [must_stall_alloc] surely holds for every stalled slot of
     [p]: the lanes are taken and the least index among them is above
     the minimum uncommitted task's, so none ties with it.  Otherwise
     (or once the least one has stepped off the list) the slots are
     tested one by one. *)
  let stalled_blocked p =
    incr stall_rechecks;
    v.Engine.live >= lanes
    && cal.sl_stalled.(cal.st_min.(p.id)) = 1
    &&
    let mu = Engine.min_uncommitted en in
    (not (Engine.is_nil mu)) && Engine.compare_index en cal.sl_task.(cal.st_min.(p.id)) mu > 0
  in
  (* Step pipeline [p]'s slots due now and, where [drain]'s order puts
     them among those, its stalled slots.  A stalled slot only waits:
     testing it again changes nothing until some slot steps.  So the
     stalled slots are passed over untested while [stalled_blocked]
     holds; once it fails they are laid out in step order, and from
     then on each is tested in its turn, as if it had been drained with
     the due slots, up to the next step that blocks them again. *)
  let step_pipe p ~now ~scan =
    let nd = drain cal p.id ~now ~scan in
    if cal.st_n.(p.id) = 0 then
      for i = 0 to nd - 1 do
        step_slot p cal.ds.(i) ~now
      done
    else begin
      let nm = ref (-1) and j = ref 0 in
      for i = 0 to nd do
        let open_ = ref (not (stalled_blocked p)) in
        if !open_ && !nm < 0 then begin
          nm := layout_stalled cal p.id ~scan;
          (* the ones before the last stepped slot were blocked *)
          if i > 0 then
            while !j < !nm && cal.mk.(!j) < cal.dk.(i - 1) do
              incr j
            done
        end;
        if !nm >= 0 then begin
          let key = if i < nd then cal.dk.(i) else max_int in
          while !j < !nm && cal.mk.(!j) < key do
            let s = cal.ms.(!j) in
            let f = cal.sl_task.(s) in
            incr j;
            if !open_ then begin
              incr stall_rechecks;
              if not (must_stall_alloc f) then begin
                cal.sl_stalled.(s) <- 0;
                step_slot p s ~now;
                open_ := not (stalled_blocked p)
              end
            end
          done
        end;
        if i < nd then step_slot p cal.ds.(i) ~now
      done;
      if !nm >= 0 then compact_stalled cal en p.id
    end
  in
  let scan = ref 0 in
  let cycle_budget = 50_000_000 in
  let minor_start = Gc.minor_words () in
  let scratch = scratch_create ~n_pipes ~n_sets in
  while remaining v do
    (* a scan is one iteration of this loop, however many cycles the
       event wheel then skips *)
    incr scan;
    if !scan > cycle_budget then raise (Engine.Step_limit_exceeded cycle_budget);
    let now = !cycle and scan = !scan in
    if cal.far_min - now < wheel_size then migrate cal ~now;
    (* 1. issue: each pipeline may accept one task per cycle, capped by
       queue bank bandwidth per set.  Once a set's queue is empty or its
       pops are spent, its later pipelines issue nothing, so they are
       skipped, unless the sink is on: then every full pipeline still
       reports [Queue_full] while any task is pending. *)
    for set = 0 to n_sets - 1 do
      pops_left.(set) <- cfg.Config.queue_banks;
      let pi = ref first_pipe.(set) and last = first_pipe.(set) + width.(set) - 1 in
      while
        !pi <= last && (instrumented || (pops_left.(set) > 0 && v.Engine.pending_in.(set) > 0))
      do
        let p = pipes.(!pi) in
        let left = pops_left.(set) in
        if p.n >= p.capacity then begin
          if instrumented && v.Engine.pending > 0 then
            Sink.emit sink ~ts:now (Event.Queue_full { set = p.set_name; pipe = p.id })
        end
        else if left > 0 then begin
          let tk = Engine.pop_task en set in
          if not (Engine.is_nil tk) then begin
            pops_left.(set) <- left - 1;
            dispatch p tk ~now;
            admit cal p tk ~ready:now ~e:scan ~now
          end
        end;
        incr pi
      done
    done;
    (* priority admission: the globally minimum task must always reach
       the rule engines, even through a full window.  It is the head of
       a queue, so it is pending, never already in flight. *)
    if v.Engine.pending > 0 then begin
      let head = Engine.min_pending_head en in
      let mu = Engine.min_uncommitted en in
      if (mu :> int) >= 0 && Engine.compare_index en head mu = 0 then begin
        let tk = Engine.pop_task en (Engine.task_set en head) in
        if not (Engine.is_nil tk) then begin
          if checked && Array.exists (fun f -> f = tk) cal.sl_task then
            failwith
              (Printf.sprintf
                 "Accelerator.run: cycle %d: priority admission of task %d, already in flight" now
                 (Engine.task_tid en tk));
          let p = pipes.(first_pipe.(Engine.task_set en tk)) in
          dispatch p tk ~now;
          admit cal p tk ~ready:now ~e:scan ~now
        end
      end
    end;
    peak_in_flight := imax !peak_in_flight cal.live;
    (* 2. execute one op for every in-flight task due this cycle; only
       the pipelines whose bucket for this cycle holds a slot (or that
       hold stalled slots) are visited.  A step files its slot at a
       later cycle, never in this bucket. *)
    any_finish := false;
    let b = now land wheel_mask in
    if cal.stalled > 0 then
      for pi = 0 to n_pipes - 1 do
        if cal.st_n.(pi) > 0 || cal.wheel.((pi lsl wheel_bits) lor b) >= 0 then
          step_pipe pipes.(pi) ~now ~scan
      done
    else if cal.due.(b) > 0 then
      for pi = 0 to n_pipes - 1 do
        if cal.wheel.((pi lsl wheel_bits) lor b) >= 0 then begin
          let p = pipes.(pi) in
          for i = 0 to drain cal pi ~now ~scan - 1 do
            step_slot p cal.ds.(i) ~now
          done
        end
      done;
    if cal.fresh_n > 0 then file_stalled cal en;
    if !any_finish then Engine.resolve_pending en;
    (* 3. wake resolved rendezvous back into their pipelines *)
    Engine.resume_ready en;
    let n_resumed = v.Engine.resumed in
    if n_resumed > 0 then place_resumed ~now ~scan;
    (* 4. advance time: fast-forward to the next ready timestamp when
       everything in flight is waiting out latency (the event wheel); a
       stalled slot is tested again next cycle *)
    let can_issue = v.Engine.pending > 0 && cal.full < n_pipes in
    let next =
      if can_issue || n_resumed > 0 || cal.live = 0 || cal.stalled > 0 then now + 1
      else imax (now + 1) (next_due cal ~now)
    in
    (* stall attribution: charge each pipeline exactly (next - now)
       cycles so the buckets decompose cycles x pipelines.  This cycle
       a pipeline is busy if it stepped, else a memory stall if it
       holds a task; the rest of its set share one class, read off the
       set.  The skipped cycles charge every occupied pipeline a memory
       stall and the rest the set's wait class (rendezvous or idle). *)
    let skipped = next - now - 1 in
    let pending_now = v.Engine.pending in
    for k = 0 to !n_stepped - 1 do
      let p = pipes.(stepped.(k)) in
      busy_n.(p.set) <- busy_n.(p.set) + 1;
      if p.n > 0 then busy_occ.(p.set) <- busy_occ.(p.set) + 1;
      p.stepped <- false
    done;
    n_stepped := 0;
    for set = 0 to n_sets - 1 do
      let occ = cal.occ.(set) and busy = busy_n.(set) in
      let mem = occ - busy_occ.(set) in
      let parked = v.Engine.parked_in.(set) > 0 in
      let wait = if parked then Attribution.Rendezvous_stall else Attribution.Idle in
      let rest =
        if (not parked) && pending_now > 0 && pops_left.(set) = 0 then Attribution.Queue_full
        else wait
      in
      Attribution.charge attr ~slot:set Attribution.Busy busy;
      Attribution.charge attr ~slot:set Attribution.Mem_stall (mem + (occ * skipped));
      Attribution.charge attr ~slot:set rest (width.(set) - busy - mem);
      if skipped > 0 then Attribution.charge attr ~slot:set wait ((width.(set) - occ) * skipped);
      busy_n.(set) <- 0;
      busy_occ.(set) <- 0
    done;
    (* squash reclassification, newest first; clamped to the busy
       balance accrued so far *)
    for i = Vec.length sq_set - 1 downto 0 do
      ignore
        (Attribution.reclassify attr ~slot:(Vec.get sq_set i) ~src:Attribution.Busy
           ~dst:Attribution.Squash_waste (Vec.get sq_ops i))
    done;
    Vec.clear sq_set;
    Vec.clear sq_ops;
    (* deadlock detection *)
    if (not can_issue) && cal.live = 0 && n_resumed = 0 && remaining v then begin
      Engine.resolve_pending en;
      Engine.resume_ready en;
      if v.Engine.resumed = 0 then begin
        if Engine.deadlocked en then
          raise
            (Engine.Deadlock
               (Printf.sprintf
                  "Accelerator.run: deadlock in rule resolution at cycle %d: %d parked tasks, \
                   minimum waiting index %s"
                  now v.Engine.parked
                  (Agp_core.Index.to_string (Engine.task_index en (Engine.waiting_min en)))))
      end
      else place_resumed ~now ~scan
    end;
    if checked then begin
      Engine.check_invariants en;
      check_calendar cal en scratch pipes ~now;
      check_charged attr spec width ~upto:next
    end;
    begin
      match timeline with
      | Some tl when Timeline.due tl ~upto:next ->
          Timeline.tick tl ~upto:next (sample ())
      | Some _ | None -> ()
    end;
    cycle := next
  done;
  if checked then
    (* again at run end, against the configured widths *)
    check_charged attr spec
      (Array.of_list
         (List.map (fun ts -> Config.pipeline_count cfg ts.Spec.ts_name) spec.Spec.task_sets))
      ~upto:!cycle;
  let minor_words = Gc.minor_words () -. minor_start in
  begin
    match timeline with
    | Some tl ->
        Timeline.finish tl ~cycles:!cycle (sample ())
    | None -> ()
  end;
  (* simulator throughput: host wall clock, not simulated time — the
     signal the CI ratchet and the cost-model calibration consume *)
  let wall_seconds = Float.max 1e-9 (Unix.gettimeofday () -. wall_start) in
  let cycles = !cycle in
  let st = Memory.stats mem in
  {
    cycles;
    seconds = Config.cycles_to_seconds cfg cycles;
    wall_seconds;
    sim_cycles_per_sec = float_of_int cycles /. wall_seconds;
    minor_words_per_cycle = (if cycles = 0 then 0.0 else minor_words /. float_of_int cycles);
    utilization =
      (if cycles = 0 || total_stage_ops = 0 then 0.0
       else float_of_int !active_op_cycles /. float_of_int (cycles * total_stage_ops));
    engine_stats = Engine.stats en;
    mem_reads = st.Memory.reads;
    mem_writes = st.Memory.writes;
    mem_hit_rate = Memory.hit_rate mem;
    bytes_over_link = st.Memory.bytes_over_link;
    peak_in_flight = !peak_in_flight;
    pipelines =
      List.map
        (fun ts -> (ts.Spec.ts_name, Config.pipeline_count cfg ts.Spec.ts_name))
        spec.Spec.task_sets;
    attribution = attr;
    stall_rechecks = !stall_rechecks;
  }

(* only prim kernels write the access stream, so it is on for the
   whole run *)
let run ?config ?sink ?timeline ~spec ~bindings ~state ~initial () =
  State.with_tracing state (fun () ->
      simulate ?config ?sink ?timeline ~spec ~bindings ~state ~initial ())

let config_json (cfg : Config.t) =
  [
    ("clock_mhz", Json.Float cfg.Config.clock_mhz);
    ("cache_bytes", Json.Int cfg.Config.cache_bytes);
    ("line_bytes", Json.Int cfg.Config.line_bytes);
    ("hit_latency", Json.Int cfg.Config.hit_latency);
    ("miss_latency", Json.Int cfg.Config.miss_latency);
    ("qpi_gbps", Json.Float cfg.Config.qpi_gbps);
    ("rule_lanes", Json.Int cfg.Config.rule_lanes);
    ("mlp", Json.Int cfg.Config.mlp);
    ("queue_banks", Json.Int cfg.Config.queue_banks);
    ("window_factor", Json.Int cfg.Config.window_factor);
    ("pipelines", Json.Obj (List.map (fun (set, n) -> (set, Json.Int n)) cfg.Config.pipelines));
  ]

let metrics_registry ?spans (r : report) =
  let reg = Metrics.create () in
  let c name v = Metrics.add (Metrics.counter reg name) v in
  let g name v = Metrics.set (Metrics.gauge reg name) v in
  let es = r.engine_stats in
  c "accel.cycles" r.cycles;
  c "tasks.activated" es.Engine.activated;
  c "tasks.committed" es.Engine.committed;
  c "tasks.aborted" es.Engine.aborted;
  c "tasks.retried" es.Engine.retried;
  c "tasks.ops_executed" es.Engine.ops_executed;
  c "mem.reads" r.mem_reads;
  c "mem.writes" r.mem_writes;
  c "mem.bytes_over_link" r.bytes_over_link;
  c "accel.peak_in_flight" r.peak_in_flight;
  g "accel.seconds" r.seconds;
  g "accel.utilization" r.utilization;
  (* accel.wall_seconds deliberately stays out of the registry: it is
     host noise and the "seconds" diff token would gate it downward.
     The throughput form carries its own higher-is-better token. *)
  g "accel.sim_cycles_per_sec" r.sim_cycles_per_sec;
  g "accel.minor_words_per_cycle" r.minor_words_per_cycle;
  g "mem.hit_rate" r.mem_hit_rate;
  Option.iter
    (fun spans -> ignore (Lifecycle.histogram reg ~name:"task.lifetime.cycles" spans))
    spans;
  reg

let obs_report ?(app = "unknown") ?events ?timeline ~config (r : report) =
  (* one pass over the event list feeds both the lifecycle section and
     the lifetime histogram *)
  let spans = Option.map Lifecycle.spans events in
  let lifecycle =
    match spans with
    | None -> []
    | Some (spans, unfinished) -> [ ("lifecycle", Lifecycle.section spans ~unfinished) ]
  in
  let timeline_section =
    match timeline with
    | None -> []
    | Some tl ->
        [
          ( "timeline",
            Json.Obj
              [
                ("summary", Timeline.summary_json tl);
                ( "samples",
                  match Timeline.to_json tl with
                  | Json.Obj kvs -> Option.value ~default:Json.Null (List.assoc_opt "samples" kvs)
                  | _ -> Json.Null );
              ] );
        ]
  in
  Report.v ~kind:"accelerator-run" ~app ~meta:(config_json config)
    ~sections:
      ([
         ("metrics", Metrics.to_json (metrics_registry ?spans:(Option.map fst spans) r));
         ("attribution", Attribution.to_json r.attribution);
       ]
      @ lifecycle @ timeline_section)
    ()
