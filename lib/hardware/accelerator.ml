(* The cycle simulator: a timing shell around the ECA core
   ({!Agp_core.Engine}).  The core executes operations and reports each
   one's latency class; the shell owns everything that is time —
   replicated pipelines with bounded windows, queue-bank issue, the
   memory model, the rule-lane allocator stall, the event wheel that
   skips idle cycles, and per-cycle stall attribution.

   Pipeline windows, the squash log and the attribution matrix are flat
   preallocated arrays, so the steady-state loop allocates nothing. *)

module Engine = Agp_core.Engine
module Spec = Agp_core.Spec
module State = Agp_core.State
module Opcode = Agp_core.Opcode
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
}

(* One replicated pipeline.  The window holds the in-flight tasks in
   parallel arrays: the task, the cycle it is ready for its next op,
   and the stage occupancies it has consumed. *)
type pipe = {
  set : int;
  set_name : string;
  id : int;
  capacity : int;
  stage_ops : int;
  mutable win : Engine.task array;
  mutable rdy : int array;
  mutable ops : int array;
  mutable n : int;
  mutable stepped : bool; (* advanced at least one op this cycle *)
}

let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

(* admit a task at the head of the window *)
let pipe_prepend p tk ~ready =
  if p.n = Array.length p.win then begin
    let cap = imax 8 (2 * p.n) in
    let grow a x =
      let b = Array.make cap x in
      Array.blit a 0 b 0 p.n;
      b
    in
    p.win <- grow p.win Engine.nil_task;
    p.rdy <- grow p.rdy 0;
    p.ops <- grow p.ops 0
  end;
  Array.blit p.win 0 p.win 1 p.n;
  Array.blit p.rdy 0 p.rdy 1 p.n;
  Array.blit p.ops 0 p.ops 1 p.n;
  p.win.(0) <- tk;
  p.rdy.(0) <- ready;
  p.ops.(0) <- 0;
  p.n <- p.n + 1

(* attribution bucket codes inside the flat matrix, in
   [Attribution.buckets] order *)
let b_busy = 0

let b_mem = 1

let b_rdv = 2

let b_queue = 3

let b_squash = 4

let b_idle = 5

let run ?(config = Config.default) ?(auto_size = true) ?(sink = Sink.null) ?timeline ~spec
    ~bindings ~state ~initial () =
  let cfg =
    if config.Config.pipelines = [] && auto_size then
      Config.with_pipelines config (Resource.heuristic_pipelines spec ~max_per_set:8)
    else config
  in
  let wall_start = Unix.gettimeofday () in
  let graph = Bdfg.of_spec spec in
  (* the shell turns state tracing on only around prim steps, to
     collect the accesses a prim kernel makes *)
  State.set_tracing state false;
  let en = Engine.create spec bindings state in
  let prog = Engine.program en in
  let n_sets = prog.Opcode.n_sets in
  let mem = Memory.create ~sink cfg in
  let arr_base =
    Array.map
      (fun name -> if State.has_array state name then State.address_of state name 0 else 0)
      prog.Opcode.array_names
  in
  let base_memo = Hashtbl.create 16 in
  let base_of name =
    match Hashtbl.find_opt base_memo name with
    | Some b -> b
    | None ->
        let b = State.address_of state name 0 in
        Hashtbl.add base_memo name b;
        b
  in
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
              win = Array.make (capacity + 4) Engine.nil_task;
              rdy = Array.make (capacity + 4) 0;
              ops = Array.make (capacity + 4) 0;
              n = 0;
              stepped = false;
            }))
      spec.Spec.task_sets
    |> Array.of_list
  in
  let n_pipes = Array.length pipes in
  let first_pipe = Array.make (imax n_sets 1) (-1) in
  Array.iter (fun p -> if first_pipe.(p.set) < 0 then first_pipe.(p.set) <- p.id) pipes;
  let total_stage_ops = Array.fold_left (fun acc p -> acc + p.stage_ops) 0 pipes in
  begin
    match timeline with
    | Some tl -> Timeline.start tl ~total_stage_ops ~bytes_per_cycle:(Config.bytes_per_cycle cfg)
    | None -> ()
  end;
  let instrumented = Sink.enabled sink in
  let matrix = Array.make (imax 1 (n_sets * 6)) 0 in
  let charge set b n = matrix.((set * 6) + b) <- matrix.((set * 6) + b) + n in
  let sq_set = Vec.create () and sq_ops = Vec.create () in
  let pops_left = Array.make (imax n_sets 1) 0 in
  (* survivors kept so far in the window being stepped; slot !kept is
     never ahead of the slot being read *)
  let kept = ref 0 in
  let keep p f ~ready ~ops =
    let j = !kept in
    p.win.(j) <- f;
    p.rdy.(j) <- ready;
    p.ops.(j) <- ops;
    kept := j + 1
  in
  let cycle = ref 0 in
  let active_op_cycles = ref 0 in
  let peak_in_flight = ref 0 in
  let in_flight_count () = Array.fold_left (fun acc p -> acc + p.n) 0 pipes in
  let sample () =
    let mst = Memory.stats mem in
    {
      Timeline.in_flight = in_flight_count ();
      pending = Engine.pending_count en;
      active_ops = !active_op_cycles;
      mem_hits = mst.Memory.hits;
      mem_misses = mst.Memory.misses;
      link_bytes = mst.Memory.bytes_over_link;
    }
  in
  let dispatch p tk ~now =
    if instrumented then
      Sink.emit sink ~ts:now
        (Event.Task_dispatch { set = p.set_name; pipe = p.id; tid = Engine.task_tid tk })
  in
  (* the allocator reserves a priority lane for the minimum uncommitted
     task (the liveness argument of §4.2.1 under finite rule lanes) *)
  let must_stall_alloc tk =
    Engine.live_rule_count en >= cfg.Config.rule_lanes
    &&
    let mu = Engine.min_uncommitted en in
    (not (Engine.is_nil mu)) && Engine.compare_index tk mu <> 0
  in
  let place_resumed ~now =
    for i = 0 to Engine.resumed_count en - 1 do
      let w = Engine.resumed_get en i in
      let set = Engine.task_set w in
      let best = ref (-1) in
      for pi = 0 to n_pipes - 1 do
        let p = pipes.(pi) in
        if p.set = set && (!best < 0 || p.n < pipes.(!best).n) then best := pi
      done;
      if !best < 0 then failwith "Accelerator.run: no pipeline for resumed task";
      let p = pipes.(!best) in
      if instrumented then
        Sink.emit sink ~ts:now
          (Event.Rendezvous_resume { set = p.set_name; tid = Engine.task_tid w });
      dispatch p w ~now:(now + 1);
      pipe_prepend p w ~ready:(now + 1)
    done
  in
  (* cycles until the task that just stepped is ready again, from the
     op's latency class *)
  let latency rc ~now =
    if rc = Engine.lc_unit then 1
    else if rc = Engine.lc_load then
      let addr = arr_base.(Engine.touched_array en) + (8 * Engine.touched_index en) in
      imax 1 (Memory.access mem ~now ~addr ~is_write:false - now)
    else if rc = Engine.lc_store then begin
      (* posted write: the task proceeds next cycle while the line
         transfer still occupies cache and link *)
      let addr = arr_base.(Engine.touched_array en) + (8 * Engine.touched_index en) in
      ignore (Memory.access mem ~now ~addr ~is_write:true);
      1
    end
    else if rc = Engine.lc_push_iter then imax 1 (Engine.touched_index en)
    else begin
      (* the prim's traced accesses, issued as one independent burst *)
      let addrs =
        List.map
          (fun a -> (base_of a.State.array_name + (8 * a.State.index), a.State.is_write))
          (State.drain_trace state)
      in
      let completion = Memory.access_burst mem ~now ~addrs ~dependent:false in
      imax prim_lat.(Engine.touched_array en) (completion - now)
    end
  in
  let guard = ref 0 in
  let cycle_budget = 50_000_000 in
  let checked = Engine.checked en in
  (* hoisted per-cycle scratch: a [ref] inside the loop body would
     allocate every iteration *)
  let any_finish = ref false in
  let next_ready = ref max_int in
  let in_window = ref false in
  let minor_start = Gc.minor_words () in
  while Engine.uncommitted_remaining en do
    incr guard;
    if !guard > cycle_budget then raise (Engine.Step_limit_exceeded cycle_budget);
    let now = !cycle in
    (* 1. issue: each pipeline may accept one task per cycle, capped by
       queue bank bandwidth per set *)
    Array.fill pops_left 0 (Array.length pops_left) cfg.Config.queue_banks;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let left = pops_left.(p.set) in
      if p.n >= p.capacity then begin
        if instrumented && Engine.pending_count en > 0 then
          Sink.emit sink ~ts:now (Event.Queue_full { set = p.set_name; pipe = p.id })
      end
      else if left > 0 then begin
        let tk = Engine.pop_task en p.set in
        if not (Engine.is_nil tk) then begin
          pops_left.(p.set) <- left - 1;
          dispatch p tk ~now;
          pipe_prepend p tk ~ready:now
        end
      end
    done;
    (* priority admission: the globally minimum task must always reach
       the rule engines, even through a full window *)
    begin
      let head = Engine.min_pending_head en in
      let mu = Engine.min_uncommitted en in
      if
        (not (Engine.is_nil head))
        && (not (Engine.is_nil mu))
        && Engine.compare_index head mu = 0
      then begin
        in_window := false;
        for pi = 0 to n_pipes - 1 do
          let p = pipes.(pi) in
          for i = 0 to p.n - 1 do
            if p.win.(i) == head then in_window := true
          done
        done;
        if not !in_window then begin
          let tk = Engine.pop_task en (Engine.task_set head) in
          if not (Engine.is_nil tk) then begin
            let p = pipes.(first_pipe.(Engine.task_set tk)) in
            dispatch p tk ~now;
            pipe_prepend p tk ~ready:now
          end
        end
      end
    end;
    peak_in_flight := imax !peak_in_flight (in_flight_count ());
    (* 2. execute one op for every ready in-flight task *)
    any_finish := false;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      (* survivors are compacted in place in visit order, then the kept
         prefix is reversed: the newest-visited survivor heads the
         window *)
      let old_n = p.n in
      kept := 0;
      for i = 0 to old_n - 1 do
        let f = p.win.(i) in
        if p.rdy.(i) > now then keep p f ~ready:p.rdy.(i) ~ops:p.ops.(i)
        else begin
          match prog.Opcode.code.(Engine.task_pc f) with
          | Opcode.I_alloc _ when must_stall_alloc f ->
              (* stall at the rule-engine allocator *)
              keep p f ~ready:(now + 1) ~ops:p.ops.(i)
          | op -> begin
              let tid = if instrumented then Engine.task_tid f else 0 in
              let rc =
                match op with
                | Opcode.I_prim _ ->
                    State.set_tracing state true;
                    let rc = Engine.step en f in
                    State.set_tracing state false;
                    rc
                | _ -> Engine.step en f
              in
              incr active_op_cycles;
              p.stepped <- true;
              if rc < Engine.lc_blocked then
                keep p f ~ready:(now + latency rc ~now) ~ops:(p.ops.(i) + 1)
              else if rc = Engine.lc_blocked then begin
                if instrumented then
                  Sink.emit sink ~ts:now
                    (Event.Rendezvous_park { set = p.set_name; pipe = p.id; tid });
                any_finish := true
              end
              else begin
                if rc <> Engine.lc_committed then begin
                  Vec.push sq_set p.set;
                  Vec.push sq_ops (p.ops.(i) + 1)
                end;
                if instrumented then
                  Sink.emit sink ~ts:now
                    (Event.Task_finish
                       {
                         set = p.set_name;
                         pipe = p.id;
                         tid;
                         outcome =
                           (if rc = Engine.lc_committed then Event.Commit
                            else if rc = Engine.lc_aborted then Event.Abort
                            else Event.Retry);
                       });
                any_finish := true
              end
            end
        end
      done;
      let ns = !kept in
      for i = 0 to (ns / 2) - 1 do
        let k = ns - 1 - i in
        let f = p.win.(i) and r = p.rdy.(i) and o = p.ops.(i) in
        p.win.(i) <- p.win.(k);
        p.rdy.(i) <- p.rdy.(k);
        p.ops.(i) <- p.ops.(k);
        p.win.(k) <- f;
        p.rdy.(k) <- r;
        p.ops.(k) <- o
      done;
      for i = ns to old_n - 1 do
        p.win.(i) <- Engine.nil_task
      done;
      p.n <- ns
    done;
    if !any_finish then Engine.resolve_pending en;
    (* 3. wake resolved rendezvous back into their pipelines *)
    Engine.resume_ready en;
    let n_resumed = Engine.resumed_count en in
    place_resumed ~now;
    (* 4. advance time: fast-forward to the next ready timestamp when
       everything in flight is waiting out latency (the event wheel) *)
    next_ready := max_int;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      for i = 0 to p.n - 1 do
        if p.rdy.(i) < !next_ready then next_ready := p.rdy.(i)
      done
    done;
    (* manual loop: [Array.exists] allocates a closure per call *)
    let have_room = ref false in
    for pi = 0 to n_pipes - 1 do
      if pipes.(pi).n < pipes.(pi).capacity then have_room := true
    done;
    let can_issue = Engine.pending_count en > 0 && !have_room in
    let next =
      if can_issue || n_resumed > 0 then now + 1
      else if !next_ready < max_int then imax (now + 1) !next_ready
      else now + 1
    in
    (* stall attribution: charge each pipeline exactly (next - now)
       cycles so the buckets decompose cycles x pipelines *)
    let dt = next - now in
    let pending_now = Engine.pending_count en in
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let parked = Engine.waiting_in_set en p.set > 0 in
      let cls =
        if p.stepped then b_busy
        else if p.n > 0 then b_mem
        else if parked then b_rdv
        else if pending_now > 0 && pops_left.(p.set) = 0 then b_queue
        else b_idle
      in
      charge p.set cls 1;
      if dt > 1 then begin
        let wait_cls = if p.n > 0 then b_mem else if parked then b_rdv else b_idle in
        charge p.set wait_cls (dt - 1)
      end;
      p.stepped <- false
    done;
    (* squash reclassification, newest first; clamp to the busy balance
       accrued so far *)
    for i = Vec.length sq_set - 1 downto 0 do
      let set = Vec.get sq_set i and ops = Vec.get sq_ops i in
      let moved = imin ops matrix.((set * 6) + b_busy) in
      matrix.((set * 6) + b_busy) <- matrix.((set * 6) + b_busy) - moved;
      matrix.((set * 6) + b_squash) <- matrix.((set * 6) + b_squash) + moved
    done;
    Vec.clear sq_set;
    Vec.clear sq_ops;
    (* deadlock detection *)
    if (not can_issue) && !next_ready = max_int && n_resumed = 0 && Engine.uncommitted_remaining en
    then begin
      Engine.resolve_pending en;
      Engine.resume_ready en;
      if Engine.resumed_count en = 0 then begin
        if Engine.deadlocked en then
          raise
            (Engine.Deadlock
               (Printf.sprintf
                  "Accelerator.run: deadlock in rule resolution at cycle %d: %d parked tasks, \
                   minimum waiting index %s"
                  now (Engine.waiting_count en)
                  (Agp_core.Index.to_string (Engine.task_index (Engine.waiting_min en)))))
      end
      else place_resumed ~now
    end;
    if checked then Engine.check_invariants en;
    begin
      match timeline with
      | Some tl when Timeline.due tl ~upto:next ->
          Timeline.tick tl ~upto:next (sample ())
      | Some _ | None -> ()
    end;
    cycle := next
  done;
  let minor_words = Gc.minor_words () -. minor_start in
  begin
    match timeline with
    | Some tl ->
        Timeline.finish tl ~cycles:!cycle (sample ())
    | None -> ()
  end;
  (* replay the flat attribution matrix into an Attribution.t (sets in
     pipeline order) *)
  let attr = Attribution.create () in
  let seen = Array.make (imax n_sets 1) false in
  Array.iter
    (fun p ->
      if not seen.(p.set) then begin
        seen.(p.set) <- true;
        List.iteri
          (fun b bucket -> Attribution.charge attr ~set:p.set_name bucket matrix.((p.set * 6) + b))
          Attribution.buckets
      end)
    pipes;
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
  }

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

let attribution_json attr =
  let summary = Attribution.summary attr in
  Json.Obj
    (List.map
       (fun (set, bs) ->
         (set, Json.Obj (List.map (fun (b, n) -> (Attribution.bucket_name b, Json.Int n)) bs)))
       (Attribution.per_set attr)
    @ [
        ( "summary",
          Json.Obj
            [
              ("busy_frac", Json.Float summary.Attribution.busy_frac);
              ("mem_stall_frac", Json.Float summary.Attribution.mem_frac);
              ("rdv_stall_frac", Json.Float summary.Attribution.rendezvous_frac);
              ("queue_full_frac", Json.Float summary.Attribution.queue_frac);
              ("squash_frac", Json.Float summary.Attribution.squash_frac);
              ("idle_frac", Json.Float summary.Attribution.idle_frac);
            ] );
      ])

let metrics_registry ?events (r : report) =
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
  begin
    match events with
    | None -> ()
    | Some evs ->
        let spans, _ = Lifecycle.spans evs in
        ignore (Lifecycle.histogram reg ~name:"task.lifetime.cycles" spans)
  end;
  reg

let obs_report ?(app = "unknown") ?events ?timeline ~config (r : report) =
  let lifecycle =
    match events with
    | None -> []
    | Some evs ->
        let spans, unfinished = Lifecycle.spans evs in
        [
          ( "lifecycle",
            Json.Obj
              (("unfinished", Json.Int unfinished)
              :: [ ("sets", Lifecycle.to_json (Lifecycle.summarize spans)) ]) );
        ]
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
         ("metrics", Metrics.to_json (metrics_registry ?events r));
         ("attribution", attribution_json r.attribution);
       ]
      @ lifecycle @ timeline_section)
    ()
