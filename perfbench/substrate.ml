(* The in-process workloads: one application executed on the cycle
   simulator (Accelerator.run) or the software runtime (Semantics.run
   under the pipelined policy), over several instances whose seeds are
   derived from the run's seed.  Every sample is checked, and its
   fingerprint must equal every other sample's of the same instance,
   traced or not. *)

module W = Agp_exp.Workloads
module App = Agp_apps.App_instance
module Acc = Agp_hw.Accelerator
module Config = Agp_hw.Config
module Memory = Agp_hw.Memory
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics
module Sink = Agp_obs.Sink
module Event = Agp_obs.Event
module Timeline = Agp_obs.Timeline
module Attribution = Agp_obs.Attribution

type substrate = Simulator | Runtime

type spec = {
  app : string;
  scale : W.scale;
  substrate : substrate;
  instances : int;
  calib : Calib.t;  (* the unit of work that tracks the execute call *)
  setup_rounds : int;  (* times every instance is set up *)
  pass_s : float;  (* host seconds of one untraced pass over the instances *)
  traced_pass_s : float;  (* and of one traced pass *)
}

type instance = {
  seed : int;
  built : App.t;
  config : Config.t;  (* Backend.derive_config, as the simulator backend uses *)
  mutable spare : App.run option;  (* set-up's fresh run, used by the first sample *)
  mutable fingerprint : int array option;  (* the first sample's *)
}

type setup = { total_s : float; build_s : float; fresh_s : float; compile_s : float }

(* Instance 0 runs the seed itself, so its figures match [agp run --seed]. *)
let instance_seed seed i = seed + (7919 * i)

let setup spans s seed =
  let (inst, (build_s, fresh_s, compile_s)), total_s =
    Spans.time spans "setup" (fun () ->
        let built, build_s =
          Spans.time spans "workloads.build" (fun () ->
              match W.find s.app s.scale ~seed with
              | Ok app -> app
              | Error e -> failwith e)
        in
        let run, fresh_s = Spans.time spans "app.fresh" (fun () -> built.App.fresh ()) in
        let _, compile_s =
          Spans.time spans "opcode.compile" (fun () -> Agp_core.Opcode.compile built.App.spec)
        in
        let config = Agp_backend.Backend.derive_config built Config.default in
        ( { seed; built; config; spare = Some run; fingerprint = None },
          (build_s, fresh_s, compile_s) ))
  in
  (inst, { total_s; build_s; fresh_s; compile_s })

(* What a traced sample adds to an untraced one. *)
type trace = {
  events : int;  (* sink events or hook calls *)
  report_s : float;
  report_bytes : int;
  replay : (float * int) option;  (* ns per access, hit-flag mismatches *)
}

type detail = Sim of Acc.report | Stepper of Semantics.report * float  (* minor words *)

type sample = {
  seed : int;  (* of the instance it ran *)
  exec_s : float;  (* host CPU seconds, as measured *)
  speed : float;  (* Calib factor: exec_s *. speed is at the nominal host speed *)
  ops : int;
  time_units : int;  (* simulated cycles, or scheduler steps of the runtime *)
  fingerprint : int array;
  check_s : float;
  verdict : (unit, string) result;
  detail : detail;
  trace : trace option;
}

(* Feed the captured Cache_access stream through a fresh memory model.
   The replay must reproduce every captured hit flag; its timing is the
   memory layer's own cost per access. *)
let replay config events =
  let accesses =
    Array.of_list
      (List.filter_map
         (function
           | ts, Event.Cache_access { addr; is_write; hit } -> Some (ts, addr, is_write, hit)
           | _ -> None)
         events)
  in
  let n = Array.length accesses in
  let ts = Array.map (fun (t, _, _, _) -> t) accesses in
  let addrs = Array.map (fun (_, a, _, _) -> a) accesses in
  let writes = Array.map (fun (_, _, w, _) -> w) accesses in
  let hits = Array.map (fun (_, _, _, h) -> h) accesses in
  let once () =
    let mem = Memory.create config in
    let st = Memory.stats mem in
    let mismatches = ref 0 in
    let t0 = Sys.time () in
    for i = 0 to n - 1 do
      let before = st.Memory.hits in
      ignore (Memory.access mem ~now:ts.(i) ~addr:addrs.(i) ~is_write:writes.(i));
      if st.Memory.hits > before <> hits.(i) then incr mismatches
    done;
    (Sys.time () -. t0, !mismatches)
  in
  if n = 0 then None
  else
    let runs = List.init 5 (fun _ -> once ()) in
    let ns = Outcome.median (List.map (fun (dt, _) -> dt *. 1e9 /. float_of_int n) runs) in
    Some (ns, List.fold_left (fun acc (_, m) -> max acc m) 0 runs)

let observe_sim spans inst report sink timeline =
  let events = Sink.events sink in
  let report_bytes, report_s =
    Spans.time spans "accel.obs_report" (fun () ->
        let doc =
          Acc.obs_report ~app:inst.built.App.app_name ~events ?timeline ~config:inst.config report
        in
        String.length (Agp_obs.Report.to_string doc))
  in
  let replay, _ = Spans.time spans "memory.replay" (fun () -> replay inst.config events) in
  { events = Sink.count sink; report_s; report_bytes; replay }

let next_run inst =
  match inst.spare with
  | Some r ->
      inst.spare <- None;
      r
  | None -> inst.built.App.fresh ()

let execute spans s (inst : instance) ~traced =
  let run = next_run inst in
  let spec = inst.built.App.spec in
  (* start every sample from the same heap state *)
  Gc.full_major ();
  let exec_s, ops, time_units, fingerprint, detail, trace =
    match s.substrate with
    | Simulator ->
        let sink = if traced then Sink.collect () else Sink.null in
        let timeline = if traced then Some (Timeline.create ()) else None in
        let report, exec_s =
          Spans.time spans
            (if traced then "accel.run.traced" else "accel.run")
            (fun () ->
              Acc.run ~config:inst.config ~sink ?timeline ~spec ~bindings:run.App.bindings
                ~state:run.App.state ~initial:run.App.initial ())
        in
        let es = report.Acc.engine_stats in
        let fp =
          [|
            report.Acc.cycles;
            es.Engine.committed;
            es.Engine.aborted;
            report.Acc.mem_reads;
            report.Acc.bytes_over_link;
          |]
        in
        let trace = if traced then Some (observe_sim spans inst report sink timeline) else None in
        (exec_s, es.Engine.ops_executed, report.Acc.cycles, fp, Sim report, trace)
    | Runtime ->
        let calls = ref 0 in
        let interp = Semantics.pipelined () in
        let interp =
          if traced then
            Semantics.with_hooks interp
              { Semantics.on_event = (fun ~tick:_ ~worker:_ _ _ -> incr calls) }
          else interp
        in
        let minor0 = Gc.minor_words () in
        let report, exec_s =
          Spans.time spans
            (if traced then "semantics.run.traced" else "semantics.run")
            (fun () ->
              Semantics.run ~initial:run.App.initial interp spec run.App.bindings run.App.state)
        in
        let minor_words = Gc.minor_words () -. minor0 in
        let es = report.Semantics.stats in
        let fp =
          [| report.Semantics.steps; report.Semantics.tasks_run; es.Engine.committed; es.Engine.aborted |]
        in
        let trace =
          if traced then Some { events = !calls; report_s = 0.0; report_bytes = 0; replay = None }
          else None
        in
        (exec_s, es.Engine.ops_executed, report.Semantics.steps, fp,
         Stepper (report, minor_words), trace)
  in
  let verdict, check_s = Spans.time spans "app.check" run.App.check in
  { seed = inst.seed; exec_s; speed = 1.0; ops; time_units; fingerprint; check_s; verdict; detail; trace }

let fingerprint_string fp = String.concat "/" (Array.to_list (Array.map string_of_int fp))

(* Run one sample and hold it to the checks: no exception, the app's own
   check passes, and the fingerprint equals the instance's first. *)
let checked_sample spans out s (inst : instance) ~traced =
  Outcome.attempt out;
  let label = Printf.sprintf "%s seed %d%s" s.app inst.seed (if traced then " (traced)" else "") in
  match Calib.timed s.calib (fun () -> execute spans s inst ~traced) with
  | exception e ->
      Outcome.fail out (Printf.sprintf "%s raised %s" label (Printexc.to_string e));
      None
  | sample, speed ->
      let sample = { sample with speed } in
      (match sample.verdict with
      | Error e -> Outcome.fail out (Printf.sprintf "%s failed its check: %s" label e)
      | Ok () -> (
          match inst.fingerprint with
          | None -> inst.fingerprint <- Some sample.fingerprint
          | Some fp when fp = sample.fingerprint -> ()
          | Some fp ->
              Outcome.fail out
                (Printf.sprintf "%s fingerprint %s differs from %s" label
                   (fingerprint_string sample.fingerprint) (fingerprint_string fp))));
      Some sample

(* One set-up round: every instance set up once, timed between two
   calibrations. *)
type round = { round_speed : float; setups : setup list }

type measured = {
  rounds : round list;
  plain : sample list;  (* untraced samples *)
  traced : (sample * sample) list;  (* (untraced, traced) pairs on one instance *)
}

(* One set-up takes between one and tens of milliseconds, short enough
   for a single burst of host interference to double it: every instance
   is set up in [setup_rounds] rounds, a fixed number, so that a faster
   program is not measured over more rounds than a slower one.  Set-up
   builds arrays of small blocks, so the allocation unit calibrates it.
   The last round's instances are the ones measured. *)
let set_up spans s ~seed =
  let rec rounds k acc =
    (* drop the previous round's instances before building the next *)
    Gc.full_major ();
    let insts, round_speed =
      Calib.timed Calib.allocation (fun () ->
          List.init s.instances (fun i -> setup spans s (instance_seed seed i)))
    in
    let acc = { round_speed; setups = List.map snd insts } :: acc in
    if k + 1 >= s.setup_rounds then (List.map fst insts, List.rev acc) else rounds (k + 1) acc
  in
  rounds 0 []

(* A run makes a fixed number of passes over all instances, so that
   every instance runs equally often and two programs are compared over
   the same number of samples: [seconds] over the workload's nominal
   pass time.  Past twice [seconds] no further pass starts, so that a
   much slower program or host still ends in time.  A traced run pairs
   each untraced sample with a traced one on the same instance. *)
let passes s ~seconds ~traced =
  max 1 (int_of_float (seconds /. if traced then s.traced_pass_s else s.pass_s))

let measure spans out s ~seed ~seconds ~traced =
  let insts, rounds = set_up spans s ~seed in
  let start = Unix.gettimeofday () in
  let plain = ref [] and pairs = ref [] in
  let sample inst =
    match checked_sample spans out s inst ~traced:false with
    | None -> ()
    | Some u -> (
        plain := u :: !plain;
        if traced then
          match checked_sample spans out s inst ~traced:true with
          | None -> ()
          | Some t -> pairs := (u, t) :: !pairs)
  in
  let n = passes s ~seconds ~traced in
  let rec pass k =
    ignore (Spans.time spans "pass" (fun () -> List.iter sample insts));
    if k + 1 < n && Unix.gettimeofday () -. start < 2.0 *. seconds then pass (k + 1)
  in
  pass 0;
  { rounds; plain = List.rev !plain; traced = List.rev !pairs }

let round_s r = r.round_speed *. List.fold_left (fun acc st -> acc +. st.total_s) 0.0 r.setups

(* End-to-end figures are taken at the nominal host speed (Calib).
   setup_s is the median round's time per instance.  The execute-time
   figures come from each instance's best pass: host interference only
   ever slows a sample down, so the best of an instance's samples is its
   least disturbed one. *)
let end_to_end out s m =
  let set = Outcome.set out in
  set "setup_s" (Outcome.median (List.map round_s m.rounds) /. float_of_int s.instances);
  let best = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let t = x.exec_s *. x.speed in
      match Hashtbl.find_opt best x.seed with
      | Some (b, _) when b <= t -> ()
      | _ -> Hashtbl.replace best x.seed (t, x))
    m.plain;
  let best = Hashtbl.fold (fun _ b acc -> b :: acc) best [] in
  let total f = List.fold_left (fun acc b -> acc +. f b) 0.0 best in
  set "ops_per_sec" (total (fun (_, x) -> float_of_int x.ops) /. total fst);
  (* deterministic per seed; the median, as a few graphs take half as
     long again as the rest *)
  set "sim_cycles" (Outcome.median (List.map (fun (_, x) -> float_of_int x.time_units) best));
  let ms = List.map (fun (t, _) -> t *. 1000.0) best in
  set "p50_ms" (Outcome.median ms);
  set "p90_ms" (Outcome.percentile ms 90.0);
  Option.iter (set "peak_rss_mb") (Outcome.peak_rss_mb "self")

(* Medians over samples of the per-layer figures. *)
let layers out m =
  let set = Outcome.set out in
  let med f xs = Outcome.median (List.map f xs) in
  let fi = float_of_int in
  set "host.speed" (med (fun x -> x.speed) m.plain);
  let setups = List.concat_map (fun r -> r.setups) m.rounds in
  set "workloads.build_s" (med (fun st -> st.build_s) setups);
  set "app.fresh_s" (med (fun st -> st.fresh_s) setups);
  set "opcode.compile_s" (med (fun st -> st.compile_s) setups);
  let untraced = List.map fst m.traced and traced = List.map snd m.traced in
  let all = untraced @ traced in
  set "app.check_s" (med (fun x -> x.check_s) all);
  let stats x =
    match x.detail with
    | Sim r -> r.Acc.engine_stats
    | Stepper (r, _) -> r.Semantics.stats
  in
  let es f = med (fun x -> fi (f (stats x))) untraced in
  set "engine.activated" (es (fun s -> s.Engine.activated));
  set "engine.committed" (es (fun s -> s.Engine.committed));
  set "engine.aborted" (es (fun s -> s.Engine.aborted));
  set "engine.retried" (es (fun s -> s.Engine.retried));
  set "engine.clause_resolutions" (es (fun s -> s.Engine.clause_resolutions));
  set "engine.events_fired" (es (fun s -> s.Engine.events_fired));
  set "engine.commit_ratio"
    (med
       (fun x ->
         let s = stats x in
         fi s.Engine.committed /. fi (max 1 s.Engine.activated))
       untraced);
  set "obs.overhead_frac" (med (fun (u, t) -> (t.exec_s /. u.exec_s) -. 1.0) m.traced);
  let tr f = med (fun x -> Option.fold ~none:0.0 ~some:f x.trace) traced in
  set "obs.events" (tr (fun t -> fi t.events));
  set "obs.report_s" (tr (fun t -> t.report_s));
  set "obs.report_bytes" (tr (fun t -> fi t.report_bytes));
  let sims = List.filter_map (fun x -> match x.detail with Sim r -> Some (x, r) | _ -> None) untraced in
  if sims <> [] then begin
    let sm f = med f sims in
    set "accel.execute_s" (sm (fun (x, _) -> x.exec_s));
    set "accel.ns_per_cycle" (sm (fun (x, r) -> x.exec_s *. 1e9 /. fi (max 1 r.Acc.cycles)));
    set "accel.ns_per_op" (sm (fun (x, _) -> x.exec_s *. 1e9 /. fi (max 1 x.ops)));
    set "accel.sim_cycles_per_sec" (sm (fun (_, r) -> r.Acc.sim_cycles_per_sec));
    set "accel.minor_words_per_cycle" (sm (fun (_, r) -> r.Acc.minor_words_per_cycle));
    set "accel.peak_in_flight" (sm (fun (_, r) -> fi r.Acc.peak_in_flight));
    set "accel.utilization" (sm (fun (_, r) -> r.Acc.utilization));
    set "mem.reads" (sm (fun (_, r) -> fi r.Acc.mem_reads));
    set "mem.writes" (sm (fun (_, r) -> fi r.Acc.mem_writes));
    set "mem.hit_rate" (sm (fun (_, r) -> r.Acc.mem_hit_rate));
    set "mem.bytes_over_link" (sm (fun (_, r) -> fi r.Acc.bytes_over_link));
    let frac f = sm (fun (_, r) -> f (Attribution.summary r.Acc.attribution)) in
    set "attr.busy_frac" (frac (fun a -> a.Attribution.busy_frac));
    set "attr.mem_stall_frac" (frac (fun a -> a.Attribution.mem_frac));
    set "attr.rdv_stall_frac" (frac (fun a -> a.Attribution.rendezvous_frac));
    set "attr.queue_full_frac" (frac (fun a -> a.Attribution.queue_frac));
    set "attr.squash_waste_frac" (frac (fun a -> a.Attribution.squash_frac));
    set "attr.idle_frac" (frac (fun a -> a.Attribution.idle_frac));
    let replays = List.filter_map (fun x -> Option.bind x.trace (fun t -> t.replay)) traced in
    let mismatches = List.fold_left (fun acc (_, m) -> acc + m) 0 replays in
    set "mem.replay_mismatches" (fi mismatches);
    (* a replay that does not reproduce the captured hits times nothing
       meaningful: report the layer number as invalid (-1) *)
    set "mem.replay_ns_per_access"
      (if mismatches > 0 then -1.0 else Outcome.median (List.map fst replays))
  end;
  let steppers =
    List.filter_map (fun x -> match x.detail with Stepper (r, w) -> Some (x, r, w) | _ -> None) untraced
  in
  if steppers <> [] then begin
    let sm f = med f steppers in
    set "semantics.execute_s" (sm (fun (x, _, _) -> x.exec_s));
    set "semantics.steps" (sm (fun (_, r, _) -> fi r.Semantics.steps));
    set "semantics.us_per_task"
      (sm (fun (x, r, _) -> x.exec_s *. 1e6 /. fi (max 1 r.Semantics.tasks_run)));
    set "semantics.max_waiting" (sm (fun (_, r, _) -> fi r.Semantics.max_waiting));
    set "semantics.avg_busy" (sm (fun (_, r, _) -> r.Semantics.avg_busy));
    set "semantics.minor_words_per_op" (sm (fun (x, _, w) -> w /. fi (max 1 x.ops)))
  end

let run spans out s ~seed ~seconds ~traced =
  let m = measure spans out s ~seed ~seconds ~traced in
  if traced then layers out m else end_to_end out s m;
  m
