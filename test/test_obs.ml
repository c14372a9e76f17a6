(* Tests for the Agp_obs observability subsystem: metrics, JSON, sinks,
   Chrome trace export, stall attribution, and the zero-observer-effect
   guarantee on the accelerator. *)

module Json = Agp_obs.Json
module Metrics = Agp_obs.Metrics
module Event = Agp_obs.Event
module Sink = Agp_obs.Sink
module Chrome_trace = Agp_obs.Chrome_trace
module Attribution = Agp_obs.Attribution
module Lifecycle = Agp_obs.Lifecycle
module Timeline = Agp_obs.Timeline
module Report = Agp_obs.Report
module Diff = Agp_obs.Diff
module Window = Agp_obs.Window
module Telemetry = Agp_obs.Telemetry
module Log = Agp_obs.Log
module Accelerator = Agp_hw.Accelerator
module Config = Agp_hw.Config
module Memory = Agp_hw.Memory
module App_instance = Agp_apps.App_instance
module Bfs_app = Agp_apps.Bfs_app
module Engine = Agp_core.Engine

let check = Alcotest.check

(* --- JSON --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("s", Json.String "he \"quoted\"\n\ttab\\slash");
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false; Json.Int (-7) ]);
        ("nested", Json.Obj [ ("x", Json.List []); ("y", Json.Obj []) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok v -> check Alcotest.bool "roundtrip equal" true (v = doc)
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_parse_basics () =
  check Alcotest.bool "int" true (Json.parse "42" = Ok (Json.Int 42));
  check Alcotest.bool "negative" true (Json.parse "-3" = Ok (Json.Int (-3)));
  check Alcotest.bool "float" true (Json.parse "2.5" = Ok (Json.Float 2.5));
  check Alcotest.bool "exponent" true (Json.parse "1e3" = Ok (Json.Float 1000.0));
  check Alcotest.bool "ws" true (Json.parse "  [ 1 , 2 ]  " = Ok (Json.List [ Json.Int 1; Json.Int 2 ]));
  check Alcotest.bool "escape" true (Json.parse {|"aAb"|} = Ok (Json.String "aAb"))

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.Int 3); ("f", Json.Float 0.5) ] in
  check Alcotest.bool "member" true (Json.member "n" v = Some (Json.Int 3));
  check Alcotest.bool "missing" true (Json.member "zzz" v = None);
  check Alcotest.bool "to_float of int" true (Json.to_float (Json.Int 2) = Some 2.0)

(* --- metrics --- *)

let test_metrics_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "tasks" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "counter value" 5 (Metrics.count c);
  check Alcotest.bool "same instance" true (Metrics.counter reg "tasks" == c);
  let g = Metrics.gauge reg "util" in
  Metrics.set g 0.75;
  check (Alcotest.float 1e-9) "gauge value" 0.75 (Metrics.value g);
  let text = Metrics.to_text reg in
  check Alcotest.bool "text mentions counter" true
    (Astring.String.is_infix ~affix:"tasks" text);
  match Json.parse (Json.to_string (Metrics.to_json reg)) with
  | Ok v ->
      check Alcotest.bool "json counter" true (Json.member "tasks" v = Some (Json.Int 5));
      check Alcotest.bool "json gauge" true (Json.member "util" v = Some (Json.Float 0.75))
  | Error e -> Alcotest.failf "metrics json malformed: %s" e

let test_metrics_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" ~buckets:[| 10; 100 |] in
  List.iter (Metrics.observe h) [ 1; 10; 11; 50; 1000 ];
  check Alcotest.int "count" 5 (Metrics.sample_count h);
  check Alcotest.int "sum" 1072 (Metrics.sample_sum h);
  check Alcotest.bool "buckets" true
    (Metrics.bucket_counts h = [ (Some 10, 2); (Some 100, 2); (None, 1) ])

let test_metrics_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  (match Metrics.gauge reg "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gauge over counter name accepted");
  (match Metrics.histogram reg "x" ~buckets:[| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histogram over counter name accepted");
  match Metrics.histogram reg "h" ~buckets:[| 5; 5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing bounds accepted"

(* --- sinks --- *)

let ev i = Event.Cache_access { addr = i; is_write = false; hit = true }

let test_sink_null () =
  check Alcotest.bool "disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null ~ts:1 (ev 0);
  check Alcotest.int "no events" 0 (List.length (Sink.events Sink.null));
  check Alcotest.int "no count" 0 (Sink.count Sink.null)

let test_sink_collect () =
  let s = Sink.collect () in
  check Alcotest.bool "enabled" true (Sink.enabled s);
  for i = 0 to 9 do
    Sink.emit s ~ts:i (ev i)
  done;
  let evs = Sink.events s in
  check Alcotest.int "all kept" 10 (List.length evs);
  check Alcotest.bool "chronological" true (List.map fst evs = List.init 10 Fun.id);
  check Alcotest.int "none dropped" 0 (Sink.dropped s);
  Sink.clear s;
  check Alcotest.int "cleared" 0 (Sink.count s)

let test_sink_ring () =
  let s = Sink.ring ~capacity:4 in
  for i = 0 to 9 do
    Sink.emit s ~ts:i (ev i)
  done;
  let evs = Sink.events s in
  check Alcotest.int "bounded" 4 (List.length evs);
  check Alcotest.bool "keeps newest, oldest first" true (List.map fst evs = [ 6; 7; 8; 9 ]);
  check Alcotest.int "total emitted" 10 (Sink.count s);
  check Alcotest.int "dropped" 6 (Sink.dropped s);
  match Sink.ring ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted"

(* --- instrumented components --- *)

let test_memory_events () =
  let sink = Sink.collect () in
  let mem = Memory.create ~sink Config.default in
  ignore (Memory.access mem ~now:0 ~addr:0 ~is_write:false);
  ignore (Memory.access mem ~now:100 ~addr:8 ~is_write:true);
  let kinds = List.map (fun (_, e) -> Event.kind e) (Sink.events sink) in
  check (Alcotest.list Alcotest.string) "miss emits access + transfer, hit only access"
    [ "cache_access"; "link_transfer"; "cache_access" ] kinds;
  let hits =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Event.Cache_access { hit; _ } -> Some hit
        | _ -> None)
      (Sink.events sink)
  in
  check (Alcotest.list Alcotest.bool) "hit flags" [ false; true ] hits

(* --- accelerator observability end to end --- *)

let small_app () =
  Bfs_app.speculative
    (Bfs_app.workload_of_graph (Agp_graph.Generator.road ~weighted:true ~seed:3 ~width:12 ~height:8) 0)

let observed_run ?config ?sink ?timeline () =
  let app = small_app () in
  let run = app.App_instance.fresh () in
  let report =
    Accelerator.run ?config ?sink ?timeline ~spec:app.App_instance.spec
      ~bindings:run.App_instance.bindings ~state:run.App_instance.state
      ~initial:run.App_instance.initial ()
  in
  (report, run)

let test_accel_event_taxonomy () =
  let sink = Sink.collect () in
  let report, run = observed_run ~sink () in
  check (Alcotest.result Alcotest.unit Alcotest.string) "still valid" (Ok ())
    (run.App_instance.check ());
  let evs = Sink.events sink in
  let has k = List.exists (fun (_, e) -> Event.kind e = k) evs in
  List.iter
    (fun k -> check Alcotest.bool ("has " ^ k) true (has k))
    [
      "task_dispatch";
      "task_finish";
      "rendezvous_park";
      "rendezvous_resume";
      "cache_access";
      "link_transfer";
    ];
  (* every dispatch/finish timestamp lies within the simulated run *)
  check Alcotest.bool "timestamps within run" true
    (List.for_all (fun (ts, _) -> ts >= 0 && ts <= report.Accelerator.cycles + 1) evs);
  (* commits observed in the stream match the engine's commit count *)
  let commits =
    List.length
      (List.filter
         (fun (_, e) ->
           match e with
           | Event.Task_finish { outcome = Event.Commit; _ } -> true
           | _ -> false)
         evs)
  in
  check Alcotest.int "commit events = committed tasks"
    report.Accelerator.engine_stats.Engine.committed commits

let test_accel_attribution_sums () =
  let report, _ = observed_run () in
  let n_pipes =
    List.fold_left (fun acc (_, n) -> acc + n) 0 report.Accelerator.pipelines
  in
  let attr = report.Accelerator.attribution in
  check Alcotest.int "buckets sum to cycles x pipelines"
    (report.Accelerator.cycles * n_pipes)
    (Attribution.total attr);
  (* per-set: each set's buckets sum to cycles x that set's pipelines *)
  List.iteri
    (fun slot (set, n) ->
      check Alcotest.int (set ^ " row sums")
        (report.Accelerator.cycles * n)
        (Attribution.set_total attr ~slot))
    report.Accelerator.pipelines;
  check Alcotest.bool "some busy cycles" true (Attribution.get attr ~set:"update" Attribution.Busy > 0);
  let s = Attribution.summary attr in
  let sum =
    s.Attribution.busy_frac +. s.Attribution.mem_frac +. s.Attribution.rendezvous_frac
    +. s.Attribution.queue_frac +. s.Attribution.squash_frac +. s.Attribution.idle_frac
  in
  check (Alcotest.float 1e-9) "summary fractions sum to 1" 1.0 sum

let fields_of_report (r : Accelerator.report) =
  ( r.Accelerator.cycles,
    r.Accelerator.seconds,
    r.Accelerator.utilization,
    ( r.Accelerator.engine_stats.Engine.activated,
      r.Accelerator.engine_stats.Engine.committed,
      r.Accelerator.engine_stats.Engine.aborted,
      r.Accelerator.engine_stats.Engine.retried,
      r.Accelerator.engine_stats.Engine.ops_executed ),
    r.Accelerator.mem_reads,
    r.Accelerator.mem_writes,
    r.Accelerator.mem_hit_rate,
    r.Accelerator.bytes_over_link,
    r.Accelerator.peak_in_flight,
    r.Accelerator.pipelines )

let test_accel_null_sink_identical () =
  (* the observer must not perturb the model: a fully-captured run and
     a null-sink (uninstrumented) run report bit-identical results *)
  let bare, bare_run = observed_run () in
  let observed, obs_run = observed_run ~sink:(Sink.collect ()) () in
  check Alcotest.bool "reports identical" true
    (fields_of_report bare = fields_of_report observed);
  check Alcotest.bool "attributions identical" true
    (Attribution.equal bare.Accelerator.attribution observed.Accelerator.attribution);
  check (Alcotest.list Alcotest.string) "same final memory" []
    (Agp_core.State.diff bare_run.App_instance.state obs_run.App_instance.state)

let test_accel_squash_waste_appears () =
  (* speculative BFS on this graph squashes thousands of tasks; the
     waste must show up in the attribution *)
  let report, _ = observed_run () in
  let aborted = report.Accelerator.engine_stats.Engine.aborted in
  check Alcotest.bool "squashes happened" true (aborted > 0);
  check Alcotest.bool "squash-waste charged" true
    (Attribution.get report.Accelerator.attribution ~set:"update" Attribution.Squash_waste > 0)

let test_attribution_render_and_reclassify () =
  let a = Attribution.create [ "s" ] in
  Attribution.charge a ~slot:0 Attribution.Busy 10;
  Attribution.charge a ~slot:0 Attribution.Idle 5;
  check Alcotest.int "clamped move" 10
    (Attribution.reclassify a ~slot:0 ~src:Attribution.Busy ~dst:Attribution.Squash_waste 99);
  check Alcotest.int "total preserved" 15 (Attribution.total a);
  check Alcotest.int "src emptied" 0 (Attribution.get a ~set:"s" Attribution.Busy);
  let table = Attribution.render a in
  check Alcotest.bool "renders set row" true (Astring.String.is_infix ~affix:"s" table);
  check Alcotest.bool "renders total" true (Astring.String.is_infix ~affix:"TOTAL" table)

(* --- Chrome trace export --- *)

let test_chrome_trace_wellformed () =
  let sink = Sink.collect () in
  let report, _ = observed_run ~sink () in
  let json = Chrome_trace.to_string ~trace_name:"test" (Sink.events sink) in
  match Json.parse json with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok doc -> begin
      match Option.bind (Json.member "traceEvents" doc) Json.to_list with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          check Alcotest.bool "has events" true (List.length evs > 100);
          let ts_of e = Option.get (Option.bind (Json.member "ts" e) Json.to_int) in
          let tss = List.map ts_of evs in
          check Alcotest.bool "events sorted by ts" true (List.sort compare tss = tss);
          List.iter
            (fun e ->
              check Alcotest.bool "has pid" true (Json.member "pid" e <> None);
              check Alcotest.bool "has tid or is process meta" true
                (Json.member "tid" e <> None
                || Json.member "ph" e = Some (Json.String "M"));
              match Json.member "dur" e with
              | Some d -> check Alcotest.bool "dur >= 0" true (Option.get (Json.to_int d) >= 0)
              | None -> ())
            evs;
          check Alcotest.bool "span ends within run" true
            (List.for_all
               (fun e ->
                 match (Json.member "ts" e, Json.member "dur" e) with
                 | Some ts, Some d ->
                     Option.get (Json.to_int ts) + Option.get (Json.to_int d)
                     <= report.Accelerator.cycles + Config.default.Config.miss_latency + 64
                 | _ -> true)
               evs)
    end

let test_chrome_trace_stable () =
  (* same events must export to the identical document: pids/tids are
     derived from sorted names, not from encounter order *)
  let sink = Sink.collect () in
  let _ = observed_run ~sink () in
  let events = Sink.events sink in
  let a = Chrome_trace.to_string events in
  let b = Chrome_trace.to_string events in
  check Alcotest.bool "deterministic export" true (String.equal a b);
  (* and a second simulation of the same seeded app captures the same
     stream, hence the same trace *)
  let sink2 = Sink.collect () in
  let _ = observed_run ~sink:sink2 () in
  let c = Chrome_trace.to_string (Sink.events sink2) in
  check Alcotest.bool "reproducible run-to-run" true (String.equal a c)

let test_chrome_trace_rows () =
  let sink = Sink.collect () in
  let _ = observed_run ~sink () in
  let doc =
    match Json.parse (Chrome_trace.to_string (Sink.events sink)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let evs = Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
  let thread_names =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.String "thread_name") then
          Option.bind (Json.member "args" e) (fun a ->
              Option.bind (Json.member "name" a) Json.to_str)
        else None)
      evs
  in
  check Alcotest.bool "pipeline rows named set/index" true
    (List.exists (fun n -> n = "visit/0") thread_names);
  check Alcotest.bool "rule engine row per set" true (List.mem "update" thread_names);
  check Alcotest.bool "link row" true (List.mem "qpi-link" thread_names)

(* --- JSON parse errors carry position + context --- *)

let test_json_error_positions () =
  let expect_infix s affix =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
        if not (Astring.String.is_infix ~affix e) then
          Alcotest.failf "error for %S lacks %S:\n%s" s affix e
  in
  expect_infix "{\n  \"a\": tru\n}" "line 2";
  expect_infix "[1,]" "line 1";
  expect_infix "[1,]" "column";
  expect_infix "[1,]" "^";
  (* the context window shows the offending text *)
  expect_infix "{\"key\": flase}" "flase"

let test_json_fuzz_never_raises () =
  (* every truncation and every single-byte mutation of a valid
     document must yield Ok or Error — never an exception *)
  let doc =
    Report.to_string
      (Report.v ~kind:"t" ~app:"a"
         ~meta:[ ("m", Json.Float 2.5) ]
         ~sections:
           [
             ( "s",
               Json.Obj
                 [
                   ("x", Json.Int (-1));
                   ("y", Json.List [ Json.Float 0.5; Json.Null; Json.Bool true ]);
                   ("z", Json.String "str\"esc\\n");
                 ] );
           ]
         ())
  in
  let n = String.length doc in
  for i = 0 to n - 1 do
    (match Json.parse (String.sub doc 0 i) with
    | Ok _ | Error _ -> ());
    let b = Bytes.of_string doc in
    Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 13) land 0x7f));
    match Json.parse (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
  done

(* --- Metrics.percentile --- *)

let test_metrics_percentile () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" ~buckets:[| 10; 20 |] in
  (* total on empty: 0.0, never an exception — the serve scrape path
     renders percentiles of histograms that may not have seen traffic *)
  check (Alcotest.float 1e-6) "empty histogram percentile is 0" 0.0
    (Metrics.percentile h 50.0);
  check (Alcotest.float 1e-6) "empty histogram p99 is 0" 0.0 (Metrics.percentile h 99.0);
  for _ = 1 to 10 do
    Metrics.observe h 5
  done;
  check (Alcotest.float 1e-6) "p50 interpolates within first bucket" 5.0
    (Metrics.percentile h 50.0);
  check (Alcotest.float 1e-6) "p100 reaches bucket bound" 10.0 (Metrics.percentile h 100.0);
  for _ = 1 to 10 do
    Metrics.observe h 15
  done;
  check (Alcotest.float 1e-6) "p50 lands on the bucket edge" 10.0 (Metrics.percentile h 50.0);
  check (Alcotest.float 1e-6) "p75 mid second bucket" 15.0 (Metrics.percentile h 75.0);
  (match Metrics.percentile h 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p > 100 accepted");
  (match Metrics.percentile h (-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p < 0 accepted");
  let o = Metrics.histogram reg "over" ~buckets:[| 10 |] in
  Metrics.observe o 1000;
  check (Alcotest.float 1e-6) "overflow bucket clamps to last bound" 10.0
    (Metrics.percentile o 50.0);
  let text = Metrics.to_text reg in
  check Alcotest.bool "to_text shows percentiles" true
    (Astring.String.is_infix ~affix:"p50=" text)

(* --- rolling windows --- *)

let test_window_observe_and_prune () =
  let w = Window.create ~span_s:10.0 "lat" in
  Window.observe w ~now:0.0 1.0;
  Window.observe w ~now:1.0 2.0;
  Window.observe w ~now:2.0 3.0;
  let s = Window.summary w ~now:2.0 in
  check Alcotest.int "all live" 3 s.Window.s_count;
  check Alcotest.int "lifetime" 3 s.Window.s_lifetime;
  check (Alcotest.float 1e-9) "p50" 2.0 s.Window.s_p50;
  check (Alcotest.float 1e-9) "max" 3.0 s.Window.s_max;
  check (Alcotest.float 1e-9) "rate = count/span" 0.3 s.Window.s_rate_per_sec;
  (* advance past the horizon of the first two samples: only t=2 remains *)
  let s = Window.summary w ~now:11.5 in
  check Alcotest.int "pruned to window" 1 s.Window.s_count;
  check Alcotest.int "lifetime counts expired" 3 s.Window.s_lifetime;
  check (Alcotest.float 1e-9) "survivor value" 3.0 s.Window.s_p50;
  (* everything expired: summary is total, all zeros *)
  let s = Window.summary w ~now:100.0 in
  check Alcotest.int "empty window" 0 s.Window.s_count;
  check (Alcotest.float 1e-9) "empty p50 is 0" 0.0 s.Window.s_p50;
  check (Alcotest.float 1e-9) "empty p99 is 0" 0.0 s.Window.s_p99;
  check (Alcotest.float 1e-9) "empty max is 0" 0.0 s.Window.s_max

let test_window_cap_drops_oldest () =
  let w = Window.create ~max_samples:4 ~span_s:60.0 "capped" in
  for i = 1 to 6 do
    Window.observe w ~now:(float_of_int i) (float_of_int i)
  done;
  let s = Window.summary w ~now:6.0 in
  check Alcotest.int "capped live count" 4 s.Window.s_count;
  check Alcotest.int "evictions counted" 2 s.Window.s_dropped;
  check Alcotest.int "lifetime counts evicted" 6 s.Window.s_lifetime;
  (* the oldest samples went first: live set is 3..6 *)
  check (Alcotest.float 1e-9) "p50 of survivors" 4.0 s.Window.s_p50;
  check (Alcotest.float 1e-9) "max survives" 6.0 s.Window.s_max;
  match Window.create ~span_s:0.0 "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "span_s = 0 accepted"

(* The window as a plain newest-first list, pruned and capped by
   rebuilding it: the reference the ring-buffered window must agree
   with, summary field for summary field. *)
module Naive_window = struct
  type t = {
    span : float;
    cap : int;
    mutable live : (float * float) list;
    mutable lifetime : int;
    mutable dropped : int;
  }

  let create ~cap ~span = { span; cap; live = []; lifetime = 0; dropped = 0 }

  let prune t ~now = t.live <- List.filter (fun (at, _) -> not (at < now -. t.span)) t.live

  let observe t ~now v =
    prune t ~now;
    t.lifetime <- t.lifetime + 1;
    if List.length t.live >= t.cap then begin
      t.live <- List.rev (List.tl (List.rev t.live));
      t.dropped <- t.dropped + 1
    end;
    t.live <- (now, v) :: t.live

  let summary t ~now name =
    prune t ~now;
    let vs = Array.of_list (List.map snd t.live) in
    let n = Array.length vs in
    let pct = Agp_util.Stats.percentile_nearest vs in
    {
      Window.s_name = name;
      s_count = n;
      s_lifetime = t.lifetime;
      s_dropped = t.dropped;
      s_rate_per_sec = float_of_int n /. t.span;
      s_p50 = pct 50.0;
      s_p90 = pct 90.0;
      s_p99 = pct 99.0;
      s_max = (if n = 0 then 0.0 else Agp_util.Stats.maximum vs);
    }
end

(* random caps, spans, clock gaps (ties and jumps past the span
   included) and values; a summary after some observations and at the
   end *)
let prop_window_matches_naive =
  QCheck.Test.make ~name:"window agrees with a naive list model" ~count:300
    QCheck.(
      triple (int_range 1 12) (int_range 1 6)
        (list_of_size Gen.(int_range 0 120)
           (triple (int_range 0 8) (float_range (-50.0) 50.0) bool)))
    (fun (cap, span, ops) ->
      let span = float_of_int span in
      let w = Window.create ~max_samples:cap ~span_s:span "w" in
      let m = Naive_window.create ~cap ~span in
      let now = ref 0.0 in
      List.for_all
        (fun (gap, v, summarize) ->
          (* half-second steps: samples land exactly on the horizon too *)
          now := !now +. (float_of_int gap *. 0.5);
          Window.observe w ~now:!now v;
          Naive_window.observe m ~now:!now v;
          (not summarize) || Window.summary w ~now:!now = Naive_window.summary m ~now:!now "w")
        ops
      && Window.summary w ~now:(!now +. 1.0) = Naive_window.summary m ~now:(!now +. 1.0) "w")

(* observing costs O(1) amortized: 100,000 samples 1 ms apart into a
   60 s window at the default cap take well under a second of CPU; a
   window that rebuilds its sample list per observation takes minutes *)
let test_window_observe_is_cheap () =
  let w = Window.create ~span_s:60.0 "lat" in
  let t0 = Sys.time () in
  for i = 0 to 99_999 do
    Window.observe w ~now:(float_of_int i *. 0.001) (float_of_int (i mod 97))
  done;
  let s = Window.summary w ~now:99.999 in
  let cpu = Sys.time () -. t0 in
  check Alcotest.int "live = last 60 s" 60_001 s.Window.s_count;
  check Alcotest.int "lifetime" 100_000 s.Window.s_lifetime;
  if cpu >= 2.0 then Alcotest.failf "100k observations took %.2f s of CPU" cpu

(* --- telemetry / Prometheus exposition --- *)

let test_telemetry_sanitize () =
  check Alcotest.string "dots become underscores" "serve_queue_ms"
    (Telemetry.sanitize "serve.queue_ms");
  (* digits are legal anywhere but position 0 *)
  check Alcotest.string "leading digit escaped" "_9lives" (Telemetry.sanitize "99lives");
  check Alcotest.string "colon legal" "a:b" (Telemetry.sanitize "a:b");
  check Alcotest.string "already legal untouched" "ok_name" (Telemetry.sanitize "ok_name")

let test_telemetry_prometheus () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "serve.requests_total" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.incr c;
  Metrics.set (Metrics.gauge reg "accel.util") 2.5;
  let h = Metrics.histogram reg "exec.cycles" ~buckets:[| 10; 20 |] in
  List.iter (Metrics.observe h) [ 5; 15; 1000 ];
  let w = Window.create ~span_s:60.0 "serve.latency_ms" in
  List.iter (fun v -> Window.observe w ~now:1.0 v) [ 1.0; 2.0; 3.0; 4.0 ];
  let text = Telemetry.to_prometheus reg [ w ] ~now:1.0 in
  (* the whole exposition: counters and gauges as single samples,
     cumulative buckets ending at +Inf, windows as summaries with
     quantile labels plus rate and max gauges *)
  check Alcotest.string "exposition text"
    {|# TYPE serve_requests_total counter
serve_requests_total 3
# TYPE accel_util gauge
accel_util 2.5
# TYPE exec_cycles histogram
exec_cycles_bucket{le="10"} 1
exec_cycles_bucket{le="20"} 2
exec_cycles_bucket{le="+Inf"} 3
exec_cycles_sum 1020
exec_cycles_count 3
# TYPE serve_latency_ms summary
serve_latency_ms{quantile="0.5"} 2
serve_latency_ms{quantile="0.9"} 4
serve_latency_ms{quantile="0.99"} 4
serve_latency_ms_count 4
# TYPE serve_latency_ms_window_rate_per_sec gauge
serve_latency_ms_window_rate_per_sec 0.0666667
# TYPE serve_latency_ms_window_max gauge
serve_latency_ms_window_max 4
|}
    text

(* --- structured NDJSON logging --- *)

let test_log_ndjson () =
  let path = Filename.temp_file "agp_log" ".ndjson" in
  let oc = open_out path in
  let log = Log.create ~level:Log.Info ~clock:(fun () -> 42.5) ~out:oc () in
  check Alcotest.bool "info enabled" true (Log.enabled log Log.Info);
  check Alcotest.bool "debug filtered" false (Log.enabled log Log.Debug);
  Log.debug log "dropped";
  Log.info log ~req:"r1" ~fields:[ ("shard", Json.Int 2); ("msg", Json.String "shadow") ]
    "request executed";
  Log.warn log "plain";
  Log.set_level log Log.Debug;
  Log.debug log "now visible";
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  check Alcotest.int "three lines (debug filtered until enabled)" 3 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok (Json.Obj kv) -> kv
        | Ok _ -> Alcotest.failf "log line not an object: %s" l
        | Error e -> Alcotest.failf "log line not JSON (%s): %s" e l)
      lines
  in
  let first = List.nth parsed 0 in
  check Alcotest.bool "ts from injected clock" true
    (List.assoc "ts" first = Json.Float 42.5);
  check Alcotest.bool "level" true (List.assoc "level" first = Json.String "info");
  check Alcotest.bool "msg wins over shadowing field" true
    (List.assoc "msg" first = Json.String "request executed");
  check Alcotest.bool "req correlation" true (List.assoc "req" first = Json.String "r1");
  check Alcotest.bool "free field kept" true (List.assoc "shard" first = Json.Int 2);
  let second = List.nth parsed 1 in
  check Alcotest.bool "no req when absent" true (not (List.mem_assoc "req" second));
  check Alcotest.bool "warn level name" true (List.assoc "level" second = Json.String "warn");
  let third = List.nth parsed 2 in
  check Alcotest.bool "debug after set_level" true
    (List.assoc "level" third = Json.String "debug");
  (* the null logger drops everything and never raises *)
  check Alcotest.bool "null disabled" false (Log.enabled Log.null Log.Error);
  Log.error Log.null ~req:"x" "ignored";
  (* level parsing accepts the common spellings *)
  check Alcotest.bool "warning alias" true (Log.level_of_string "Warning" = Ok Log.Warn);
  check Alcotest.bool "bad level rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false)

(* --- task lifecycle spans --- *)

let test_lifecycle_span_invariant () =
  let sink = Sink.collect () in
  let report, _ = observed_run ~sink () in
  let spans, unfinished = Lifecycle.spans (Sink.events sink) in
  check Alcotest.int "every activation retires" 0 unfinished;
  check Alcotest.int "one span per activation"
    report.Accelerator.engine_stats.Engine.activated (List.length spans);
  List.iter
    (fun sp ->
      let open Lifecycle in
      let covered = sp.sp_queue_wait + sp.sp_execute + sp.sp_rdv_wait + sp.sp_squash_redo in
      let lifetime = sp.sp_retired - sp.sp_dispatched in
      if covered <> lifetime then
        Alcotest.failf "span %s/%d: phases sum to %d, lifetime is %d" sp.sp_set sp.sp_tid
          covered lifetime;
      if sp.sp_outcome = Event.Commit && sp.sp_squash_redo <> 0 then
        Alcotest.failf "span %s/%d: committed but charged squash-redo" sp.sp_set sp.sp_tid)
    spans;
  let commits =
    List.length (List.filter (fun sp -> sp.Lifecycle.sp_outcome = Event.Commit) spans)
  in
  check Alcotest.int "commit spans = engine committed"
    report.Accelerator.engine_stats.Engine.committed commits

let test_lifecycle_summarize () =
  let sink = Sink.collect () in
  let _ = observed_run ~sink () in
  let spans, _ = Lifecycle.spans (Sink.events sink) in
  let stats = Lifecycle.summarize spans in
  check Alcotest.int "both task sets present" 2 (List.length stats);
  List.iter
    (fun st ->
      let open Lifecycle in
      check Alcotest.bool (st.ls_set ^ " percentiles ordered") true
        (st.ls_p50 <= st.ls_p90 && st.ls_p90 <= st.ls_p99 && st.ls_p99 <= st.ls_max);
      check Alcotest.int (st.ls_set ^ " outcome partition") st.ls_tasks
        (st.ls_commits + st.ls_squashes))
    stats;
  let total = List.fold_left (fun acc st -> acc + st.Lifecycle.ls_tasks) 0 stats in
  check Alcotest.int "spans partitioned across sets" (List.length spans) total;
  let table = Lifecycle.render stats in
  check Alcotest.bool "renders a row per set" true
    (Astring.String.is_infix ~affix:"update" table
    && Astring.String.is_infix ~affix:"visit" table);
  match Lifecycle.to_json stats with
  | Json.Obj kvs ->
      check Alcotest.int "json keyed by set" (List.length stats) (List.length kvs)
  | _ -> Alcotest.fail "lifecycle json is not an object"

(* --- pinned observability outputs: golden/obs-digests.txt holds the
   MD5 of each exporter's output on fixed inputs — the Chrome trace and
   the task-lifecycle summary (JSON, table, lifetime histogram) of every
   app at small scale, seed 42, full capture; the same for a hand-made
   stream with the edge cases (a dispatch without a resume, a finish
   while parked, events cut off at the front as a ring would, spans left
   open); and a request trace with overlapping requests and a
   zero-duration slice. --- *)

let md5 s = Digest.to_hex (Digest.string s)

let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let events_digest name events =
  let spans, unfinished = Lifecycle.spans events in
  let stats = Lifecycle.summarize spans in
  let reg = Metrics.create () in
  ignore (Lifecycle.histogram reg ~name:"task.lifetime.cycles" spans);
  Printf.sprintf "%s events=%d unfinished=%d chrome=%s lifecycle_json=%s lifecycle_table=%s histogram=%s"
    name (List.length events) unfinished
    (md5 (Chrome_trace.to_string ~trace_name:name events))
    (md5 (Json.to_string (Lifecycle.to_json stats)))
    (md5 (Lifecycle.render stats))
    (md5 (Metrics.to_text reg))

let edge_events =
  let d ts set pipe tid = (ts, Event.Task_dispatch { set; pipe; tid; index = [||] }) in
  let f ts set pipe tid outcome = (ts, Event.Task_finish { set; pipe; tid; outcome }) in
  let p ts set pipe tid = (ts, Event.Rendezvous_park { set; pipe; tid }) in
  let r ts set tid = (ts, Event.Rendezvous_resume { set; tid }) in
  [
    (* tid 4's dispatch and tid 8's whole life fell off the front *)
    p 0 "b" 0 4;
    d 0 "a" 0 1;
    d 1 "a" 1 2;
    d 2 "b" 0 3;
    d 2 "a" 1 5;
    (2, Event.Cache_access { addr = 64; is_write = false; hit = false });
    p 3 "b" 0 3;
    f 3 "a" 0 8 Event.Commit;
    (* redispatched without a resume: in the pipe, then parked *)
    d 4 "a" 1 2;
    p 4 "a" 1 5;
    p 5 "a" 0 1;
    (5, Event.Queue_full { set = "a"; pipe = 0 });
    (5, Event.Link_transfer { bytes = 64; start = 5; finish = 30 });
    (5, Event.Cache_access { addr = 64; is_write = false; hit = true });
    r 5 "b" 9;
    r 6 "b" 4;
    d 7 "b" 0 3;
    p 8 "b" 0 3;
    d 8 "b" 1 4;
    r 9 "a" 1;
    (* finished while parked: the park stays open *)
    f 9 "a" 1 5 Event.Abort;
    (9, Event.Cache_access { addr = 128; is_write = true; hit = true });
    f 10 "a" 1 2 Event.Abort;
    (* issue-time stamps run ahead of the cycle *)
    (12, Event.Cache_access { addr = 192; is_write = false; hit = false });
    (8, Event.Cache_access { addr = 256; is_write = false; hit = true });
    r 11 "b" 3;
    d 12 "a" 0 1;
    d 13 "b" 0 3;
    f 14 "b" 1 4 Event.Commit;
    f 15 "b" 0 3 Event.Retry;
    d 16 "b" 1 6;
    d 17 "a" 0 7;
    p 18 "a" 0 7;
    f 20 "a" 0 1 Event.Commit;
    (20, Event.Queue_full { set = "b"; pipe = 1 });
  ]

let request_traces =
  let span phase start dur =
    {
      Chrome_trace.rs_phase = phase;
      rs_start_us = start;
      rs_dur_us = dur;
      rs_args = [ ("shard", Json.Int 0); ("batch", Json.Int 2) ];
    }
  in
  [
    { Chrome_trace.rt_id = "r1"; rt_spans = [ span "queue" 0 120; span "build" 120 0; span "execute" 130 400 ] };
    (* overlaps r1, and lists its slices out of start order *)
    { Chrome_trace.rt_id = "r2"; rt_spans = [ span "execute" 530 90; span "queue" 10 110; span "build" 120 0 ] };
    { Chrome_trace.rt_id = "r3"; rt_spans = [ span "queue" 700 (-5); span "build" 700 30; span "execute" 730 0 ] };
  ]

let obs_digest_lines () =
  let apps =
    List.map
      (fun (app : App_instance.t) ->
        let sink = Sink.collect () in
        let config = Agp_backend.Backend.derive_config app Config.default in
        let r = app.App_instance.fresh () in
        let _ =
          Accelerator.run ~config ~sink ~spec:app.App_instance.spec
            ~bindings:r.App_instance.bindings ~state:r.App_instance.state
            ~initial:r.App_instance.initial ()
        in
        events_digest app.App_instance.app_name (Sink.events sink))
      (Agp_exp.Workloads.all Agp_exp.Workloads.Small ~seed:42)
  in
  apps
  @ [
      events_digest "edges" edge_events;
      Printf.sprintf "requests chrome=%s"
        (md5 (Json.to_string (Chrome_trace.requests_to_json request_traces)));
    ]

(* a golden file's lines, blank lines and '#' comments dropped *)
let golden_lines name =
  match golden_file name with
  | None -> Alcotest.fail ("golden/" ^ name ^ " not found")
  | Some path ->
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_pinned_obs_digests () =
  check Alcotest.(list string) "obs digests" (golden_lines "obs-digests.txt") (obs_digest_lines ())

(* --- pinned stall attribution: golden/attribution-digests.txt holds,
   for every app (small scale, seed 42, derived simulator config), the
   MD5 of the run report's attribution section and of
   Attribution.render, and the MD5 of Explore.to_csv of SPEC-BFS's
   default sweep.  The summed bucket totals in fingerprints.txt would
   not see a per-set or an encoding slip; these do. --- *)

let attribution_digest_lines () =
  let apps = Agp_exp.Workloads.all Agp_exp.Workloads.Small ~seed:42 in
  List.map
    (fun (app : App_instance.t) ->
      let config = Agp_backend.Backend.derive_config app Config.default in
      let r = app.App_instance.fresh () in
      let report =
        Accelerator.run ~config ~spec:app.App_instance.spec ~bindings:r.App_instance.bindings
          ~state:r.App_instance.state ~initial:r.App_instance.initial ()
      in
      let doc = Accelerator.obs_report ~app:app.App_instance.app_name ~config report in
      Printf.sprintf "%s report_attribution=%s render=%s" app.App_instance.app_name
        (md5 (Json.to_string (List.assoc "attribution" doc.Report.sections)))
        (md5 (Attribution.render report.Accelerator.attribution)))
    apps
  @ [
      Printf.sprintf "SPEC-BFS explore_csv=%s"
        (md5 (Agp_exp.Explore.to_csv (Agp_exp.Explore.sweep (List.hd apps))));
    ]

let test_pinned_attribution () =
  check Alcotest.(list string) "attribution digests" (golden_lines "attribution-digests.txt")
    (attribution_digest_lines ())

(* --- interval timeline --- *)

let test_timeline_sample_count () =
  let interval = 100 in
  let tl = Timeline.create ~interval () in
  let report, _ = observed_run ~timeline:tl () in
  let expected = (report.Accelerator.cycles + interval - 1) / interval in
  check Alcotest.int "ceil(cycles/interval) samples" expected (Timeline.sample_count tl);
  let samples = Timeline.samples tl in
  let last = List.nth samples (List.length samples - 1) in
  check Alcotest.int "last sample closes at run end" report.Accelerator.cycles
    last.Timeline.s_cycle;
  let cycles = List.map (fun s -> s.Timeline.s_cycle) samples in
  check Alcotest.bool "cycle column strictly increasing" true
    (List.sort_uniq compare cycles = cycles);
  List.iter
    (fun s ->
      let open Timeline in
      check Alcotest.bool "utilization in [0,1]" true
        (s.s_utilization >= 0.0 && s.s_utilization <= 1.0 +. 1e-9);
      check Alcotest.bool "hit rate in [0,1]" true
        (s.s_hit_rate >= 0.0 && s.s_hit_rate <= 1.0 +. 1e-9);
      check Alcotest.bool "window bytes non-negative" true (s.s_link_bytes >= 0))
    samples;
  match Json.member "samples" (Timeline.to_json tl) with
  | Some (Json.List rows) ->
      check Alcotest.int "one JSON row per sample" expected (List.length rows);
      List.iter
        (function
          | Json.Obj kvs ->
              check (Alcotest.list Alcotest.string) "row columns"
                [
                  "cycle"; "in_flight"; "pending"; "utilization"; "cache_hit_rate"; "link_bytes";
                  "link_util";
                ]
                (List.map fst kvs)
          | _ -> Alcotest.fail "a sample row is not an object")
        rows
  | _ -> Alcotest.fail "timeline JSON lacks a samples list"

let test_timeline_conservation () =
  (* window link-bytes must sum back to the run's cumulative total *)
  let tl = Timeline.create ~interval:64 () in
  let report, _ = observed_run ~timeline:tl () in
  let windowed =
    List.fold_left (fun acc s -> acc + s.Timeline.s_link_bytes) 0 (Timeline.samples tl)
  in
  check Alcotest.int "link bytes conserved across windows"
    report.Accelerator.bytes_over_link windowed

let test_accel_fully_instrumented_identical () =
  (* extends the null-sink guarantee to the new instruments: capturing
     events AND sampling a timeline must not change the simulation *)
  let bare, bare_run = observed_run () in
  let tl = Timeline.create ~interval:64 () in
  let instrumented, inst_run = observed_run ~sink:(Sink.collect ()) ~timeline:tl () in
  check Alcotest.bool "reports identical" true
    (fields_of_report bare = fields_of_report instrumented);
  check Alcotest.bool "attributions identical" true
    (Attribution.equal bare.Accelerator.attribution instrumented.Accelerator.attribution);
  check (Alcotest.list Alcotest.string) "same final memory" []
    (Agp_core.State.diff bare_run.App_instance.state inst_run.App_instance.state)

(* --- run reports --- *)

let captured_report ?config () =
  let app = small_app () in
  let run = app.App_instance.fresh () in
  let sink = Sink.collect () in
  let tl = Timeline.create ~interval:128 () in
  let config = Option.value config ~default:Config.default in
  let r =
    Accelerator.run ~config ~sink ~timeline:tl ~spec:app.App_instance.spec
      ~bindings:run.App_instance.bindings ~state:run.App_instance.state
      ~initial:run.App_instance.initial ()
  in
  Accelerator.obs_report ~app:app.App_instance.app_name ~events:(Sink.events sink)
    ~timeline:tl ~config r

let test_report_roundtrip_bit_identical () =
  let doc = captured_report () in
  let s = Report.to_string doc in
  match Report.of_string s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc2 ->
      check Alcotest.bool "emit -> parse -> emit bit-identical" true
        (String.equal s (Report.to_string doc2));
      check Alcotest.string "kind preserved" "accelerator-run" doc2.Report.kind;
      check (Alcotest.list Alcotest.string) "section order preserved"
        (List.map fst doc.Report.sections)
        (List.map fst doc2.Report.sections)

let test_report_envelope_validation () =
  let bad s affix =
    match Report.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
        if not (Astring.String.is_infix ~affix e) then
          Alcotest.failf "error for %S lacks %S: %s" s affix e
  in
  bad "[1,2]" "not a JSON object";
  bad "{\"kind\":\"x\",\"app\":\"y\"}" "schema_version";
  bad "{\"schema_version\":99,\"kind\":\"x\",\"app\":\"y\"}" "unsupported schema_version 99";
  bad "{\"schema_version\":99,\"kind\":\"x\",\"app\":\"y\"}"
    (Printf.sprintf "reads versions %d..%d" Report.min_readable_version Report.schema_version);
  bad "{\"schema_version\":0,\"kind\":\"x\",\"app\":\"y\"}" "unsupported schema_version 0";
  bad "{\"schema_version\":1,\"app\":\"y\"}" "kind";
  bad "{\"schema_version\":1" "line 1";
  (* v2 still reads v1 documents — old goldens and archived reports stay usable *)
  check Alcotest.bool "current version is 2" true (Report.schema_version = 2);
  match Report.of_string "{\"schema_version\":1,\"kind\":\"x\",\"app\":\"y\"}" with
  | Ok doc -> check Alcotest.string "v1 doc readable" "x" doc.Report.kind
  | Error e -> Alcotest.failf "v1 document rejected: %s" e

let test_report_flatten () =
  let doc =
    Report.v ~kind:"t" ~app:"a"
      ~meta:[ ("x", Json.Int 2) ]
      ~sections:
        [
          ( "s",
            Json.Obj
              [
                ("f", Json.Float 0.5);
                ("skip_list", Json.List [ Json.Int 1 ]);
                ("skip_str", Json.String "no");
                ("deep", Json.Obj [ ("n", Json.Int 7) ]);
              ] );
        ]
      ()
  in
  check Alcotest.bool "numeric leaves only, document order" true
    (Report.flatten doc = [ ("meta.x", 2.0); ("s.f", 0.5); ("s.deep.n", 7.0) ])

(* --- run diffing --- *)

let test_diff_identical () =
  let doc = captured_report () in
  let r = Diff.compare doc doc in
  check Alcotest.bool "has metrics to compare" true (List.length r.Diff.entries > 20);
  check Alcotest.int "no regressions" 0 r.Diff.regressions;
  check Alcotest.bool "not regressed" false (Diff.regressed r);
  check Alcotest.bool "all unchanged" true
    (List.for_all (fun e -> e.Diff.status = Diff.Unchanged) r.Diff.entries)

let test_diff_degraded_bandwidth_regresses () =
  let base = captured_report () in
  let slow = captured_report ~config:(Config.scale_bandwidth Config.default 0.25) () in
  let r = Diff.compare ~threshold:0.05 base slow in
  check Alcotest.bool "quartered QPI bandwidth flags a regression" true (Diff.regressed r);
  check Alcotest.bool "cycle count among the regressed metrics" true
    (List.exists
       (fun e -> e.Diff.key = "metrics.accel.cycles" && e.Diff.status = Diff.Regressed)
       r.Diff.entries);
  (* and the reverse comparison reads as an improvement, not a regression *)
  let r' = Diff.compare ~threshold:0.05 slow base in
  check Alcotest.bool "restoring bandwidth improves cycles" true
    (List.exists
       (fun e -> e.Diff.key = "metrics.accel.cycles" && e.Diff.status = Diff.Improved)
       r'.Diff.entries)

let test_diff_directions_and_shape () =
  let mk kv = Report.v ~kind:"t" ~app:"a" ~sections:[ ("m", Json.Obj kv) ] () in
  let a =
    mk [ ("cycles", Json.Int 100); ("utilization", Json.Float 0.5); ("note", Json.Int 1) ]
  in
  let b =
    mk [ ("cycles", Json.Int 150); ("utilization", Json.Float 0.25); ("note", Json.Int 2) ]
  in
  let r = Diff.compare a b in
  check Alcotest.int "cycles up + utilization down = two regressions" 2 r.Diff.regressions;
  check Alcotest.int "unrecognized key only informs" 1 r.Diff.changes;
  let r' = Diff.compare b a in
  check Alcotest.int "reverse direction: no regressions" 0 r'.Diff.regressions;
  check Alcotest.int "reverse direction: two improvements" 2 r'.Diff.improvements;
  (* added/removed metrics never gate *)
  let c = mk [ ("cycles", Json.Int 100) ] in
  let r'' = Diff.compare a c in
  check Alcotest.bool "removed metric does not gate" false (Diff.regressed r'');
  check Alcotest.bool "removal is reported" true
    (List.exists (fun e -> e.Diff.status = Diff.Removed) r''.Diff.entries);
  (* within-threshold drift is unchanged *)
  let d = mk [ ("cycles", Json.Int 103); ("utilization", Json.Float 0.5); ("note", Json.Int 1) ] in
  let r3 = Diff.compare ~threshold:0.05 a d in
  check Alcotest.int "3% drift within 5% threshold" 0 (r3.Diff.regressions + r3.Diff.changes);
  let table = Diff.render r in
  check Alcotest.bool "render flags the regression" true
    (Astring.String.is_infix ~affix:"REGRESSED" table)

let test_diff_cycles_per_sec_higher_better () =
  (* "cycles_per_sec" must match the higher-is-better token before the
     lower-is-better "cycles" token: a throughput drop is the regression *)
  let mk v =
    Report.v ~kind:"t" ~app:"a"
      ~sections:[ ("m", Json.Obj [ ("sim_cycles_per_sec", Json.Float v) ]) ]
      ()
  in
  let fast = mk 4.0e6 and slow = mk 1.0e6 in
  let r = Diff.compare fast slow in
  check Alcotest.bool "throughput drop regresses" true (Diff.regressed r);
  check Alcotest.bool "keyed on sim_cycles_per_sec" true
    (List.exists
       (fun e -> e.Diff.key = "m.sim_cycles_per_sec" && e.Diff.status = Diff.Regressed)
       r.Diff.entries);
  let r' = Diff.compare slow fast in
  check Alcotest.int "throughput gain never gates" 0 r'.Diff.regressions;
  check Alcotest.bool "gain reads as improvement" true
    (List.exists
       (fun e -> e.Diff.key = "m.sim_cycles_per_sec" && e.Diff.status = Diff.Improved)
       r'.Diff.entries)

let test_diff_trend () =
  let mk ?ops sim steps =
    Report.v ~kind:"bench" ~app:"all"
      ~sections:
        [
          ("sim_throughput", Json.Obj [ ("sim_cycles_per_sec", Json.Float sim) ]);
          ( "runtime_throughput",
            Json.Obj
              (("runtime_steps_per_sec", Json.Float steps)
              :: (match ops with Some o -> [ ("ops_per_sec", Json.Float o) ] | None -> [])) );
        ]
      ()
  in
  let table =
    Diff.trend [ ("old.json", mk 1000.0 400.0); ("new.json", mk ~ops:9000.0 1250.0 300.0) ]
  in
  let lines = String.split_on_char '\n' table in
  let row name = List.find (fun l -> Astring.String.is_infix ~affix:name l) lines in
  let cells l = List.map String.trim (String.split_on_char '|' l) in
  check (Alcotest.list Alcotest.string) "first row: values, no change"
    [ ""; "old.json"; "1000"; "400"; "-"; "" ]
    (cells (row "old.json"));
  check (Alcotest.list Alcotest.string) "second row: change against the first"
    [ ""; "new.json"; "1250 (+25.0%)"; "300 (-25.0%)"; "9000"; "" ]
    (cells (row "new.json"));
  check Alcotest.bool "rows in the order given" true
    (Astring.String.find_sub ~sub:"old.json" table < Astring.String.find_sub ~sub:"new.json" table)

(* --- CLI diff exit codes (0 clean / 1 regression / 2 malformed) --- *)

let cli_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "agp_cli.exe"

let test_cli_diff_exit_codes () =
  if not (Sys.file_exists cli_exe) then ()
  else begin
    let write path s =
      let oc = open_out path in
      output_string oc s;
      output_char oc '\n';
      close_out oc
    in
    let a = Filename.temp_file "agp_base" ".json" in
    let b = Filename.temp_file "agp_slow" ".json" in
    let m = Filename.temp_file "agp_bad" ".json" in
    write a (Report.to_string (captured_report ()));
    write b
      (Report.to_string (captured_report ~config:(Config.scale_bandwidth Config.default 0.25) ()));
    write m "{ this is not json";
    let run args = Sys.command (Printf.sprintf "%s diff %s >/dev/null 2>&1" cli_exe args) in
    check Alcotest.int "identical reports exit 0" 0 (run (a ^ " " ^ a));
    check Alcotest.int "regressed report exits 1" 1 (run (a ^ " " ^ b));
    check Alcotest.int "malformed report exits 2" 2 (run (a ^ " " ^ m));
    check Alcotest.int "missing file exits 2" 2 (run (a ^ " /nonexistent/x.json"));
    List.iter Sys.remove [ a; b; m ]
  end

(* --- Explore sweep export --- *)

let test_explore_csv_and_report () =
  let app = small_app () in
  let candidates =
    [ { Agp_exp.Explore.lanes = 64; pipelines_per_set = 2; window_factor = 1 } ]
  in
  let outcomes = Agp_exp.Explore.sweep ~candidates app in
  let csv = Agp_exp.Explore.to_csv outcomes in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "header + one row per candidate" (List.length outcomes + 1)
    (List.length lines);
  check Alcotest.string "csv header"
    "lanes,pipes_per_set,window,cycles,utilization,mem_frac,rdv_frac,squash_frac,alms,registers,fits"
    (List.hd lines);
  let doc = Agp_exp.Explore.report app outcomes in
  check Alcotest.string "report kind" "explore-sweep" doc.Report.kind;
  match Report.of_string (Report.to_string doc) with
  | Ok doc2 ->
      check Alcotest.bool "sweep report round-trips" true
        (String.equal (Report.to_string doc) (Report.to_string doc2))
  | Error e -> Alcotest.failf "sweep report does not reparse: %s" e

let () =
  Alcotest.run "agp_obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "error positions" `Quick test_json_error_positions;
          Alcotest.test_case "fuzz never raises" `Quick test_json_fuzz_never_raises;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "percentile" `Quick test_metrics_percentile;
        ] );
      ( "window",
        [
          Alcotest.test_case "observe and prune" `Quick test_window_observe_and_prune;
          Alcotest.test_case "cap drops oldest" `Quick test_window_cap_drops_oldest;
          Alcotest.test_case "observe is cheap" `Quick test_window_observe_is_cheap;
          QCheck_alcotest.to_alcotest prop_window_matches_naive;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "name sanitization" `Quick test_telemetry_sanitize;
          Alcotest.test_case "prometheus exposition" `Quick test_telemetry_prometheus;
        ] );
      ( "log",
        [ Alcotest.test_case "ndjson lines" `Quick test_log_ndjson ] );
      ( "sink",
        [
          Alcotest.test_case "null" `Quick test_sink_null;
          Alcotest.test_case "collect" `Quick test_sink_collect;
          Alcotest.test_case "ring" `Quick test_sink_ring;
        ] );
      ( "components",
        [
          Alcotest.test_case "memory events" `Quick test_memory_events;
        ] );
      ( "accelerator",
        [
          Alcotest.test_case "event taxonomy" `Quick test_accel_event_taxonomy;
          Alcotest.test_case "attribution sums" `Quick test_accel_attribution_sums;
          Alcotest.test_case "null sink identical" `Quick test_accel_null_sink_identical;
          Alcotest.test_case "squash waste" `Quick test_accel_squash_waste_appears;
          Alcotest.test_case "reclassify + render" `Quick test_attribution_render_and_reclassify;
        ] );
      ( "chrome_trace",
        [
          Alcotest.test_case "well-formed" `Quick test_chrome_trace_wellformed;
          Alcotest.test_case "stable ids" `Quick test_chrome_trace_stable;
          Alcotest.test_case "row naming" `Quick test_chrome_trace_rows;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "span phase invariant" `Quick test_lifecycle_span_invariant;
          Alcotest.test_case "per-set summary" `Quick test_lifecycle_summarize;
        ] );
      ( "golden",
        [
          Alcotest.test_case "pinned obs digests" `Quick test_pinned_obs_digests;
          Alcotest.test_case "pinned attribution" `Quick test_pinned_attribution;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "sample count" `Quick test_timeline_sample_count;
          Alcotest.test_case "window conservation" `Quick test_timeline_conservation;
          Alcotest.test_case "no observer effect" `Quick test_accel_fully_instrumented_identical;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip bit-identical" `Quick test_report_roundtrip_bit_identical;
          Alcotest.test_case "envelope validation" `Quick test_report_envelope_validation;
          Alcotest.test_case "flatten" `Quick test_report_flatten;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical clean" `Quick test_diff_identical;
          Alcotest.test_case "degraded bandwidth regresses" `Quick
            test_diff_degraded_bandwidth_regresses;
          Alcotest.test_case "directions and shape" `Quick test_diff_directions_and_shape;
          Alcotest.test_case "cycles/sec higher-better" `Quick
            test_diff_cycles_per_sec_higher_better;
          Alcotest.test_case "trend over reports" `Quick test_diff_trend;
          Alcotest.test_case "cli exit codes" `Quick test_cli_diff_exit_codes;
        ] );
      ( "explore_export",
        [ Alcotest.test_case "csv and report" `Quick test_explore_csv_and_report ] );
    ]
