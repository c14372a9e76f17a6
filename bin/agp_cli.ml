(* Command-line driver: regenerate any of the paper's experiments, dump
   compiled dataflow graphs, or run a single application on a chosen
   platform model. *)

open Cmdliner
module Experiments = Agp_exp.Experiments
module Workloads = Agp_exp.Workloads
module Backend = Agp_backend.Backend

(* Exit codes: 0 success, 1 invalid result / usage error, 2 malformed
   diff input, 3 liveness failure (deadlock or step-limit) — typed
   separately so CI can tell a spec liveness bug from a crash. *)
let liveness_exit = 3

let scale_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Workloads.scale_of_string s) in
  let print fmt s = Format.fprintf fmt "%s" (Workloads.scale_name s) in
  Arg.(
    value
    & opt (conv (parse, print)) Workloads.Default
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Workload scale: small, medium, default, large or huge.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload generator seed.")

let fig9_cmd =
  let run scale seed =
    Experiments.print_fig9 (Experiments.fig9 ~scale ~seed ())
  in
  Cmd.v (Cmd.info "fig9" ~doc:"Figure 9: accelerator speedup over 1-core and 10-core software.")
    Term.(const run $ scale_arg $ seed_arg)

let fig10_cmd =
  (* this sweep simulates 24 accelerator runs, so its default scale is
     medium rather than the global default *)
  let fig10_scale_arg =
    let parse s = Result.map_error (fun e -> `Msg e) (Workloads.scale_of_string s) in
    let print fmt s = Format.fprintf fmt "%s" (Workloads.scale_name s) in
    Arg.(
      value
      & opt (conv (parse, print)) Workloads.Medium
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Workload scale: small, medium, default, large or huge (default: medium).")
  in
  let run scale seed = Experiments.print_fig10 (Experiments.fig10 ~scale ~seed ()) in
  Cmd.v (Cmd.info "fig10" ~doc:"Figure 10: QPI bandwidth sweep (speedup and pipeline utilization).")
    Term.(const run $ fig10_scale_arg $ seed_arg)

let table1_cmd =
  let run scale seed = Experiments.print_table1 (Experiments.table1 ~scale ~seed ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Table 1: OpenCL-HLS BFS vs generated SPEC-BFS and COOR-BFS.")
    Term.(const run $ scale_arg $ seed_arg)

let resources_cmd =
  let run () = Experiments.print_resources (Experiments.resources ()) in
  Cmd.v (Cmd.info "resources" ~doc:"Section 6.2: FPGA resource breakdown per accelerator.")
    Term.(const run $ const ())

let schedule_cmd =
  let run () = print_string (Experiments.schedule_diagram ()) in
  Cmd.v (Cmd.info "schedule" ~doc:"Figure 2(b): barrier vs dataflow schedule diagrams.")
    Term.(const run $ const ())

let app_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"APP" ~doc:"One of: spec-bfs, coor-bfs, spec-sssp, spec-mst, spec-dmr, coor-lu.")

let find_app scale seed name = Workloads.find name scale ~seed

let dot_cmd =
  let run scale seed name =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app ->
        let prog = Agp_core.Opcode.compile app.Agp_apps.App_instance.spec in
        print_string (Agp_dataflow.Bdfg.to_dot (Agp_dataflow.Bdfg.of_program prog))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump the compiled Boolean dataflow graph of an application (Graphviz).")
    Term.(const run $ scale_arg $ seed_arg $ app_arg)

let spec_cmd =
  let run scale seed name =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app -> Format.printf "%a@." Agp_core.Spec.pp app.Agp_apps.App_instance.spec
  in
  Cmd.v (Cmd.info "spec" ~doc:"Print an application's task/rule specification.")
    Term.(const run $ scale_arg $ seed_arg $ app_arg)

let amplify_cmd =
  let run scale seed =
    Agp_exp.Amplification.print (Agp_exp.Amplification.table ~scale ~seed ())
  in
  Cmd.v
    (Cmd.info "amplify"
       ~doc:
         "Work amplification of aggressive parallelization: activated vs. algorithmically \
          necessary tasks per benchmark (the flooding of §6.3).")
    Term.(const run $ scale_arg $ seed_arg)

let write_file ~what path contents =
  let oc =
    try open_out path
    with Sys_error e ->
      Printf.eprintf "cannot write %s: %s\n" what e;
      exit 1
  in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

let explore_cmd =
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also export the sweep table as CSV to $(docv).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write a machine-readable sweep report (JSON) to $(docv).")
  in
  let run scale seed name csv report =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app ->
        let outcomes = Agp_exp.Explore.sweep app in
        Agp_exp.Explore.print app outcomes;
        Option.iter
          (fun path ->
            write_file ~what:"sweep CSV" path (String.trim (Agp_exp.Explore.to_csv outcomes));
            Printf.printf "wrote %s\n" path)
          csv;
        Option.iter
          (fun path ->
            write_file ~what:"sweep report" path
              (Agp_obs.Report.to_string (Agp_exp.Explore.report app outcomes));
            Printf.printf "wrote %s\n" path)
          report
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Design-space exploration (the paper's future-work item): sweep rule lanes, pipeline \
          replication and window depth, rank by simulated cycles.")
    Term.(const run $ scale_arg $ seed_arg $ app_arg $ csv_arg $ report_arg)

(* [--bandwidth] swaps in a simulator on a scaled QPI link *)
let resolve_backend name ~bw ~max_steps =
  match Backend.find name with
  | Error _ as e -> e
  | Ok b ->
      let b =
        if b.Backend.name = "simulator" && bw <> 1.0 then
          Backend.simulator ~config:(Agp_hw.Config.scale_bandwidth Agp_hw.Config.default bw) ()
        else b
      in
      (match max_steps with
      | None -> Ok b
      | Some n -> Backend.with_max_steps b n)

(* [Backend.run] with the CLI's exit codes for an unsupported pair and
   a liveness failure *)
let run_backend ?sink b app =
  match Backend.run ?sink b app with
  | exception Backend.Unsupported { backend; app; reason } ->
      Printf.eprintf "%s is unsupported on backend %s: %s\n" app backend reason;
      exit 1
  | exception exn -> (
      match Backend.liveness_failure exn with
      | Some msg ->
          Printf.eprintf "liveness failure: %s\n" msg;
          exit liveness_exit
      | None -> raise exn)
  | res -> res

(* the bounded capture every observed run hands [Backend.run] *)
let observed_sink () = Agp_obs.Sink.ring ~capacity:Backend.obs_ring_capacity

let write_report path doc =
  write_file ~what:"run report" path (Agp_obs.Report.to_string doc);
  Printf.printf "wrote %s (schema v%d; diff two of these with `agp diff`)\n" path
    Agp_obs.Report.schema_version

let trace_cmd =
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Workers for the traced runtime.")
  in
  let ticks_arg =
    Arg.(value & opt int 40 & info [ "ticks" ] ~doc:"Scheduler ticks to render.")
  in
  let run scale seed name workers ticks =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app ->
        let trace = Agp_obs.Worker_trace.create ~ticks in
        let runtime = Backend.runtime ~workers () in
        ignore (run_backend ~sink:(Agp_obs.Worker_trace.sink trace) runtime app);
        Printf.printf "timeline (first %d ticks; cells are task indices, ~ = rendezvous stall, * \
                       = squash):\n%s\n"
          ticks
          (Agp_obs.Worker_trace.render trace);
        List.iter
          (fun (set, committed, aborted, retried, blocks) ->
            Printf.printf "%-10s committed %-6d aborted %-6d retried %-6d rendezvous stalls %d\n"
              set committed aborted retried blocks)
          (Agp_obs.Worker_trace.summary trace)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Traced software-runtime execution (the debugging flow of §4.4): worker timeline and \
             per-set squash statistics over the whole run.")
    Term.(const run $ scale_arg $ seed_arg $ app_arg $ workers_arg $ ticks_arg)

let run_cmd =
  let backend_arg =
    Arg.(
      value
      & opt string "simulator"
      & info [ "backend"; "platform" ] ~docv:"B"
          ~doc:
            "Execution backend from the registry (list them with $(b,agp backends)): \
             sequential, runtime[:workers], simulator (alias: fpga), cpu-1core, cpu-10core, \
             opencl.")
  in
  let bw_arg =
    Arg.(
      value & opt float 1.0 & info [ "bandwidth" ] ~doc:"QPI bandwidth multiplier (simulator).")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Scheduler-tick budget for worker-pool backends (runtime[:workers]); exceeding it \
             is a liveness failure (exit 3).")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a schema-versioned machine-readable run report (JSON) to $(docv) — the \
             artifact $(b,agp diff) compares.  Requires an obs-capable backend.")
  in
  let print_native = function
    | Backend.Stepper r ->
        if r.Agp_core.Semantics.steps > 0 then
          Printf.printf "  %d steps, peak %d running, peak %d parked, mean busy %.2f\n"
            r.Agp_core.Semantics.steps r.Agp_core.Semantics.max_concurrency
            r.Agp_core.Semantics.max_waiting r.Agp_core.Semantics.avg_busy
    | Backend.Simulated r ->
        Printf.printf "  %d cycles, utilization %.1f%%, cache hit %.1f%%\n"
          r.Agp_hw.Accelerator.cycles
          (100.0 *. r.Agp_hw.Accelerator.utilization)
          (100.0 *. r.Agp_hw.Accelerator.mem_hit_rate)
    | Backend.Cpu r ->
        Printf.printf "  1-core %.3f ms / 10-core %.3f ms, %d ops, L1 hit %.1f%%\n"
          (r.Agp_baseline.Cpu_model.seconds_1core *. 1e3)
          (r.Agp_baseline.Cpu_model.seconds_10core *. 1e3)
          r.Agp_baseline.Cpu_model.ops
          (100.0 *. r.Agp_baseline.Cpu_model.l1_hit_rate)
    | Backend.Opencl r ->
        Printf.printf "  %d host rounds, %d kernel launches, %d bytes over the link\n"
          r.Agp_baseline.Opencl_model.rounds r.Agp_baseline.Opencl_model.kernel_launches
          r.Agp_baseline.Opencl_model.bytes_moved
  in
  let run scale seed name backend bw max_steps report_out =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app -> begin
        match resolve_backend backend ~bw ~max_steps with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok b -> begin
            if report_out <> None && not b.Backend.capabilities.Backend.obs_report then begin
              Printf.eprintf "backend %s cannot emit a run report (no obs capability)\n"
                b.Backend.name;
              exit 1
            end;
            let sink = if report_out <> None then observed_sink () else Agp_obs.Sink.null in
            let res = run_backend ~sink b app in
            Printf.printf "%s on %s — %s\n" res.Backend.app_name b.Backend.name
              b.Backend.summary;
            Option.iter (fun t -> Printf.printf "  %d tasks reached an outcome\n" t)
              res.Backend.tasks_run;
            Option.iter (fun s -> Printf.printf "  time: %.3f ms\n" (s *. 1e3))
              res.Backend.seconds;
            Option.iter
              (fun (s : Agp_core.Engine.stats) ->
                Printf.printf "  committed %d, aborted %d, retried %d\n"
                  s.Agp_core.Engine.committed s.Agp_core.Engine.aborted
                  s.Agp_core.Engine.retried)
              res.Backend.engine_stats;
            print_native res.Backend.native;
            Option.iter
              (fun path -> Option.iter (write_report path) res.Backend.obs)
              report_out;
            (match res.Backend.check with
            | Ok () when b.Backend.capabilities.Backend.validates ->
                print_endline "result: VALID (matches substrate reference)"
            | Ok () -> print_endline "result: n/a (timing model; no state executed)"
            | Error e ->
                Printf.printf "result: INVALID (%s)\n" e;
                exit 1)
          end
      end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one application on any registered backend and validate the result.  Exits 0 on a \
          valid run, 1 on an invalid result or usage error, 3 on a liveness failure (deadlock \
          or step-limit)."
       ~man:
         [
           `S Manpage.s_examples;
           `P "agp run spec-bfs --backend simulator --scale small --report r.json";
           `P "agp run spec-sssp --backend runtime:4";
         ])
    Term.(
      const run $ scale_arg $ seed_arg $ app_arg $ backend_arg $ bw_arg $ max_steps_arg
      $ report_arg)

let backends_cmd =
  let run () =
    let t =
      Agp_util.Table.create [ "name"; "timed"; "obs"; "validates"; "description" ]
    in
    let flag v = if v then "yes" else "-" in
    List.iter
      (fun (b : Backend.t) ->
        let c = b.Backend.capabilities in
        Agp_util.Table.add_row t
          [
            b.Backend.name;
            flag c.Backend.timed;
            flag c.Backend.obs_report;
            flag c.Backend.validates;
            b.Backend.summary;
          ])
      Backend.all;
    Agp_util.Table.print t;
    let forms = List.map (fun (n, what) -> Printf.sprintf "%s:<%s>" n what) Backend.parameterized in
    let aliases = List.map (fun (a, n) -> Printf.sprintf "`%s` aliases `%s`" a n) Backend.aliases in
    let footer = ("parameterized form: " ^ String.concat ", " forms) :: aliases in
    print_endline (String.concat "; " footer)
  in
  Cmd.v
    (Cmd.info "backends"
       ~doc:"List the registered execution backends with their capability flags.")
    Term.(const run $ const ())

let observe_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the Chrome trace-event JSON.")
  in
  let bw_arg =
    Arg.(value & opt float 1.0 & info [ "bandwidth" ] ~doc:"QPI bandwidth multiplier.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write a schema-versioned machine-readable run report (JSON) to $(docv) — the \
             artifact $(b,agp diff) compares.")
  in
  let run scale seed name bw out report_out =
    match find_app scale seed name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok app ->
        let module Obs = Agp_obs in
        let b = Result.get_ok (resolve_backend "simulator" ~bw ~max_steps:None) in
        let sink = observed_sink () in
        let res = run_backend ~sink b app in
        begin
          match res.Backend.check with
          | Ok () -> ()
          | Error e ->
              Printf.printf "result: INVALID (%s)\n" e;
              exit 1
        end;
        let report = Option.get (Backend.simulated_report res) in
        let events = Obs.Sink.events sink in
        write_file ~what:"trace" out
          (Obs.Chrome_trace.to_string ~trace_name:app.Agp_apps.App_instance.app_name events);
        Printf.printf "%s on FPGA model: %d cycles (%.3f ms), utilization %.1f%%\n"
          res.Backend.app_name report.Agp_hw.Accelerator.cycles
          (report.Agp_hw.Accelerator.seconds *. 1e3)
          (100.0 *. report.Agp_hw.Accelerator.utilization);
        Printf.printf
          "wrote %s (%d events kept, %d dropped) — load it in chrome://tracing or \
           ui.perfetto.dev\n\n"
          out (List.length events) (Obs.Sink.dropped sink);
        print_endline "stall attribution (pipeline-cycles per task set):";
        print_endline (Obs.Attribution.render report.Agp_hw.Accelerator.attribution);
        let spans, unfinished = Obs.Lifecycle.spans events in
        Printf.printf "task lifecycle (dispatch-to-retire percentiles, cycles; %d unretired):\n"
          unfinished;
        print_endline (Obs.Lifecycle.render (Obs.Lifecycle.summarize spans));
        let reg = Agp_hw.Accelerator.metrics_registry ~spans report in
        Obs.Metrics.add (Obs.Metrics.counter reg "obs.events") (Obs.Sink.count sink);
        print_endline "metrics:";
        print_string (Obs.Metrics.to_text reg);
        Option.iter (fun path -> write_report path (Option.get res.Backend.obs)) report_out
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         (Printf.sprintf
            "Run one application on the cycle model with observability: capture the run's last \
             %d events, write them as a Perfetto-loadable trace.json, print the \
             stall-attribution, lifecycle and metrics views, and optionally emit the \
             machine-readable run report."
            Backend.obs_ring_capacity))
    Term.(const run $ scale_arg $ seed_arg $ app_arg $ bw_arg $ out_arg $ report_arg)

let diff_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"REPORT"
          ~doc:
            "Run reports (JSON): BASELINE then CURRENT, or with $(b,--trend) any number, oldest \
             first.")
  in
  let trend_arg =
    Arg.(
      value & flag
      & info [ "trend" ]
          ~doc:
            "Print one row per report, in the order given, with its simulated cycles, runtime \
             steps and runtime ops per second and each one's change against the previous \
             report.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float 0.05
      & info [ "threshold" ] ~docv:"FRAC"
          ~doc:"Relative-change threshold below which a metric counts as unchanged.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the comparison as JSON instead of a table.")
  in
  let all_arg =
    Arg.(value & flag & info [ "all" ] ~doc:"Include unchanged metrics in the output.")
  in
  let run files threshold json all trend =
    let module Obs = Agp_obs in
    let read path =
      let contents =
        try
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        with Sys_error e ->
          Printf.eprintf "cannot read %s: %s\n" path e;
          exit 2
      in
      match Obs.Report.of_string contents with
      | Ok r -> r
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 2
    in
    match files with
    | _ when trend ->
        print_string (Obs.Diff.trend (List.map (fun f -> (f, read f)) files));
        `Ok ()
    | [ a; b ] ->
        let ra = read a and rb = read b in
        if ra.Obs.Report.kind <> rb.Obs.Report.kind then
          Printf.eprintf "note: comparing different report kinds (%s vs %s)\n"
            ra.Obs.Report.kind rb.Obs.Report.kind;
        let result = Obs.Diff.compare ~threshold ra rb in
        if json then print_endline (Obs.Json.to_string (Obs.Diff.to_json ~all result))
        else print_string (Obs.Diff.render ~all result);
        exit (if Obs.Diff.regressed result then 1 else 0)
    | _ -> `Error (true, "expected BASELINE and CURRENT (or --trend with any number of reports)")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Structurally compare two run reports: flag metrics whose relative change exceeds the \
          threshold in the bad direction. Exits 0 when clean, 1 on regression, 2 on \
          malformed/unreadable input."
       ~man:
         [
           `S Manpage.s_examples;
           `P "agp observe spec-bfs --scale small --report base.json";
           `P "agp observe spec-bfs --scale small --bandwidth 0.5 --report slow.json";
           `P "agp diff base.json slow.json   # non-zero exit: cycles regressed";
           `P "agp diff --trend bench/BENCH_*.json   # the committed perf trajectory";
         ])
    Term.(ret (const run $ files $ threshold_arg $ json_arg $ all_arg $ trend_arg))

let version_cmd =
  let run () =
    Printf.printf "agp %s (serve protocol v%d, obs report schema v%d)\n"
      Agp_util.Version.version Agp_serve.Protocol.protocol_version
      Agp_obs.Report.schema_version
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the toolkit version plus the serve wire-protocol and obs report schema \
          versions — the triple a daemon and its clients compare during the hello handshake.")
    Term.(const run $ const ())

let addr_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (Agp_serve.Server.addr_of_string s) in
  let print fmt a = Format.pp_print_string fmt (Agp_serve.Server.addr_to_string a) in
  Arg.(
    value
    & opt (conv (parse, print)) (Agp_serve.Server.Unix_path "/tmp/agp-serve.sock")
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:PATH) (or any path containing /) for a Unix-domain \
           socket, $(b,HOST:PORT) or $(b,:PORT) for TCP.")

let serve_cmd =
  let module Serve = Agp_serve in
  let shards_arg =
    Arg.(value & opt int Serve.Scheduler.default_config.Serve.Scheduler.shards
         & info [ "shards" ] ~docv:"N" ~doc:"Worker shards executing requests.")
  in
  let batch_arg =
    Arg.(value & opt int Serve.Scheduler.default_config.Serve.Scheduler.max_batch
         & info [ "max-batch" ] ~docv:"N"
             ~doc:"Max compatible requests fused into one batch (shared workload build).")
  in
  let depth_arg =
    Arg.(value & opt int Serve.Admission.default_config.Serve.Admission.queue_depth
         & info [ "queue-depth" ] ~docv:"N" ~doc:"Bounded admission queue capacity.")
  in
  let watermark_arg =
    Arg.(value & opt (some int) None
         & info [ "shed-watermark" ] ~docv:"N"
             ~doc:"Queue depth past which new requests are shed (default: queue depth).")
  in
  let quota_arg =
    Arg.(value & opt int Serve.Admission.default_config.Serve.Admission.tenant_quota
         & info [ "tenant-quota" ] ~docv:"N" ~doc:"Max in-flight requests per tenant.")
  in
  let trace_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:
               "Capture per-request Chrome trace spans (queue/build/execute per request \
                id) and write $(i,DIR)/serve-trace.json when the daemon drains.")
  in
  let log_level_arg =
    Arg.(value & opt string "info"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:
               "Structured NDJSON log threshold on stderr: debug, info, warn or error. \
                Lines carry the request id for correlation with traces and reports.")
  in
  let run addr shards max_batch queue_depth watermark tenant_quota trace_dir log_level =
    if shards < 1 || max_batch < 1 || queue_depth < 1 || tenant_quota < 1 then begin
      prerr_endline "serve: shards, max-batch, queue-depth and tenant-quota must be >= 1";
      exit 1
    end;
    let level =
      match Agp_obs.Log.level_of_string log_level with
      | Ok l -> l
      | Error e ->
          prerr_endline ("serve: " ^ e);
          exit 1
    in
    let log = Agp_obs.Log.create ~level ~clock:Unix.gettimeofday ~out:stderr () in
    let config =
      {
        Serve.Server.admission =
          {
            Serve.Admission.queue_depth;
            shed_watermark = Option.value ~default:queue_depth watermark;
            tenant_quota;
          };
        scheduler = { Serve.Scheduler.shards; max_batch };
      }
    in
    let server = Serve.Server.create ~config ~log ?trace_dir () in
    Agp_obs.Log.info log
      ~fields:
        [
          ("version", Agp_obs.Json.String Agp_util.Version.version);
          ("addr", Agp_obs.Json.String (Serve.Server.addr_to_string addr));
          ("shards", Agp_obs.Json.Int shards);
          ("queue_depth", Agp_obs.Json.Int queue_depth);
          ("tenant_quota", Agp_obs.Json.Int tenant_quota);
        ]
      "agp-serve starting";
    match Serve.Server.listen server ~addr with
    | () -> ()
    | exception Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "serve: %s failed: %s\n" fn (Unix.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on accelerator daemon: accept newline-delimited JSON run requests \
          over a Unix or TCP socket, batch compatible ones across a pool of worker shards, \
          shed typed Overloaded responses past the backpressure watermark, and stream back \
          per-request verdicts and obs run reports."
       ~man:
         [
           `S Manpage.s_examples;
           `P "agp serve --addr unix:/tmp/agp.sock --shards 4";
           `P "agp serve --addr :7421 --queue-depth 64 --shed-watermark 48";
           `P "agp serve --addr unix:/tmp/agp.sock --trace-dir traces --log-level debug";
           `P "echo '{\"type\":\"ping\"}' | nc -U /tmp/agp.sock";
         ])
    Term.(
      const run $ addr_arg $ shards_arg $ batch_arg $ depth_arg $ watermark_arg $ quota_arg
      $ trace_dir_arg $ log_level_arg)

let stats_cmd =
  let follow_arg =
    Arg.(value & flag
         & info [ "follow" ]
             ~doc:"Keep scraping: print a fresh snapshot every $(b,--interval) seconds.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Delay between snapshots with $(b,--follow).")
  in
  let run addr follow interval =
    if interval <= 0.0 then begin
      prerr_endline "stats: interval must be positive";
      exit 1
    end;
    let fetch () =
      match Agp_serve.Loadgen.fetch_metrics addr with
      | Ok text ->
          print_string text;
          flush stdout
      | Error e ->
          prerr_endline ("stats: " ^ e);
          exit 1
    in
    fetch ();
    if follow then
      while true do
        Thread.delay interval;
        print_newline ();
        fetch ()
      done
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a running $(b,agp serve) daemon's live telemetry as Prometheus text \
          exposition: request counters since boot, queue-depth, in-flight and uptime \
          gauges, and four rolling windows (p50/p90/p99 over the last 60 s, lifetime \
          count) for request latency, queueing, workload build and execution."
       ~man:
         [
           `S Manpage.s_examples;
           `P "agp stats --addr unix:/tmp/agp.sock";
           `P "agp stats --addr :7421 --follow --interval 1";
         ])
    Term.(const run $ addr_arg $ follow_arg $ interval_arg)

let loadgen_cmd =
  let module Serve = Agp_serve in
  let backend_name_arg =
    Arg.(value & opt string "simulator"
         & info [ "backend" ] ~docv:"NAME" ~doc:"Backend each request should run on.")
  in
  let tenant_arg =
    Arg.(value & opt string "loadgen"
         & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant name requests are accounted to.")
  in
  let obs_arg =
    Arg.(value & flag
         & info [ "obs" ] ~doc:"Request an embedded obs run report with each result.")
  in
  let rates_arg =
    Arg.(value & opt (list float) [ 25.0; 50.0; 100.0; 200.0 ]
         & info [ "rates" ] ~docv:"R1,R2,.."
             ~doc:"Open-loop offered loads (requests/sec) for the saturation sweep.")
  in
  let duration_arg =
    Arg.(value & opt float 2.0
         & info [ "duration" ] ~docv:"SECONDS" ~doc:"Time spent at each offered rate.")
  in
  let closed_arg =
    Arg.(value & flag
         & info [ "closed" ]
             ~doc:"Closed-loop mode: a fixed worker pool instead of paced arrivals.")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop mode: concurrent connections.")
  in
  let requests_arg =
    Arg.(value & opt int 50
         & info [ "requests" ] ~docv:"N" ~doc:"Closed-loop mode: requests per connection.")
  in
  let json_out_arg =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:
               "Write the sweep as a schema-versioned serve-saturation report — comparable \
                with $(b,agp diff) to gate serving-throughput regressions.")
  in
  let stop_arg =
    Arg.(value & flag
         & info [ "stop" ] ~doc:"Just ask the daemon to drain and shut down, then exit.")
  in
  let run addr scale seed app backend tenant obs rates duration closed clients requests
      json_out stop =
    let fail e =
      prerr_endline ("loadgen: " ^ e);
      exit 1
    in
    if stop then begin
      match Serve.Loadgen.shutdown addr with
      | Ok completed -> Printf.printf "daemon drained after %d completed requests\n" completed
      | Error e -> fail e
    end
    else begin
      let spec =
        {
          Serve.Loadgen.app;
          scale = Workloads.scale_name scale;
          seed;
          backend;
          tenant;
          obs;
        }
      in
      let summaries =
        if closed then begin
          match Serve.Loadgen.closed_loop ~spec ~addr ~clients ~requests () with
          | Ok s -> [ s ]
          | Error e -> fail e
        end
        else begin
          match Serve.Loadgen.saturation ~spec ~addr ~rates ~duration_s:duration () with
          | Ok ss -> ss
          | Error e -> fail e
        end
      in
      print_endline (Serve.Loadgen.render summaries);
      Option.iter
        (fun path ->
          let doc =
            Serve.Loadgen.report
              ~meta:
                [
                  ("app", spec.Serve.Loadgen.app);
                  ("scale", spec.Serve.Loadgen.scale);
                  ("backend", spec.Serve.Loadgen.backend);
                  ("mode", (if closed then "closed" else "open"));
                ]
              summaries
          in
          write_file ~what:"saturation report" path (Agp_obs.Report.to_string doc);
          Printf.printf "wrote %s (schema v%d; diff two of these with `agp diff`)\n" path
            Agp_obs.Report.schema_version)
        json_out;
      if List.exists (fun s -> s.Serve.Loadgen.lost > 0) summaries then begin
        prerr_endline "loadgen: some requests got no response before the drain deadline";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running $(b,agp serve) daemon: open-loop saturation sweeps over offered \
          arrival rates (requests/sec, p50/p90/p99 latency, shed rate per rate) or a \
          closed-loop throughput probe, with an optional machine-readable report for \
          $(b,agp diff)."
       ~man:
         [
           `S Manpage.s_examples;
           `P "agp loadgen --addr unix:/tmp/agp.sock --rates 50,100,200 --duration 2";
           `P "agp loadgen --addr :7421 --closed --clients 8 --requests 100";
           `P "agp loadgen --addr unix:/tmp/agp.sock --stop";
         ])
    Term.(
      const run $ addr_arg $ scale_arg $ seed_arg
      $ Arg.(
          value & opt string "spec-bfs"
          & info [ "app" ] ~docv:"APP"
              ~doc:"Application each request should run (see $(b,agp spec)).")
      $ backend_name_arg $ tenant_arg $ obs_arg $ rates_arg $ duration_arg $ closed_arg
      $ clients_arg $ requests_arg $ json_out_arg $ stop_arg)

let () =
  let doc = "Aggressive pipelining of irregular applications — reproduction toolkit" in
  let main = Cmd.group (Cmd.info "agp" ~doc ~version:Agp_util.Version.version)
      [
        fig9_cmd;
        fig10_cmd;
        table1_cmd;
        resources_cmd;
        schedule_cmd;
        dot_cmd;
        spec_cmd;
        run_cmd;
        backends_cmd;
        observe_cmd;
        diff_cmd;
        explore_cmd;
        trace_cmd;
        amplify_cmd;
        serve_cmd;
        stats_cmd;
        loadgen_cmd;
        version_cmd;
      ]
  in
  exit (Cmd.eval main)
