module App_instance = Agp_apps.App_instance
module Config = Agp_hw.Config
module Accelerator = Agp_hw.Accelerator
module Cpu_model = Agp_baseline.Cpu_model
module Opencl_model = Agp_baseline.Opencl_model
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics

type capabilities = {
  timed : bool;
  obs_report : bool;
  validates : bool;
}

type native =
  | Stepper of Semantics.report
  | Simulated of Accelerator.report
  | Cpu of Cpu_model.report
  | Opencl of Opencl_model.report

type run_result = {
  backend_name : string;
  app_name : string;
  check : (unit, string) result;
  seconds : float option;
  tasks_run : int option;
  engine_stats : Engine.stats option;
  obs : Agp_obs.Report.t option;
  native : native;
  final : App_instance.run option;
}

type t = {
  name : string;
  summary : string;
  capabilities : capabilities;
  supports : App_instance.t -> (unit, string) result;
  interp : Semantics.interpretation option;
  exec : obs:bool -> App_instance.t -> run_result;
}

exception Unsupported of { backend : string; app : string; reason : string }

let () =
  Printexc.register_printer (function
    | Unsupported { backend; app; reason } ->
        Some (Printf.sprintf "Agp_backend.Backend.Unsupported(%s on %s: %s)" app backend reason)
    | _ -> None)

let liveness_failure = function
  | Semantics.Deadlock msg -> Some msg
  | Semantics.Step_limit_exceeded n ->
      Some (Printf.sprintf "step limit %d exceeded without quiescing" n)
  | _ -> None

(* append one entry to an obs report's meta *)
let stamp key value (r : Agp_obs.Report.t) =
  { r with Agp_obs.Report.meta = r.Agp_obs.Report.meta @ [ (key, value) ] }

let run ?(obs = false) ?request_id b (app : App_instance.t) =
  match b.supports app with
  | Error reason ->
      raise (Unsupported { backend = b.name; app = app.App_instance.app_name; reason })
  | Ok () -> begin
      let res = b.exec ~obs app in
      (* serve stamps the originating request id into the report meta so
         the archived artifact joins against trace spans and log lines *)
      match request_id with
      | None -> res
      | Some id -> { res with obs = Option.map (stamp "request_id" (Agp_obs.Json.String id)) res.obs }
    end

let supports_all (_ : App_instance.t) = Ok ()

let outcomes (s : Engine.stats) = s.Engine.committed + s.Engine.aborted + s.Engine.retried

(* --- the execution paths --- *)

(* Event capture for obs reports is ring-bounded so paper-scale runs
   (millions of tasks) can stay observable without holding the whole
   event stream; lifecycle summaries tolerate a truncated prefix, and
   the report's meta carries [events_dropped]. *)
let obs_ring_capacity = 262_144

(* A stepper run's report: the engine's counters and the policy's, and
   the lifecycle of the ring's events, timed in the policy's ticks. *)
let stepper_obs_report ~backend ~app sink (r : Semantics.report) =
  let module M = Agp_obs.Metrics in
  let spans, unfinished = Agp_obs.Lifecycle.spans (Agp_obs.Sink.events sink) in
  let reg = M.create () in
  let c name v = M.add (M.counter reg name) v in
  let es = r.Semantics.stats in
  c "tasks.activated" es.Engine.activated;
  c "tasks.committed" es.Engine.committed;
  c "tasks.aborted" es.Engine.aborted;
  c "tasks.retried" es.Engine.retried;
  c "tasks.ops_executed" es.Engine.ops_executed;
  c "semantics.steps" r.Semantics.steps;
  c "semantics.max_concurrency" r.Semantics.max_concurrency;
  c "semantics.max_waiting" r.Semantics.max_waiting;
  M.set (M.gauge reg "semantics.avg_busy") r.Semantics.avg_busy;
  ignore (Agp_obs.Lifecycle.histogram reg ~name:"task.lifetime.ticks" spans);
  Agp_obs.Report.v ~kind:"stepper-run" ~app
    ~meta:
      [
        ("backend", Agp_obs.Json.String backend);
        ("events_dropped", Agp_obs.Json.Int (Agp_obs.Sink.dropped sink));
      ]
    ~sections:
      [
        ("metrics", M.to_json reg);
        ("lifecycle", Agp_obs.Lifecycle.section spans ~unfinished);
      ]
    ()

(* A stepper backend is an interpretation record lifted into the
   registry: execution is always [Semantics.run] on a fresh instance —
   the record is the entire substrate definition.  The conformance
   suite exercises this with a throwaway counting interpretation to
   keep the claim honest.  Under [~obs] a ring sink takes the place of
   the record's own. *)
let of_interpretation ~name ~summary interp =
  {
    name;
    summary;
    capabilities = { timed = false; obs_report = true; validates = true };
    supports = supports_all;
    interp = Some interp;
    exec =
      (fun ~obs app ->
        let r = app.App_instance.fresh () in
        let sink =
          if obs then Agp_obs.Sink.ring ~capacity:obs_ring_capacity else interp.Semantics.sink
        in
        let report =
          Semantics.run ~sink ~initial:r.App_instance.initial interp app.App_instance.spec
            r.App_instance.bindings r.App_instance.state
        in
        {
          backend_name = name;
          app_name = app.App_instance.app_name;
          check = r.App_instance.check ();
          seconds = None;
          tasks_run = Some report.Semantics.tasks_run;
          engine_stats = Some report.Semantics.stats;
          obs =
            (if obs then
               Some (stepper_obs_report ~backend:name ~app:app.App_instance.app_name sink report)
             else None);
          native = Stepper report;
          final = Some r;
        });
  }

let sequential =
  of_interpretation ~name:"sequential"
    ~summary:
      "in-order oracle (Definition 4.3) — the semantics every other backend is judged against"
    (Semantics.oracle ())

let default_workers = 8

let runtime ?(workers = default_workers) ?max_steps () =
  let name =
    if workers = default_workers then "runtime" else Printf.sprintf "runtime:%d" workers
  in
  of_interpretation ~name
    ~summary:
      (Printf.sprintf "aggressive software runtime (§4.4), %d abstract workers" workers)
    (Semantics.pipelined ~workers ?max_steps ())

let with_max_steps b n =
  match b.interp with
  | Some i -> begin
      match i.Semantics.policy with
      | Semantics.Workers { workers; max_steps = _ } ->
          let interp = { i with Semantics.policy = Semantics.Workers { workers; max_steps = n } } in
          Ok (of_interpretation ~name:b.name ~summary:b.summary interp)
      | Semantics.Min_first _ ->
          Error (Printf.sprintf "backend %s has no step budget (not a worker-pool interpretation)" b.name)
    end
  | None ->
      Error (Printf.sprintf "backend %s has no step budget (not a stepper interpretation)" b.name)

let derive_config (app : App_instance.t) (base : Config.t) =
  {
    base with
    Config.mlp = app.App_instance.fpga_mlp;
    Config.prim_latency =
      List.map
        (fun (name, flops) -> (name, max 2 (flops / app.App_instance.fpga_ilp)))
        app.App_instance.kernel_flops;
  }

let simulator ?(config = Config.default) () =
  {
    name = "simulator";
    summary = "cycle-level model of the synthesized accelerator (Fig. 7)";
    capabilities = { timed = true; obs_report = true; validates = true };
    supports = supports_all;
    interp = None;
    exec =
      (fun ~obs app ->
        let config = derive_config app config in
        let r = app.App_instance.fresh () in
        let sink =
          if obs then Agp_obs.Sink.ring ~capacity:obs_ring_capacity else Agp_obs.Sink.null
        in
        let timeline = if obs then Some (Agp_obs.Timeline.create ~interval:256 ()) else None in
        let report =
          Accelerator.run ~config ~sink ?timeline
            ~spec:app.App_instance.spec ~bindings:r.App_instance.bindings
            ~state:r.App_instance.state ~initial:r.App_instance.initial ()
        in
        let obs_doc =
          if obs then
            (* the ring keeps only the run's tail: the report says how
               many events its lifecycle section never saw *)
            Some
              (stamp "events_dropped"
                 (Agp_obs.Json.Int (Agp_obs.Sink.dropped sink))
                 (Accelerator.obs_report ~app:app.App_instance.app_name
                    ~events:(Agp_obs.Sink.events sink) ?timeline ~config report))
          else None
        in
        {
          backend_name = "simulator";
          app_name = app.App_instance.app_name;
          check = r.App_instance.check ();
          seconds = Some report.Accelerator.seconds;
          tasks_run = Some (outcomes report.Accelerator.engine_stats);
          engine_stats = Some report.Accelerator.engine_stats;
          obs = obs_doc;
          native = Simulated report;
          final = Some r;
        });
  }

let cpu_backend which =
  let name, summary =
    match which with
    | `One -> ("cpu-1core", "Xeon 1-core timing model (§6.3): profiled sequential replay")
    | `Ten -> ("cpu-10core", "Xeon 10-core timing model (§6.3): aggressive-runtime makespan")
  in
  {
    name;
    summary;
    capabilities = { timed = true; obs_report = false; validates = false };
    supports = supports_all;
    interp = None;
    exec =
      (fun ~obs:_ app ->
        let r = Cpu_model.run app in
        let seconds =
          match which with
          | `One -> r.Cpu_model.seconds_1core
          | `Ten -> r.Cpu_model.seconds_10core
        in
        {
          backend_name = name;
          app_name = app.App_instance.app_name;
          check = Ok ();
          seconds = Some seconds;
          tasks_run = Some r.Cpu_model.tasks;
          engine_stats = None;
          obs = None;
          native = Cpu r;
          final = None;
        });
  }

let cpu_1core = cpu_backend `One
let cpu_10core = cpu_backend `Ten

let opencl =
  {
    name = "opencl";
    summary = "round-based timing model of the Altera-OpenCL HLS baseline (Table 1)";
    capabilities = { timed = true; obs_report = false; validates = false };
    interp = None;
    supports =
      (fun app ->
        match app.App_instance.graph_source with
        | Some _ -> Ok ()
        | None ->
            Error
              (Printf.sprintf
                 "%s has no graph substrate (the AOCL model iterates BFS-style kernels over a \
                  CSR graph)"
                 app.App_instance.app_name));
    exec =
      (fun ~obs:_ app ->
        match app.App_instance.graph_source with
        | None ->
            raise
              (Unsupported
                 {
                   backend = "opencl";
                   app = app.App_instance.app_name;
                   reason = "no graph substrate";
                 })
        | Some (g, root) ->
            let r = Opencl_model.run_bfs g root in
            {
              backend_name = "opencl";
              app_name = app.App_instance.app_name;
              check = Ok ();
              seconds = Some r.Opencl_model.seconds;
              tasks_run = None;
              engine_stats = None;
              obs = None;
              native = Opencl r;
              final = None;
            });
  }

(* --- registry --- *)

(* One entry per backend, in presentation order: the registry names
   each backend once, with its aliases and, for a backend that takes a
   count ("runtime:<workers>"), the count's name and the constructor. *)
type entry = {
  backend : t;
  aliases : string list;
  param : (string * (int -> t)) option;
}

let registry =
  let plain backend = { backend; aliases = []; param = None } in
  [
    plain sequential;
    {
      backend = runtime ();
      aliases = [];
      param = Some ("workers", fun workers -> runtime ~workers ());
    };
    { backend = simulator (); aliases = [ "fpga" ]; param = None };
    plain cpu_1core;
    plain cpu_10core;
    plain opencl;
  ]

let all = List.map (fun e -> e.backend) registry

let names = List.map (fun b -> b.name) all

let aliases = List.concat_map (fun e -> List.map (fun a -> (a, e.backend.name)) e.aliases) registry

let parameterized =
  List.filter_map (fun e -> Option.map (fun (what, _) -> (e.backend.name, what)) e.param) registry

(* Edit distance for the "did you mean" hint on a misspelled backend
   name; the candidate set is a handful of short names, so the O(nm)
   table is free. *)
let levenshtein a b =
  let n = String.length a and m = String.length b in
  let prev = Array.init (m + 1) Fun.id and cur = Array.make (m + 1) 0 in
  for i = 1 to n do
    cur.(0) <- i;
    for j = 1 to m do
      let subst = prev.(j - 1) + if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min subst (1 + min prev.(j) cur.(j - 1))
    done;
    Array.blit cur 0 prev 0 (m + 1)
  done;
  prev.(m)

let form e =
  match e.param with
  | Some (what, _) -> Printf.sprintf "%s (also %s:<%s>)" e.backend.name e.backend.name what
  | None -> e.backend.name

let unknown_backend_message name =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "unknown backend %S" name);
  let base = List.hd (String.split_on_char ':' name) in
  let candidates = List.map fst aliases @ names in
  let best =
    List.fold_left
      (fun acc c ->
        let d = levenshtein (String.lowercase_ascii base) c in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (c, d))
      None candidates
  in
  (match best with
  | Some (c, d) when d <= max 2 (String.length base / 3) ->
      Buffer.add_string buf (Printf.sprintf " — did you mean %S?" c)
  | _ -> ());
  Buffer.add_string buf "\nregistered backends:\n";
  let width = List.fold_left (fun w e -> max w (String.length (form e))) 0 registry in
  let lines =
    List.map (fun e -> Printf.sprintf "  %-*s %s" width (form e) e.backend.summary) registry
    @ List.map (fun (a, name) -> Printf.sprintf "  %s aliases %s" a name) aliases
  in
  Buffer.add_string buf (String.concat "\n" lines);
  Buffer.contents buf

let find name =
  let entry n = List.find_opt (fun e -> e.backend.name = n || List.mem n e.aliases) registry in
  match String.split_on_char ':' name with
  | [ n ] -> (
      match entry n with
      | Some e -> Ok e.backend
      | None -> Error (unknown_backend_message name))
  | [ n; count ] -> (
      match entry n with
      | Some { param = Some (_, make); backend; _ } -> (
          match int_of_string_opt count with
          | Some k when k > 0 -> Ok (make k)
          | Some _ | None ->
              Error
                (Printf.sprintf "%s wants a positive count, got %S (e.g. %s:4)" backend.name count
                   backend.name))
      | _ -> Error (unknown_backend_message name))
  | _ -> Error (unknown_backend_message name)

(* --- native accessors --- *)

let stepper_report r =
  match r.native with
  | Stepper s -> Some s
  | _ -> None

let simulated_report r =
  match r.native with
  | Simulated s -> Some s
  | _ -> None

let cpu_report r =
  match r.native with
  | Cpu c -> Some c
  | _ -> None

let opencl_report r =
  match r.native with
  | Opencl o -> Some o
  | _ -> None
