(* Differential conformance of the backend registry (the §4.1 criterion
   made executable): every state-mutating backend must agree with the
   sequential oracle on every app, plus the registry/CLI plumbing that
   exposes the matrix. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
module Backend = Agp_backend.Backend
module Conformance = Agp_backend.Conformance
module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
module Semantics = Agp_core.Semantics
module Spec = Agp_core.Spec
module Value = Agp_core.Value
module State = Agp_core.State
module Packed = Agp_util.Packed

(* Result-deterministic apps: the committed state is a function of the
   input alone (unique BFS levels; SSSP distances on distinct random
   weights), so conformance can demand bit-identical state, not just a
   passing check.  MST's union-find shape, DMR's mesh and LU's float
   accumulation order are schedule-dependent, so for those the check
   verdict is the equivalence criterion. *)
let state_deterministic (app : App_instance.t) =
  List.mem app.App_instance.app_name [ "SPEC-BFS"; "COOR-BFS"; "SPEC-SSSP" ]

(* The backends-under-test set is derived from the registry itself
   (every validating backend) — registering a backend opts it into
   conformance automatically. *)
let backends_under_test = Conformance.matrix_backends ()

let test_matrix () =
  let apps = Workloads.all Workloads.Small ~seed:7 in
  let rows =
    Conformance.matrix ~state_equiv:state_deterministic ~backends:backends_under_test apps
  in
  check Alcotest.int "full matrix ran"
    (List.length apps * List.length backends_under_test)
    (List.length rows);
  (match Conformance.failing rows with
  | [] -> ()
  | bad -> Alcotest.failf "non-conforming cells:\n%s" (Conformance.render bad));
  (* no registered validating backend may silently opt out of the matrix *)
  (match Conformance.missing_from rows with
  | [] -> ()
  | missing ->
      Alcotest.failf "validating backends missing from the matrix: %s"
        (String.concat ", " (List.map (fun (b : Backend.t) -> b.Backend.name) missing)));
  (* the matrix must not silently skip a mutating backend *)
  List.iter
    (fun r ->
      match r.Conformance.outcome with
      | Error (Conformance.Unsupported _) ->
          Alcotest.failf "mutating backend %s skipped %s" r.Conformance.row_backend
            r.Conformance.row_app
      | _ -> ())
    rows

let test_matrix_random_seeds =
  QCheck.Test.make ~name:"registry conforms to the oracle on random workloads" ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let apps = Workloads.all Workloads.Small ~seed in
      let rows =
        Conformance.matrix ~state_equiv:state_deterministic ~backends:backends_under_test apps
      in
      match Conformance.failing rows with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "seed %d:\n%s" seed (Conformance.render bad))

(* --- timing models run through the same entry point (acceptance: every
   backend in Backend.all runs every supported app via Backend.run) --- *)

let test_timing_models_run () =
  let apps = Workloads.all Workloads.Small ~seed:7 in
  List.iter
    (fun (b : Backend.t) ->
      if not b.Backend.capabilities.Backend.validates then
        List.iter
          (fun (app : App_instance.t) ->
            match Backend.run b app with
            | exception Backend.Unsupported _ ->
                check Alcotest.bool
                  (Printf.sprintf "%s honestly declines %s" b.Backend.name
                     app.App_instance.app_name)
                  true
                  (Result.is_error (b.Backend.supports app))
            | res ->
                check Alcotest.bool
                  (Printf.sprintf "%s times %s" b.Backend.name app.App_instance.app_name)
                  true
                  (match res.Backend.seconds with
                  | Some s -> s > 0.0
                  | None -> false))
          apps)
    Backend.all

(* the bounded capture the CLI and the serve daemon hand [Backend.run] *)
let ring () = Agp_obs.Sink.ring ~capacity:Backend.obs_ring_capacity

let test_obs_report_capability () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let sim = Backend.simulator () in
  let res = Backend.run ~sink:(ring ()) sim app in
  (match res.Backend.obs with
  | None -> Alcotest.fail "obs-capable simulator returned no report with an enabled sink"
  | Some doc ->
      check Alcotest.string "report app" app.App_instance.app_name doc.Agp_obs.Report.app;
      (match Agp_obs.Report.of_string (Agp_obs.Report.to_string doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "backend obs report does not reparse: %s" e));
  let res' = Backend.run sim app in
  check Alcotest.bool "no report unless asked" true (res'.Backend.obs = None);
  let runtime = Backend.run ~sink:(ring ()) (Backend.runtime ~workers:8 ()) app in
  (match runtime.Backend.obs with
  | Some doc ->
      check Alcotest.bool "runtime report has a lifecycle section" true
        (List.mem_assoc "lifecycle" doc.Agp_obs.Report.sections)
  | None -> Alcotest.fail "obs-capable runtime returned no report with an enabled sink");
  let cpu = Backend.run ~sink:(ring ()) Backend.cpu_1core app in
  check Alcotest.bool "non-obs backend ignores the sink" true (cpu.Backend.obs = None)

(* the simulator's report captures a ring of the run's last events and
   says in its meta how many fell off the front *)
let test_obs_report_coverage () =
  let dropped scale =
    let app = Workloads.spec_bfs scale ~seed:42 in
    match (Backend.run ~sink:(ring ()) (Backend.simulator ()) app).Backend.obs with
    | None -> Alcotest.fail "no obs report with an enabled sink"
    | Some doc -> (
        match List.assoc_opt "events_dropped" doc.Agp_obs.Report.meta with
        | Some (Agp_obs.Json.Int n) -> n
        | _ -> Alcotest.fail "report meta lacks an integer events_dropped")
  in
  check Alcotest.int "small run fits the ring" 0 (dropped Workloads.Small);
  check Alcotest.bool "medium spec-bfs overflows the ring" true (dropped Workloads.Medium > 0)

(* --- registry lookup --- *)

let test_registry_find () =
  check
    Alcotest.(list string)
    "registry order"
    [ "sequential"; "runtime"; "simulator"; "cpu-1core"; "cpu-10core"; "opencl" ]
    Backend.names;
  let name s =
    match Backend.find s with
    | Ok b -> b.Backend.name
    | Error e -> "error: " ^ e
  in
  check Alcotest.string "plain name" "runtime" (name "runtime");
  check Alcotest.string "fpga aliases simulator" "simulator" (name "fpga");
  (* one cycle engine and no domains runtime: the retired engine names
     are unknown backends *)
  List.iter
    (fun gone ->
      match Backend.find gone with
      | Ok _ -> Alcotest.failf "%s still resolves" gone
      | Error e ->
          check Alcotest.bool (gone ^ " is an unknown backend") true
            (Astring.String.is_prefix ~affix:"unknown backend" e))
    [ "simulator:classic"; "simulator:compiled"; "parallel"; "parallel:2" ];
  check Alcotest.string "parameterized workers" "runtime:3" (name "runtime:3");
  List.iter
    (fun bad ->
      check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Backend.find bad)))
    [ "nosuch"; "runtime:0"; "runtime:-1"; "runtime:x"; "simulator:4"; "" ]

(* --- pinned fingerprints: every app x seed on the oracle, the
   worker-pool runtime and the cycle simulator must reproduce the
   scheduling and timing figures recorded in golden/fingerprints.txt —
   steps, tasks, parked peak, every engine counter, and for the
   simulator cycles, memory traffic and the stall-attribution totals.
   The oracle for the ECA core is this table, not a second engine. --- *)

module Accelerator = Agp_hw.Accelerator
module Engine = Agp_core.Engine
module Attribution = Agp_obs.Attribution

let stats_fp (s : Engine.stats) =
  Printf.sprintf "act=%d com=%d abo=%d ret=%d ev=%d cls=%d oth=%d ops=%d allocs=%d"
    s.Engine.activated s.Engine.committed s.Engine.aborted s.Engine.retried
    s.Engine.events_fired s.Engine.clause_resolutions s.Engine.otherwise_fired
    s.Engine.ops_executed s.Engine.rule_allocs

let attribution_totals attr =
  let sets = List.map fst (Attribution.per_set attr) in
  List.map
    (fun b ->
      Printf.sprintf "%s=%d" (Attribution.bucket_name b)
        (List.fold_left (fun acc set -> acc + Attribution.get attr ~set b) 0 sets))
    Attribution.buckets

let fingerprint (res : Backend.run_result) =
  match res.Backend.native with
  | Backend.Stepper r ->
      Printf.sprintf "steps=%d tasks=%d max_waiting=%d %s" r.Semantics.steps
        r.Semantics.tasks_run r.Semantics.max_waiting (stats_fp r.Semantics.stats)
  | Backend.Simulated r ->
      Printf.sprintf "cycles=%d %s reads=%d writes=%d link=%d peak=%d %s"
        r.Accelerator.cycles (stats_fp r.Accelerator.engine_stats) r.Accelerator.mem_reads
        r.Accelerator.mem_writes r.Accelerator.bytes_over_link r.Accelerator.peak_in_flight
        (String.concat " " (attribution_totals r.Accelerator.attribution))
  | Backend.Cpu _ | Backend.Opencl _ -> "n/a"

(* cwd is _build/default/test under dune runtest; the repo root when
   launched by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let pinned () =
  match golden_file "fingerprints.txt" with
  | None -> Alcotest.fail "golden/fingerprints.txt not found"
  | Some path ->
      In_channel.with_open_text path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      |> List.map (fun l ->
             match String.split_on_char ' ' l with
             | app :: seed :: backend :: fp ->
                 ((app, int_of_string seed, backend), String.concat " " fp)
             | _ -> Alcotest.failf "malformed fingerprint line %S" l)

let test_pinned_fingerprints () =
  let table = pinned () in
  let seeds = List.sort_uniq compare (List.map (fun ((_, s, _), _) -> s) table) in
  let backends = [ Backend.sequential; Backend.runtime (); Backend.simulator () ] in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun (app : App_instance.t) ->
          List.iter
            (fun (b : Backend.t) ->
              let key = (app.App_instance.app_name, seed, b.Backend.name) in
              match List.assoc_opt key table with
              | None ->
                  Alcotest.failf "no pinned fingerprint for %s seed %d on %s"
                    app.App_instance.app_name seed b.Backend.name
              | Some want ->
                  let res = Backend.run b app in
                  (match res.Backend.check with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s seed %d on %s: invalid result: %s"
                        app.App_instance.app_name seed b.Backend.name e);
                  incr checked;
                  check Alcotest.string
                    (Printf.sprintf "%s seed %d on %s" app.App_instance.app_name seed
                       b.Backend.name)
                    want (fingerprint res))
            backends)
        (Workloads.all Workloads.Small ~seed))
    seeds;
  check Alcotest.int "every pinned row checked" (List.length table) !checked

(* --- event gating: the core builds an activation or a min_changed
   event (payload copy, delivery) only when a rule listens to its kind
   or the program has counted rules, and counts it in [events_fired]
   either way.  These are the specs where it must not skip: a rule that
   listens to activations, COOR-BFS's [level_release] (min_changed) and
   COOR-LU's counted [deps_ready]. *)

module Opcode = Agp_core.Opcode

(* a parent allocates [see 7] and pushes workers 3 and 7 before it
   awaits: worker 7's activation resolves the rule true (cell 0 := 1);
   a skipped activation would leave it to [otherwise] (cell 0 := 2) *)
let activation_spec : Spec.t =
  let open Spec in
  {
    spec_name = "activation-listener";
    task_sets =
      [
        {
          ts_name = "parent";
          ts_order = For_each;
          arity = 0;
          body =
            [
              Alloc ("h", "see", [ int 7 ]);
              Push ("worker", [ int 3 ]);
              Push ("worker", [ int 7 ]);
              Await ("ok", "h");
              If (Var "ok", [ Store ("cell", int 0, int 1) ], [ Store ("cell", int 0, int 2) ]);
            ];
        };
        {
          ts_name = "worker";
          ts_order = For_each;
          arity = 1;
          body = [ Store ("cell", int 1, Param 0) ];
        };
      ];
    rules =
      [
        {
          rule_name = "see";
          n_params = 1;
          clauses =
            [
              {
                on = On_activated "worker";
                condition = CBinop (Eq, CField 0, CParam 0);
                action = Return_bool true;
              };
            ];
          otherwise = false;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

let heard prog ~kind ~set =
  Array.length prog.Opcode.listeners.(Opcode.listener_slot prog ~kind ~set ~label:(-1)) > 0

(* the ev= and cls= fields of a fingerprint *)
let ev_cls fp =
  String.split_on_char ' ' fp
  |> List.filter (fun f -> String.starts_with ~prefix:"ev=" f || String.starts_with ~prefix:"cls=" f)
  |> String.concat " "

let test_event_gating_keeps_heard_events () =
  let prog = Opcode.compile activation_spec in
  check Alcotest.bool "worker activations are heard" true (heard prog ~kind:0 ~set:1);
  let initial = [ ("parent", []) ] in
  (* [events]: activations plus min_changed broadcasts, which depend on
     the schedule *)
  let expect name ~events (s : Engine.stats) cell =
    check Alcotest.int (name ^ ": resolved by the activation") 1 cell.(0);
    check Alcotest.(list int)
      (name ^ ": activated, events, clause resolutions, otherwise")
      [ 3; events; 1; 0 ]
      [
        s.Engine.activated;
        s.Engine.events_fired;
        s.Engine.clause_resolutions;
        s.Engine.otherwise_fired;
      ]
  in
  List.iter
    (fun (interp, events) ->
      let st = State.create () in
      State.add_int_array st "cell" [| 0; 0 |];
      let r = Semantics.run ~initial interp activation_spec Spec.no_bindings st in
      expect interp.Semantics.descr ~events r.Semantics.stats (State.int_array st "cell"))
    [ (Semantics.oracle (), 5); (Semantics.pipelined (), 4) ];
  let st = State.create () in
  State.add_int_array st "cell" [| 0; 0 |];
  let r =
    Accelerator.run ~spec:activation_spec ~bindings:Spec.no_bindings ~state:st ~initial ()
  in
  expect "simulator" ~events:4 r.Accelerator.engine_stats (State.int_array st "cell");
  (* the apps whose events must be built: pinned counts, runtime and
     simulator *)
  let table = pinned () in
  List.iter
    (fun (app : App_instance.t) ->
      let name = app.App_instance.app_name in
      let prog = Opcode.compile app.App_instance.spec in
      if name = "COOR-BFS" then
        check Alcotest.bool "COOR-BFS hears min_changed" true (heard prog ~kind:2 ~set:0);
      if name = "COOR-LU" then check Alcotest.bool "COOR-LU has counted rules" true prog.Opcode.has_counted;
      if name = "COOR-BFS" || name = "COOR-LU" then
        List.iter
          (fun (b : Backend.t) ->
            let want = List.assoc (name, 42, b.Backend.name) table in
            let res = Backend.run b app in
            check Alcotest.string (name ^ " on " ^ b.Backend.name) (ev_cls want)
              (ev_cls (fingerprint res)))
          [ Backend.runtime (); Backend.simulator () ])
    (Workloads.all Workloads.Small ~seed:42)

(* --- pinned event streams: the fingerprints pin what the simulator
   counted, not the order it did things in.  Each row of
   golden/event-digests.txt is the MD5 of a run's full sink stream
   rendered one event per line, so a change to the order in which
   ready tasks step, dispatch or touch memory shows up here even when
   every counter survives.  The far-horizon row raises the miss
   latency above the simulator's 256-cycle timing wheel; the
   rule_lanes=16 rows run out of rule lanes, so tasks stall at the
   allocator. --- *)

module Sink = Agp_obs.Sink
module Event = Agp_obs.Event

let render_event buf (ts, ev) =
  let pf fmt = Printf.bprintf buf fmt in
  match ev with
  | Event.Task_dispatch { set; pipe; tid; _ } -> pf "%d dispatch %s %d %d\n" ts set pipe tid
  | Event.Task_finish { set; pipe; tid; outcome } ->
      pf "%d finish %s %d %d %s\n" ts set pipe tid (Event.outcome_name outcome)
  | Event.Rendezvous_park { set; pipe; tid } -> pf "%d park %s %d %d\n" ts set pipe tid
  | Event.Rendezvous_resume { set; tid } -> pf "%d resume %s %d\n" ts set tid
  | Event.Queue_full { set; pipe } -> pf "%d queue_full %s %d\n" ts set pipe
  | Event.Cache_access { addr; is_write; hit } -> pf "%d cache %d %b %b\n" ts addr is_write hit
  | Event.Link_transfer { bytes; start; finish } ->
      pf "%d link %d %d %d\n" ts bytes start finish

let sim_run ?(miss_latency = Agp_hw.Config.default.Agp_hw.Config.miss_latency)
    ?(rule_lanes = Agp_hw.Config.default.Agp_hw.Config.rule_lanes) ~sink (app : App_instance.t) =
  let config =
    Backend.derive_config app
      { Agp_hw.Config.default with Agp_hw.Config.miss_latency; rule_lanes }
  in
  let r = app.App_instance.fresh () in
  Accelerator.run ~config ~sink ~spec:app.App_instance.spec ~bindings:r.App_instance.bindings
    ~state:r.App_instance.state ~initial:r.App_instance.initial ()

let event_digest ?miss_latency ?rule_lanes (app : App_instance.t) =
  let buf = Buffer.create (1 lsl 20) in
  let sink = Sink.tap (fun ~ts ev -> render_event buf (ts, ev)) in
  let rep = sim_run ?miss_latency ?rule_lanes ~sink app in
  Printf.sprintf "cycles=%d events=%d md5=%s" rep.Accelerator.cycles (Sink.count sink)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_pinned_event_digests () =
  let table =
    match golden_file "event-digests.txt" with
    | None -> Alcotest.fail "golden/event-digests.txt not found"
    | Some path ->
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        |> List.map (fun l ->
               match String.split_on_char ' ' l with
               | app :: seed :: miss :: fp -> ((app, int_of_string seed, miss), String.concat " " fp)
               | _ -> Alcotest.failf "malformed event digest line %S" l)
  in
  List.iter
    (fun ((app_name, seed, miss), want) ->
      let app =
        match
          List.find_opt
            (fun (a : App_instance.t) -> a.App_instance.app_name = app_name)
            (Workloads.all Workloads.Small ~seed)
        with
        | Some a -> a
        | None -> Alcotest.failf "unknown app %s in event digests" app_name
      in
      let got =
        match String.split_on_char '=' miss with
        | [ "miss_latency"; m ] -> event_digest ~miss_latency:(int_of_string m) app
        | [ "rule_lanes"; k ] -> event_digest ~rule_lanes:(int_of_string k) app
        | _ -> event_digest app
      in
      check Alcotest.string (Printf.sprintf "%s seed %d %s" app_name seed miss) want got)
    table;
  let apps = List.length (Workloads.all Workloads.Small ~seed:1) in
  check Alcotest.bool "every app x seed 1/7/42 plus a far-horizon row" true
    (List.length table > 3 * apps)

(* --- observing must not change timing: with the sink off the issue
   loop stops at a set's pipelines once its queue is empty or its pops
   are spent, with it on it visits them all to report Queue_full.
   Every app at seeds 1/7/42 must give the same cycles, engine counters
   and per-set attribution matrix either way, not only the summed
   totals the fingerprints pin. --- *)

let sim_outcome ~sink (app : App_instance.t) =
  let rep = sim_run ~sink app in
  let matrix =
    List.map
      (fun (set, buckets) ->
        set
        ^ String.concat ""
            (List.map (fun (b, n) -> Printf.sprintf " %s=%d" (Attribution.bucket_name b) n) buckets))
      (Attribution.per_set rep.Accelerator.attribution)
  in
  (Printf.sprintf "cycles=%d %s" rep.Accelerator.cycles (stats_fp rep.Accelerator.engine_stats), matrix)

let test_observing_keeps_timing () =
  List.iter
    (fun seed ->
      List.iter
        (fun (app : App_instance.t) ->
          let name = Printf.sprintf "%s seed %d" app.App_instance.app_name seed in
          let bare, bare_matrix = sim_outcome ~sink:Sink.null app in
          let seen, seen_matrix = sim_outcome ~sink:(Sink.collect ()) app in
          check Alcotest.string (name ^ ": cycles and counters") bare seen;
          check (Alcotest.list Alcotest.string) (name ^ ": attribution matrix") bare_matrix
            seen_matrix)
        (Workloads.all Workloads.Small ~seed))
    [ 1; 7; 42 ]

(* --- one binop table (satellite): random expressions must evaluate
   bit-for-bit identically under the tree-walking interpreter and the
   compiled op-array engine — including the error cases, whose
   messages now come from the single Agp_core.Binop table --- *)

let binop_str (op : Spec.binop) =
  match op with
  | Spec.Add -> "+"
  | Spec.Sub -> "-"
  | Spec.Mul -> "*"
  | Spec.Div -> "/"
  | Spec.Rem -> "%"
  | Spec.Min -> "min"
  | Spec.Max -> "max"
  | Spec.Eq -> "=="
  | Spec.Ne -> "!="
  | Spec.Lt -> "<"
  | Spec.Le -> "<="
  | Spec.Gt -> ">"
  | Spec.Ge -> ">="
  | Spec.And -> "&&"
  | Spec.Or -> "||"

let rec expr_str (e : Spec.expr) =
  match e with
  | Spec.Const v -> Value.to_string v
  | Spec.Param i -> Printf.sprintf "p%d" i
  | Spec.Var v -> v
  | Spec.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Spec.Not e -> "!" ^ expr_str e
  | Spec.Neg e -> "-" ^ expr_str e

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-4) 4);
        map (fun f -> Value.Float f) (oneofl [ -2.5; -1.0; 0.0; 0.5; 1.0; 3.25 ]);
        map (fun b -> Value.Bool b) bool;
      ])

let binop_gen =
  QCheck.Gen.oneofl
    Spec.[ Add; Sub; Mul; Div; Rem; Min; Max; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]

(* [a] and [b] are bound where a test binds variables, [u] never is *)
let var_gen = QCheck.Gen.oneofl [ "a"; "b"; "u" ]

let expr_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun v -> Spec.Const v) value_gen;
                 map (fun i -> Spec.Param i) (int_range 0 3);
                 map (fun v -> Spec.Var v) var_gen;
               ]
           else
             frequency
               [
                 (1, map (fun v -> Spec.Const v) value_gen);
                 (1, map (fun i -> Spec.Param i) (int_range 0 3));
                 (1, map (fun v -> Spec.Var v) var_gen);
                 ( 4,
                   map3
                     (fun op a b -> Spec.Binop (op, a, b))
                     binop_gen
                     (self (n / 2))
                     (self (n / 2)) );
                 (1, map (fun e -> Spec.Not e) (self (n - 1)));
                 (1, map (fun e -> Spec.Neg e) (self (n - 1)));
               ]))

let expr_case =
  QCheck.make
    ~print:(fun (e, payload) ->
      Printf.sprintf "%s on [%s]" (expr_str e)
        (String.concat "; " (List.map Value.to_string payload)))
    QCheck.Gen.(pair expr_gen (list_size (return 4) value_gen))

let expr_spec e : Spec.t =
  {
    Spec.spec_name = "binop-eq";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 4;
          body = [ Spec.Store ("out", Spec.int 0, e) ];
        };
      ];
    rules = [];
  }

(* The out cell is a float array: Int stores widen (identically in both
   evaluators), Bool stores raise State's type mismatch, and float
   results land with their exact bits.  The tree-walking side is the
   reference evaluator [Interp] writing through [State.write]; the
   compiled side is the ECA core under the cycle simulator. *)
let eval_tree e payload =
  let st = State.create () in
  State.add_float_array st "out" [| 0.0 |];
  match
    State.write st "out" 0 (Interp.eval_expr (Hashtbl.create 1) (Array.of_list payload) e)
  with
  | () -> Ok (Int64.bits_of_float (State.float_array st "out").(0))
  | exception e -> Error (Printexc.to_string e)

let eval_compiled sp payload =
  let st = State.create () in
  State.add_float_array st "out" [| 0.0 |];
  match
    Accelerator.run ~spec:sp ~bindings:Spec.no_bindings
      ~state:st ~initial:[ ("t", payload) ] ()
  with
  | _ -> Ok (Int64.bits_of_float (State.float_array st "out").(0))
  | exception e -> Error (Printexc.to_string e)

let outcome_str = function
  | Ok bits -> Printf.sprintf "Ok %.17g (bits %Lx)" (Int64.float_of_bits bits) bits
  | Error e -> "Error: " ^ e

let test_binop_engines_agree =
  QCheck.Test.make ~name:"tree-walk and compiled binop semantics agree bit-for-bit"
    ~count:150 expr_case
    (fun (e, payload) ->
      let t = eval_tree e payload in
      let c = eval_compiled (expr_spec e) payload in
      if t = c then true
      else
        QCheck.Test.fail_reportf "tree-walk %s\nvs compiled %s" (outcome_str t)
          (outcome_str c))

let test_binop_error_cases () =
  Alcotest.check_raises "division by zero" (Invalid_argument "Interp: division by zero")
    (fun () -> ignore (Interp.eval_binop Spec.Div (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "modulo by zero" (Invalid_argument "Interp: modulo by zero")
    (fun () -> ignore (Interp.eval_binop Spec.Rem (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "bool arithmetic operand"
    (Invalid_argument "Interp: bad operands for arithmetic") (fun () ->
      ignore (Interp.eval_binop Spec.Add (Value.Bool true) (Value.Int 1)));
  Alcotest.check_raises "bool comparison operand"
    (Invalid_argument "Interp: bad operands for comparison") (fun () ->
      ignore (Interp.eval_binop Spec.Lt (Value.Bool true) (Value.Int 1)));
  Alcotest.check_raises "non-bool connective operand"
    (Invalid_argument "Value.to_bool: 1") (fun () ->
      ignore (Interp.eval_binop Spec.And (Value.Int 1) (Value.Bool true)));
  (* the compiled core must surface the very same messages end-to-end *)
  List.iter
    (fun e ->
      let payload = [ Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0 ] in
      let t = eval_tree e payload and c = eval_compiled (expr_spec e) payload in
      check Alcotest.bool (Printf.sprintf "engines agree on %s" (expr_str e)) true
        (t = c && Result.is_error t))
    Spec.
      [
        Binop (Div, int 1, int 0);
        Binop (Rem, int 1, int 0);
        Binop (Add, Const (Value.Bool true), int 1);
        Binop (And, int 1, Const (Value.Bool true));
      ]

(* --- every compiled position: the core reads an operand of a leaf
   shape inline, gives an int operand of another shape its own fast
   path, and evaluates any other operand's bytecode.  Each generated
   expression is placed in every position and the core's outcome,
   final state or exception string, is held to the reference evaluator
   plus the op's stated semantics.  Variables [a]
   and [b] are bound by a [Let] before the op, [u] never is; a payload
   shorter than the arity puts [Param]s out of range.  A store's other
   operand is [b], so its address, value, type and bounds errors meet
   in every order.  An emit's fields are read back through the
   counted-rule log (see [seen_rule]). --- *)

type position =
  | P_let
  | P_load of string
  | P_store_addr of string
  | P_store_value of string
  | P_if
  | P_push
  | P_iter_lo
  | P_iter_hi
  | P_iter_arg
  | P_alloc
  | P_emit

let positions =
  [
    P_let;
    P_load "ia";
    P_load "fa";
    P_load "pa";
    P_store_addr "ia";
    P_store_addr "fa";
    P_store_addr "pa";
    P_store_value "ia";
    P_store_value "fa";
    P_store_value "pa";
    P_if;
    P_push;
    P_iter_lo;
    P_iter_hi;
    P_iter_arg;
    P_alloc;
    P_emit;
  ]

let position_str = function
  | P_let -> "let"
  | P_load a -> "load address from " ^ a
  | P_store_addr a -> "store address into " ^ a
  | P_store_value a -> "store value into " ^ a
  | P_if -> "if condition"
  | P_push -> "push argument"
  | P_iter_lo -> "push_iter lo"
  | P_iter_hi -> "push_iter hi"
  | P_iter_arg -> "push_iter argument"
  | P_alloc -> "alloc argument"
  | P_emit -> "emit field"

(* an int array [ia], a float array [fa] and [pa], a read-only packed
   copy of [ia] *)
let position_state () =
  let st = State.create () in
  State.add_int_array st "ia" [| 10; 11; 12; 13 |];
  State.add_float_array st "fa" [| 0.5; 1.5; 2.5; 3.5 |];
  State.add_packed_array st "pa" (Packed.of_array [| 10; 11; 12; 13 |]);
  st

let int_of_value = function
  | Value.Int n -> n
  | Value.Float _ | Value.Bool _ -> 0

(* A condition that holds when event field [f] is exactly [v], reading
   [v] and the constants it needs from the rule params from [p] on
   (returned with it).  A field of another value is false, and one of
   another tag is false or raises: [rem] takes only ints and a
   comparison with a bool raises; a float is told from an int by
   truncating division (one of [n] and [n + 1] is odd), and [-0.0] from
   [0.0] by dividing [1.0] by it. *)
let exact_field f p (v : Value.t) : Spec.cond * Value.t list =
  let open Spec in
  let fld = CField f and prm k = CParam (p + k) in
  let eq a b = CBinop (Eq, a, b) and both a b = CBinop (And, a, b) in
  let op o a b = CBinop (o, a, b) in
  match v with
  | Value.Bool _ -> (eq fld (prm 0), [ v ])
  | Value.Int _ ->
      (both (eq fld (prm 0)) (eq (op Rem fld (prm 1)) (prm 2)), [ v; Value.Int 1; Value.Int 0 ])
  | Value.Float _ ->
      let half x = op Div x (prm 1) and succ x = op Add x (prm 2) and inv x = op Div (prm 3) x in
      ( both (eq fld (prm 0))
          (both
             (eq (half fld) (half (prm 0)))
             (both (eq (half (succ fld)) (half (succ (prm 0)))) (eq (inv fld) (inv (prm 0))))),
        [ v; Value.Int 2; Value.Int 1; Value.Float 1.0 ] )

(* The rule [seen] and its arguments: its one clause counts the events
   [e] of set [t] whose fields are exactly [r] (the reference value of
   the emitted expression) and [va].  It expects one, so an instance
   allocated after [Emit ("e", [e; a])] resolves true at once when the
   event log holds the fields the reference gives, and its awaiting
   task parks otherwise. *)
let seen_rule (r : Value.t option) va : Spec.rule * Spec.expr list =
  let cond, params =
    match r with
    | None -> (Spec.CConst true, [])
    | Some v ->
        let c0, p0 = exact_field 0 0 v in
        let c1, p1 = exact_field 1 (List.length p0) va in
        (Spec.CBinop (Spec.And, c0, c1), p0 @ p1)
  in
  ( {
      Spec.rule_name = "seen";
      n_params = -1;
      clauses =
        [ { Spec.on = Spec.On_reached ("t", "e"); condition = cond; action = Spec.Decrement } ];
      otherwise = false;
      scope = Spec.Min_waiting;
      counted = true;
    },
    List.map (fun v -> Spec.Const v) params )

(* The ops under test.  [Push_iter] takes its other bound from the
   reference value of [e] ([r]), so every case pushes at most three
   children. *)
let position_ops pos e (r : Value.t option) seen_args : Spec.op list =
  let near k = Spec.int (match r with Some v -> int_of_value v + k | None -> 0) in
  match pos with
  | P_let -> [ Spec.Let ("x", e) ]
  | P_load a -> [ Spec.Load ("x", a, e) ]
  | P_store_addr a -> [ Spec.Store (a, e, Spec.Var "b") ]
  | P_store_value a -> [ Spec.Store (a, Spec.Var "b", e) ]
  | P_if ->
      [
        Spec.If
          ( e,
            [ Spec.Store ("ia", Spec.int 0, Spec.int 100) ],
            [ Spec.Store ("ia", Spec.int 0, Spec.int 200) ] );
      ]
  | P_push -> [ Spec.Push ("c", [ e; Spec.Var "a" ]) ]
  | P_iter_lo -> [ Spec.Push_iter ("c", e, near 3, "i", [ Spec.Var "i"; Spec.int 0 ]) ]
  | P_iter_hi -> [ Spec.Push_iter ("c", near (-3), e, "i", [ Spec.Var "i"; Spec.int 0 ]) ]
  | P_iter_arg -> [ Spec.Push_iter ("c", Spec.int 0, Spec.int 2, "i", [ e; Spec.Var "i" ]) ]
  | P_alloc -> [ Spec.Alloc ("h", "r", [ e; Spec.Var "a" ]) ]
  | P_emit ->
      [
        Spec.Emit ("e", [ e; Spec.Var "a" ]);
        Spec.Alloc ("g", "seen", seen_args);
        Spec.Await ("x", "g");
      ]

let position_spec va vb seen ops : Spec.t =
  {
    Spec.spec_name = "positions";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 4;
          body = Spec.Let ("a", Spec.Const va) :: Spec.Let ("b", Spec.Const vb) :: ops;
        };
        {
          Spec.ts_name = "c";
          ts_order = Spec.For_each;
          arity = 2;
          body = [ Spec.Let ("p0", Spec.Param 0); Spec.Let ("p1", Spec.Param 1) ];
        };
      ];
    rules =
      [
        {
          Spec.rule_name = "r";
          n_params = 2;
          clauses =
            [
              {
                Spec.on = Spec.On_reached ("t", "never");
                condition = Spec.CConst true;
                action = Spec.Decrement;
              };
            ];
          otherwise = false;
          scope = Spec.Min_waiting;
          counted = true;
        };
        seen;
      ];
  }

(* exact: floats by their bits *)
let value_bits = function
  | Value.Int n -> Printf.sprintf "i%d" n
  | Value.Float x -> Printf.sprintf "f%Lx" (Int64.bits_of_float x)
  | Value.Bool b -> Printf.sprintf "b%b" b

let render_outcome ~x ~children ~params st =
  let opt = function None -> "-" | Some v -> value_bits v in
  Printf.sprintf "x=%s children=[%s] params=[%s] ia=[%s] fa=[%s]" (opt x)
    (String.concat ";" (List.map (fun (p0, p1) -> opt p0 ^ "," ^ opt p1) children))
    (match params with None -> "-" | Some vs -> String.concat ";" (List.map value_bits vs))
    (String.concat ";" (Array.to_list (Array.map string_of_int (State.int_array st "ia"))))
    (String.concat ";"
       (Array.to_list
          (Array.map (fun f -> value_bits (Value.Float f)) (State.float_array st "fa"))))

let outcome f = try f () with e -> "error: " ^ Printexc.to_string e

let position_env va vb =
  let env = Hashtbl.create 2 in
  Hashtbl.replace env "a" va;
  Hashtbl.replace env "b" vb;
  env

(* the reference: [Interp.eval_expr], then the op's semantics through
   [State.read]/[State.write] *)
let reference_outcome pos e payload va vb =
  outcome (fun () ->
      let env = position_env va vb in
      let pay = Array.of_list payload in
      let ev e = Interp.eval_expr env pay e in
      let st = position_state () in
      let iter lo hi arg = List.init (max 0 (hi - lo)) (fun k -> arg (lo + k)) in
      let x, children, params =
        match pos with
        | P_let -> (Some (ev e), [], None)
        | P_load a -> (Some (State.read st a (Value.to_int (ev e))), [], None)
        | P_store_addr a ->
            let i = Value.to_int (ev e) in
            State.write st a i vb;
            (None, [], None)
        | P_store_value a ->
            let i = Value.to_int vb in
            State.write st a i (ev e);
            (None, [], None)
        | P_if ->
            State.write st "ia" 0 (Value.Int (if Value.truthy (ev e) then 100 else 200));
            (None, [], None)
        | P_push ->
            let v = ev e in
            (None, [ (Some v, Some va) ], None)
        | P_iter_lo ->
            let lo = Value.to_int (ev e) in
            (None, iter lo (lo + 3) (fun i -> (Some (Value.Int i), Some (Value.Int 0))), None)
        | P_iter_hi ->
            let hi = Value.to_int (ev e) in
            (None, iter (hi - 3) hi (fun i -> (Some (Value.Int i), Some (Value.Int 0))), None)
        | P_iter_arg -> (None, iter 0 2 (fun i -> (Some (ev e), Some (Value.Int i))), None)
        | P_alloc ->
            let v = ev e in
            (None, [], Some [ v; va ])
        | P_emit ->
            ignore (ev e);
            (Some (Value.Bool true), [], None)
      in
      render_outcome ~x ~children ~params st)

(* the core, stepped by hand: the tested task to its commit (pc 0) or
   until it parks, reading [x] there, then each child it pushed *)
let compiled_outcome pos e payload va vb =
  let r =
    try Some (Interp.eval_expr (position_env va vb) (Array.of_list payload) e)
    with Invalid_argument _ -> None
  in
  outcome (fun () ->
      let st = position_state () in
      let params = ref None in
      let bindings =
        {
          Spec.no_bindings with
          Spec.expected = [ ("r", fun vs -> params := Some vs; 1); ("seen", fun _ -> 1) ];
        }
      in
      let seen, seen_args = seen_rule r va in
      let sp = position_spec va vb seen (position_ops pos e r seen_args) in
      let en = Engine.create sp bindings st in
      Engine.push_initial en "t" payload;
      let rec to_commit tk =
        Engine.task_pc en tk = 0 || (Engine.step en tk <> Engine.lc_blocked && to_commit tk)
      in
      let tk = Engine.pop_task en 0 in
      let committed = to_commit tk in
      let x = Engine.task_var en tk "x" in
      if committed then ignore (Engine.step en tk);
      let rec children acc =
        let c = Engine.pop_task en 1 in
        if Engine.is_nil c then List.rev acc
        else begin
          ignore (to_commit c);
          let p = (Engine.task_var en c "p0", Engine.task_var en c "p1") in
          ignore (Engine.step en c);
          children (p :: acc)
        end
      in
      let children = children [] in
      render_outcome ~x ~children ~params:!params st)

let position_case_str (e, payload, va, vb) =
  Printf.sprintf "%s on [%s], a = %s, b = %s" (expr_str e)
    (String.concat "; " (List.map Value.to_string payload))
    (Value.to_string va) (Value.to_string vb)

(* a load from the packed copy reads what a load from [ia] reads: the
   same register value, or the same error but for the array's name *)
let packed_load_mismatch ((e, payload, va, vb) as case) =
  let from_ia = compiled_outcome (P_load "ia") e payload va vb in
  let from_pa = compiled_outcome (P_load "pa") e payload va vb in
  if from_ia = String.concat "State: ia[" (Astring.String.cuts ~sep:"State: pa[" from_pa) then []
  else
    [ Printf.sprintf "%s, as a load:\nfrom ia %s\nfrom pa %s" (position_case_str case) from_ia from_pa ]

let position_mismatches ((e, payload, va, vb) as case) =
  packed_load_mismatch case
  @ List.filter_map
      (fun pos ->
        let want = reference_outcome pos e payload va vb in
        let got = compiled_outcome pos e payload va vb in
        if want = got then None
        else
          Some
            (Printf.sprintf "%s, as %s:\nreference %s\ncompiled  %s" (position_case_str case)
               (position_str pos) want got))
      positions

(* mostly ints, so that the fast paths run as well as the fallbacks *)
let int_heavy_gen =
  QCheck.Gen.(frequency [ (3, map (fun n -> Value.Int n) (int_range (-4) 4)); (1, value_gen) ])

(* the fast shapes (a leaf, two leaves and a binop, or a leaf and a
   binop of two leaves, as in SPEC-BFS's [cur = p1 - 1]) more than half
   the time, arbitrary expressions otherwise *)
let position_expr_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun v -> Spec.Const v) int_heavy_gen;
          map (fun i -> Spec.Param i) (int_range 0 3);
          map (fun v -> Spec.Var v) var_gen;
        ]
    in
    let bin a b = map3 (fun op a b -> Spec.Binop (op, a, b)) binop_gen a b in
    frequency [ (1, leaf); (2, bin leaf leaf); (1, bin leaf (bin leaf leaf)); (3, expr_gen) ])

let test_compiled_positions =
  QCheck.Test.make ~name:"every compiled expression position matches the reference" ~count:1000
    (QCheck.make ~print:position_case_str
       QCheck.Gen.(
         quad position_expr_gen
           (list_size (int_range 2 4) int_heavy_gen)
           int_heavy_gen int_heavy_gen))
    (fun case ->
      match position_mismatches case with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

(* each fast shape sent to its fallback: a float or bool leaf, a
   [Param] out of range, an unbound [Var], and int [/] and [%] by 0.
   The shapes: a leaf, two leaves and a binop, a leaf plus or minus a
   constant, and a register compared with a payload slot minus a
   constant ([cur = p1 - 1]) *)
let test_fast_shape_fallbacks () =
  let i n = Value.Int n and f x = Value.Float x and b x = Value.Bool x in
  let leaf_cases =
    Spec.
      [
        (Param 0, [ f 2.5; i 1 ], i 1, i 2);
        (Param 0, [ b true; i 1 ], i 1, i 2);
        (Param 3, [ i 1; i 2 ], i 1, i 2);
        (Var "a", [ i 1; i 2 ], f (-1.0), i 2);
        (Var "a", [ i 1; i 2 ], b false, i 2);
        (Var "u", [ i 1; i 2 ], i 1, i 2);
        (Const (Value.Float 1.5), [ i 1; i 2 ], i 1, i 2);
        (Const (Value.Bool true), [ i 1; i 2 ], i 1, i 2);
      ]
  in
  let bin_cases =
    List.concat_map
      (fun op ->
        Spec.
          [
            (Binop (op, Param 0, Var "a"), [ i 1; i 2 ], f 0.5, i 2);
            (Binop (op, Var "a", Param 1), [ i 1; b true ], i 3, i 2);
            (Binop (op, Var "b", Param 3), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Var "u", int 1), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Var "a", Var "b"), [ i 1; i 2 ], b true, b false);
            (Binop (op, Param 0, int 0), [ i 1; i 2 ], i 1, i 2);
          ])
      Spec.[ Add; Sub; Mul; Div; Rem; Eq; Ne; Lt; Le; Gt; Ge ]
  in
  let offset_cases =
    List.concat_map
      (fun op ->
        Spec.
          [
            (Binop (op, Param 0, int 1), [ f 2.5; i 1 ], i 1, i 2);
            (Binop (op, Param 0, int 1), [ b true; i 1 ], i 1, i 2);
            (Binop (op, Param 3, int 1), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Var "a", int 1), [ i 1; i 2 ], f 0.5, i 2);
            (Binop (op, Var "a", int 1), [ i 1; i 2 ], b true, i 2);
            (Binop (op, Var "u", int 1), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Param 0, Var "a"), [ b false; i 2 ], i 1, i 2);
            (Binop (op, Param 3, Var "a"), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Param 0, Var "a"), [ i 1; i 2 ], b true, i 2);
            (Binop (op, Param 0, Var "u"), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Var "a", Var "b"), [ i 1; i 2 ], i 1, f 2.0);
            (Binop (op, Var "u", Var "b"), [ i 1; i 2 ], i 1, i 2);
            (Binop (op, Var "a", Var "u"), [ i 1; i 2 ], i 1, i 2);
          ])
      Spec.[ Add; Sub; Eq; Ne; Lt; Gt ]
  in
  let nested_cases =
    List.concat_map
      (fun op ->
        let e = Spec.(Binop (op, Var "a", Binop (Sub, Param 1, int 1))) in
        [
          (e, [ i 1; i 2 ], f 1.0, i 2);
          (e, [ i 1; i 2 ], b true, i 2);
          (Spec.(Binop (op, Var "u", Binop (Sub, Param 1, int 1))), [ i 1; i 2 ], i 1, i 2);
          (e, [ i 1; f 2.0 ], i 1, i 2);
          (e, [ i 1; b false ], i 1, i 2);
          (e, [ i 1 ], i 1, i 2);
          (e, [ i 1; i 2 ], i 1, i 2);
        ])
      Spec.[ Add; Eq; Ne; Lt; Le; Gt; Ge ]
  in
  match
    List.concat_map position_mismatches (leaf_cases @ bin_cases @ offset_cases @ nested_cases)
  with
  | [] -> ()
  | ms -> Alcotest.fail (String.concat "\n" ms)

(* --- the stepper is the substrate (tentpole acceptance): a new
   software backend is an interpretation record, nothing more.  A
   throwaway counting interpretation must pass full conformance
   including bit-identical state --- *)

let test_counting_interpretation () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let events = ref 0 in
  let finished = ref 0 in
  let count ~ts:_ ev =
    incr events;
    match ev with
    | Event.Task_finish _ -> incr finished
    | _ -> ()
  in
  let counting =
    Backend.of_interpretation ~name:"counting"
      ~summary:"test-only counting interpretation (a tap sink over the pipelined policy)"
      { (Semantics.pipelined ~workers:3 ()) with Semantics.sink = Sink.tap count }
  in
  (match Conformance.check ~state_equiv:true counting app with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "counting interpretation does not conform: %s"
        (Conformance.failure_to_string f));
  check Alcotest.bool "the sink observed the run" true (!events > 0);
  check Alcotest.bool "the sink saw task completions" true (!finished > 0)

(* --- the software runtimes' task events.  Observing must not steer: a
   collect-sink run is the null-sink run, bit for bit.  And the stream
   reads as the simulator's does: the Chrome trace draws one row per
   worker, and Lifecycle's outcomes add up to the engine's counters. --- *)

let with_sink sink interp =
  Backend.of_interpretation ~name:"observed" ~summary:"test-only interpretation with a sink"
    { interp with Semantics.sink }

let test_runtime_sink_keeps_run () =
  List.iter
    (fun (app : App_instance.t) ->
      let name = app.App_instance.app_name in
      let sink = Sink.collect () in
      let bare = Backend.run (Backend.runtime ~workers:3 ()) app in
      let seen = Backend.run (with_sink sink (Semantics.pipelined ~workers:3 ())) app in
      check Alcotest.string (name ^ ": steps and counters") (fingerprint bare) (fingerprint seen);
      (match (bare.Backend.final, seen.Backend.final) with
      | Some b, Some s ->
          check (Alcotest.list Alcotest.string) (name ^ ": final state") []
            (State.diff b.App_instance.state s.App_instance.state)
      | _ -> Alcotest.fail "a stepper run keeps its instance");
      check Alcotest.bool (name ^ ": events captured") true (Sink.count sink > 0);
      match
        Conformance.check ~state_equiv:(state_deterministic app)
          (with_sink (Sink.collect ()) (Semantics.pipelined ~workers:3 ()))
          app
      with
      | Ok () -> ()
      | Error f -> Alcotest.failf "%s: observed runtime does not conform: %s" name
                     (Conformance.failure_to_string f))
    (Workloads.all Workloads.Small ~seed:7)

let test_runtime_chrome_trace_rows () =
  let app = Workloads.spec_sssp Workloads.Small ~seed:42 in
  let sink = Sink.collect () in
  ignore (Backend.run (with_sink sink (Semantics.pipelined ~workers:4 ())) app);
  let module J = Agp_obs.Json in
  (* the thread names of the "task pipelines" process (pid 1) *)
  let row = function
    | J.Obj kv when List.assoc_opt "name" kv = Some (J.String "thread_name")
                    && List.assoc_opt "pid" kv = Some (J.Int 1) -> (
        match List.assoc_opt "args" kv with
        | Some (J.Obj [ ("name", J.String name) ]) -> Some name
        | _ -> None)
    | _ -> None
  in
  let rows =
    match Agp_obs.Chrome_trace.to_json (Sink.events sink) with
    | J.Obj kv -> (
        match List.assoc_opt "traceEvents" kv with
        | Some (J.List evs) -> List.filter_map row evs
        | _ -> Alcotest.fail "no traceEvents list")
    | _ -> Alcotest.fail "trace is not an object"
  in
  check (Alcotest.list Alcotest.string) "one pipeline row per worker"
    [ "relax/0"; "relax/1"; "relax/2"; "relax/3" ] rows

let test_runtime_lifecycle_counts () =
  List.iter
    (fun (app : App_instance.t) ->
      List.iter
        (fun interp ->
          let name = app.App_instance.app_name ^ " " ^ interp.Semantics.descr in
          let sink = Sink.collect () in
          let res = Backend.run (with_sink sink interp) app in
          let stats = Option.get res.Backend.engine_stats in
          let spans, unfinished = Agp_obs.Lifecycle.spans (Sink.events sink) in
          let outcomes o =
            List.length (List.filter (fun sp -> sp.Agp_obs.Lifecycle.sp_outcome = o) spans)
          in
          let per_set f =
            List.fold_left (fun acc s -> acc + f s) 0 (Agp_obs.Lifecycle.summarize spans)
          in
          check Alcotest.int (name ^ ": every task retired") 0 unfinished;
          check Alcotest.int (name ^ ": commits") stats.Engine.committed (outcomes Event.Commit);
          check Alcotest.int (name ^ ": aborts") stats.Engine.aborted (outcomes Event.Abort);
          check Alcotest.int (name ^ ": retries") stats.Engine.retried (outcomes Event.Retry);
          check Alcotest.int (name ^ ": per-set commits") stats.Engine.committed
            (per_set (fun s -> s.Agp_obs.Lifecycle.ls_commits));
          check Alcotest.int (name ^ ": per-set squashes")
            (stats.Engine.aborted + stats.Engine.retried)
            (per_set (fun s -> s.Agp_obs.Lifecycle.ls_squashes)))
        [ Semantics.oracle (); Semantics.pipelined ~workers:4 () ])
    (Workloads.all Workloads.Small ~seed:42)

(* --- typed liveness exceptions (satellite: no more stringly Failure) --- *)

(* Two rendezvous whose resolution orders point at each other.  Both
   waiters live in one for-each set so their stamps (and hence indices)
   are distinct — separate sets would give every first push the same
   all-zero index, making each waiter "minimal" and firing otherwise.
   Task 0 broadcasts before awaiting a [Min_uncommitted] rendezvous, so
   it retires from the uncommitted order and the minimum becomes task 1;
   task 1 awaits a [Min_waiting] rendezvous but task 0 parks ahead of it
   in the waiting order.  Neither is ever its scope's minimum, so
   neither otherwise clause can fire: a genuine rule-resolution cycle. *)
let deadlock_spec : Spec.t =
  let rendezvous name scope =
    {
      Spec.rule_name = name;
      n_params = 0;
      clauses = [];
      otherwise = false;
      scope;
      counted = false;
    }
  in
  let eq_role n = Spec.Binop (Spec.Eq, Spec.Param 0, Spec.int n) in
  {
    Spec.spec_name = "rendezvous-cycle";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 1;
          body =
            [
              Spec.If
                ( eq_role 0,
                  [
                    Spec.Emit ("done", []);
                    Spec.Alloc ("h", "r_unc", []);
                    Spec.Await ("v", "h");
                  ],
                  [
                    Spec.If
                      ( eq_role 1,
                        [ Spec.Alloc ("h", "r_wait", []); Spec.Await ("v", "h") ],
                        [] (* fillers: commit immediately *) );
                  ] );
            ];
        };
      ];
    rules = [ rendezvous "r_unc" Spec.Min_uncommitted; rendezvous "r_wait" Spec.Min_waiting ];
  }

let deadlock_initial fillers =
  [ ("t", [ Value.Int 0 ]); ("t", [ Value.Int 1 ]) ]
  @ List.init fillers (fun _ -> ("t", [ Value.Int 2 ]))

let test_deadlock_typed =
  QCheck.Test.make
    ~name:"rendezvous cycles raise typed Deadlock at any worker count" ~count:12
    QCheck.(pair (int_range 1 8) (int_range 0 5))
    (fun (workers, fillers) ->
      let workers = max 1 workers and fillers = max 0 fillers in
      match
        Semantics.run ~initial:(deadlock_initial fillers) (Semantics.pipelined ~workers ())
          deadlock_spec Spec.no_bindings (State.create ())
      with
      | exception Semantics.Deadlock _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "workers %d: expected Deadlock, got %s" workers
            (Printexc.to_string e)
      | _ -> QCheck.Test.fail_reportf "workers %d: a rendezvous cycle cannot quiesce" workers)

let test_step_limit_random_budgets =
  QCheck.Test.make ~name:"tiny step budgets raise typed Step_limit_exceeded" ~count:8
    QCheck.(int_range 1 5)
    (fun budget ->
      let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
      let r = app.App_instance.fresh () in
      match
        Semantics.run ~initial:r.App_instance.initial
          (Semantics.pipelined ~max_steps:budget ())
          app.App_instance.spec r.App_instance.bindings r.App_instance.state
      with
      | exception Semantics.Step_limit_exceeded n -> n = budget
      | exception e ->
          QCheck.Test.fail_reportf "budget %d: expected Step_limit_exceeded, got %s" budget
            (Printexc.to_string e)
      | _ -> QCheck.Test.fail_reportf "budget %d cannot complete SPEC-BFS" budget)

let test_liveness_exceptions_name_semantics () =
  (* the printer and the message both name a module that exists: the
     exceptions' home and the interpretation that raised them *)
  check Alcotest.string "Deadlock" {|Agp_core.Semantics.Deadlock("x")|}
    (Printexc.to_string (Semantics.Deadlock "x"));
  check Alcotest.string "Step_limit_exceeded" "Agp_core.Semantics.Step_limit_exceeded(7)"
    (Printexc.to_string (Semantics.Step_limit_exceeded 7));
  match Semantics.run (Semantics.pipelined ~workers:2 ())
          ~initial:(deadlock_initial 0) deadlock_spec Spec.no_bindings (State.create ())
  with
  | exception (Semantics.Deadlock msg as e) ->
      let s = Printexc.to_string e in
      check Alcotest.bool s true (Astring.String.is_prefix ~affix:"Agp_core.Semantics.Deadlock(" s);
      check Alcotest.bool msg true (Astring.String.is_prefix ~affix:"Semantics.pipelined:" msg)
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "rendezvous cycle cannot quiesce"

let test_step_limit_typed () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let r = app.App_instance.fresh () in
  match
    Semantics.run ~initial:r.App_instance.initial (Semantics.pipelined ~max_steps:1 ())
      app.App_instance.spec r.App_instance.bindings r.App_instance.state
  with
  | exception Semantics.Step_limit_exceeded n ->
      check Alcotest.int "exception carries the exhausted budget" 1 n
  | exception e -> Alcotest.failf "expected Step_limit_exceeded, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 1-step budget cannot complete SPEC-BFS"

(* The oracle is typed too: a rendezvous cycle under the sequential
   backend is a liveness failure, which [agp run] reports as exit 3
   through [Backend.liveness_failure]; an exhausted task budget is
   [Step_limit_exceeded]. *)
let deadlock_app : App_instance.t =
  {
    App_instance.app_name = "RENDEZVOUS-CYCLE";
    spec = deadlock_spec;
    fresh =
      (fun () ->
        {
          App_instance.state = State.create ();
          bindings = Spec.no_bindings;
          initial = deadlock_initial 2;
          check = (fun () -> Ok ());
        });
    kernel_flops = [];
    fpga_ilp = 1;
    sw_task_overhead = 0;
    cpu_flops_per_cycle = 1.0;
    fpga_mlp = 1;
    graph_source = None;
  }

let test_sequential_liveness_typed () =
  (match Backend.run Backend.sequential deadlock_app with
  | exception (Semantics.Deadlock _ as e) ->
      check Alcotest.bool "CLI maps it to the liveness exit" true
        (Backend.liveness_failure e <> None)
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a rendezvous cycle cannot quiesce under the oracle");
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let r = app.App_instance.fresh () in
  match
    Semantics.run ~initial:r.App_instance.initial (Semantics.oracle ~max_tasks:3 ())
      app.App_instance.spec r.App_instance.bindings r.App_instance.state
  with
  | exception Semantics.Step_limit_exceeded n -> check Alcotest.int "carries the task budget" 3 n
  | exception e -> Alcotest.failf "expected Step_limit_exceeded, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 3-task budget cannot complete SPEC-BFS"

(* The cycle simulator is typed the same way: the rendezvous cycle
   deadlocks it with [Engine.Deadlock] (the [Semantics] exception), whose
   message names the parked tasks and the minimum waiting index, and
   conformance classifies it as a liveness failure rather than a crash.
   The oracle cannot run the cycle, so the conformance check pairs a
   healthy app with a backend that runs the cycle on the simulator. *)
let test_simulator_liveness_typed () =
  let sim = Backend.simulator () in
  (match Backend.run sim deadlock_app with
  | exception (Semantics.Deadlock msg as e) ->
      let has affix = Astring.String.is_infix ~affix msg in
      check Alcotest.bool ("names the parked tasks: " ^ msg) true (has "2 parked tasks");
      check Alcotest.bool "names the minimum waiting index" true
        (has "minimum waiting index {0}");
      check Alcotest.bool "CLI maps it to the liveness exit" true
        (Backend.liveness_failure e <> None)
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a rendezvous cycle cannot quiesce on the simulator");
  let cycle_on_sim =
    {
      sim with
      Backend.name = "simulator-on-cycle";
      Backend.exec = (fun ~sink _ -> sim.Backend.exec ~sink deadlock_app);
    }
  in
  match Conformance.check cycle_on_sim (Workloads.spec_bfs Workloads.Small ~seed:7) with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "a deadlocked simulator cannot conform"

(* The core's indices stay consistent through whole runs: with checking
   on, the software policies call [Engine.check_invariants] after every
   step and the simulator once per cycle, for every app at small scale.
   The simulator also checks its in-flight calendar every cycle and its
   attribution totals at run end. *)
let test_engine_invariants_hold () =
  Engine.set_check_invariants true;
  Fun.protect
    ~finally:(fun () -> Engine.set_check_invariants (Sys.getenv_opt "AGP_CHECK" = Some "1"))
    (fun () ->
      List.iter
        (fun (app : App_instance.t) ->
          List.iter
            (fun (b : Backend.t) ->
              match (Backend.run b app).Backend.check with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "%s on %s: invalid result: %s" app.App_instance.app_name
                    b.Backend.name e)
            [ Backend.sequential; Backend.runtime ~workers:8 (); Backend.simulator () ])
        (Workloads.all Workloads.Small ~seed:42))

(* --- borrowed inputs: a run holds a workload array itself when its
   spec cannot write it (App_instance.add_input), so no run may change
   the workload it was made from --- *)

module Csr = Agp_graph.Csr

let copy_graph (g : Csr.t) =
  let copy a = Packed.of_array (Packed.to_array a) in
  { g with Csr.row_ptr = copy g.Csr.row_ptr; col = copy g.col; weight = copy g.weight }

(* [name] in [st] is the packed array [a] itself, lent read-only *)
let lent st name a =
  match State.data st name with
  | State.Packed p -> p == a
  | State.Ints _ | State.Floats _ -> false

let is_int_array st name =
  match State.data st name with
  | State.Ints _ -> true
  | State.Packed _ | State.Floats _ -> false

let test_runs_leave_workload_unchanged () =
  List.iter
    (fun (app : App_instance.t) ->
      let name = app.App_instance.app_name in
      let graph_before = Option.map (fun (g, _) -> copy_graph g) app.App_instance.graph_source in
      let fresh_before = State.snapshot (app.App_instance.fresh ()).App_instance.state in
      List.iter
        (fun (b : Backend.t) ->
          for pass = 1 to 2 do
            match Backend.run b app with
            | exception Backend.Unsupported _ -> ()
            | res -> (
                match res.Backend.check with
                | Ok () -> ()
                | Error e -> Alcotest.failf "%s on %s, run %d: %s" name b.Backend.name pass e)
          done)
        Backend.all;
      (match (graph_before, app.App_instance.graph_source) with
      | Some before, Some (g, _) ->
          check Alcotest.bool (name ^ ": workload graph bit-identical") true (before = g)
      | _ -> ());
      let fresh_after = (app.App_instance.fresh ()).App_instance.state in
      check (Alcotest.list Alcotest.string)
        (name ^ ": a fresh run starts from the same arrays")
        [] (State.diff fresh_before fresh_after))
    (Workloads.all Workloads.Small ~seed:7)

let test_borrowing_follows_the_spec () =
  let bfs = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let g, _ = Option.get bfs.App_instance.graph_source in
  let st = (bfs.App_instance.fresh ()).App_instance.state in
  check Alcotest.bool "SPEC-BFS borrows col" true (lent st "col" g.Csr.col);
  Alcotest.check_raises "a borrowed column has no int handle"
    (Invalid_argument "State: col is read-only") (fun () -> ignore (State.int_array st "col"));
  check Alcotest.bool "SPEC-BFS gets its own level" false
    (State.int_array st "level" == State.int_array (bfs.App_instance.fresh ()).App_instance.state "level");
  let mst = Workloads.spec_mst Workloads.Small ~seed:7 in
  check Alcotest.bool "SPEC-MST has prims, so every array is writable" true
    (Spec.may_write mst.App_instance.spec "ea");
  check Alcotest.bool "SPEC-MST copies its edge arrays" false
    (State.int_array (mst.App_instance.fresh ()).App_instance.state "ea"
    == State.int_array (mst.App_instance.fresh ()).App_instance.state "ea");
  (* a spec that stores into col: it must get a copy, and running it must
     leave the workload's col as it was *)
  let writer : Spec.t =
    {
      Spec.spec_name = "col-writer";
      task_sets =
        [
          {
            Spec.ts_name = "zero";
            ts_order = Spec.For_each;
            arity = 1;
            body = [ Spec.Store ("col", Spec.Param 0, Spec.int 0) ];
          };
        ];
      rules = [];
    }
  in
  check Alcotest.bool "the writer may write col" true (Spec.may_write writer "col");
  check Alcotest.bool "the writer only reads row_ptr" false (Spec.may_write writer "row_ptr");
  let graph_before = copy_graph g in
  let fresh () =
    let state = State.create () in
    App_instance.add_input writer state "row_ptr" g.Csr.row_ptr;
    App_instance.add_input writer state "col" g.Csr.col;
    let check () =
      if Array.for_all (fun x -> x = 0) (State.int_array state "col") then Ok ()
      else Error "col not zeroed"
    in
    {
      App_instance.state;
      bindings = Spec.no_bindings;
      initial = List.init g.Csr.m (fun e -> ("zero", [ Value.Int e ]));
      check;
    }
  in
  let st = (fresh ()).App_instance.state in
  check Alcotest.bool "the writer borrows row_ptr" true (lent st "row_ptr" g.Csr.row_ptr);
  check Alcotest.bool "the writer gets an int copy of col" true (is_int_array st "col");
  check (Alcotest.array Alcotest.int) "the copy holds col" (Packed.to_array g.Csr.col)
    (State.int_array st "col");
  let app = { bfs with App_instance.app_name = "COL-WRITER"; spec = writer; fresh; graph_source = None } in
  List.iter
    (fun b ->
      match (Backend.run b app).Backend.check with
      | Ok () -> ()
      | Error e -> Alcotest.failf "col-writer on %s: %s" b.Backend.name e)
    [ Backend.sequential; Backend.runtime ~workers:4 (); Backend.simulator () ];
  check Alcotest.bool "the workload's packed graph is unchanged" true (graph_before = g)

let test_conformance_classifies_liveness () =
  (* a backend that diverges must be classified Liveness, not Crash *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let starved =
    {
      (Backend.runtime ()) with
      Backend.name = "starved";
      Backend.exec =
        (fun ~sink:_ (app : App_instance.t) ->
          let r = app.App_instance.fresh () in
          ignore
            (Semantics.run ~initial:r.App_instance.initial (Semantics.pipelined ~max_steps:1 ())
               app.App_instance.spec r.App_instance.bindings r.App_instance.state);
          assert false);
    }
  in
  match Conformance.check starved app with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "starved backend cannot conform"

(* --- CLI integration: the run/backends subcommands and the golden gate --- *)

let cli_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "agp_cli.exe"

let test_cli_run_backend_and_golden_diff () =
  if not (Sys.file_exists cli_exe) then ()
  else begin
    let tmp = Filename.temp_file "agp_run" ".json" in
    let sh fmt = Printf.ksprintf (fun s -> Sys.command (s ^ " >/dev/null 2>&1")) fmt in
    (* a command's stdout *)
    let output cmd =
      let out = Filename.temp_file "agp_out" ".txt" in
      ignore (Sys.command (Printf.sprintf "%s >%s 2>/dev/null" cmd out));
      let s = In_channel.with_open_text out In_channel.input_all in
      Sys.remove out;
      s
    in
    check Alcotest.int "agp backends exits 0" 0 (sh "%s backends" cli_exe);
    (* the listing's footer follows the registry: every alias and
       parameterized form *)
    let footer =
      match List.rev (String.split_on_char '\n' (String.trim (output (cli_exe ^ " backends")))) with
      | last :: _ -> last
      | [] -> ""
    in
    List.iter
      (fun form ->
        check Alcotest.bool ("backends footer names " ^ form) true
          (Astring.String.is_infix ~affix:form footer))
      (List.map (fun (n, what) -> Printf.sprintf "%s:<%s>" n what) Backend.parameterized
      @ List.map (fun (a, n) -> Printf.sprintf "`%s` aliases `%s`" a n) Backend.aliases);
    check Alcotest.int "agp run --backend simulator --report exits 0" 0
      (sh "%s run spec-bfs --scale small --backend simulator --report %s" cli_exe tmp);
    let golden = golden_file "spec-bfs-small.report.json" in
    (match golden with
    | Some golden ->
        check Alcotest.int "report accepted by the golden diff gate" 0
          (sh "%s diff %s %s --threshold 0.25" cli_exe golden tmp)
    | None -> Alcotest.fail "golden report not found (dep on golden/*.json missing?)");
    check Alcotest.int "runtime backend via CLI exits 0" 0
      (sh "%s run spec-bfs --scale small --backend runtime:2" cli_exe);
    check Alcotest.int "unknown backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend nosuch" cli_exe);
    (* liveness failures map to the dedicated exit code, not a crash *)
    check Alcotest.int "exhausted step budget exits 3" 3
      (sh "%s run spec-bfs --scale small --backend runtime --max-steps 1" cli_exe);
    check Alcotest.int "--max-steps on a budgetless backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend sequential --max-steps 1" cli_exe);
    check Alcotest.int "retired simulator:classic is an unknown backend" 1
      (sh "%s run spec-bfs --scale small --backend simulator:classic" cli_exe);
    check Alcotest.int "report on non-obs backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend cpu-1core --report %s" cli_exe tmp);
    check Alcotest.int "runtime --report exits 0" 0
      (sh "%s run coor-bfs --scale small --backend runtime:8 --report %s" cli_exe tmp);
    (match Agp_obs.Report.of_string (In_channel.with_open_text tmp In_channel.input_all) with
    | Ok doc ->
        check Alcotest.bool "runtime report has a lifecycle section" true
          (List.mem_assoc "lifecycle" doc.Agp_obs.Report.sections)
    | Error e -> Alcotest.failf "runtime report does not parse: %s" e);
    check Alcotest.int "unsupported app/backend pair exits 1" 1
      (sh "%s run spec-dmr --scale small --backend opencl" cli_exe);
    (* observe simulates the accelerator run --backend simulator does *)
    let cycles cmd =
      let words =
        output cmd |> String.map (fun c -> if c = '\n' then ' ' else c) |> String.split_on_char ' '
      in
      (* the first "<n> cycles" the command prints *)
      let rec first = function
        | n :: ("cycles" | "cycles,") :: _ when int_of_string_opt n <> None -> int_of_string n
        | _ :: rest -> first rest
        | [] -> Alcotest.failf "no cycle count printed by %s" cmd
      in
      first words
    in
    List.iter
      (fun app ->
        check Alcotest.int
          (app ^ ": observe and run --backend simulator agree on cycles")
          (cycles (Printf.sprintf "%s run %s --scale small --backend simulator" cli_exe app))
          (cycles (Printf.sprintf "%s observe %s --scale small -o %s" cli_exe app tmp)))
      Workloads.app_names;
    Sys.remove tmp
  end

(* observe writes the report run --report writes: same meta, metrics,
   attribution, lifecycle and timeline, except the two gauges the host
   measures (wall-clock rate and allocation), which differ between any
   two processes *)
let test_cli_observe_report_equals_run_report () =
  if not (Sys.file_exists cli_exe) then ()
  else begin
    let module Json = Agp_obs.Json in
    let host_gauges = [ "accel.sim_cycles_per_sec"; "accel.minor_words_per_cycle" ] in
    let report cmd =
      let out = Filename.temp_file "agp_report" ".json" in
      let rc = Sys.command (Printf.sprintf "%s --report %s >/dev/null 2>&1" cmd out) in
      let s = In_channel.with_open_text out In_channel.input_all in
      Sys.remove out;
      check Alcotest.int (cmd ^ " exits 0") 0 rc;
      match Json.parse s with
      | Ok (Json.Obj kvs) ->
          Json.Obj
            (List.map
               (function
                 | "metrics", Json.Obj m ->
                     let measured (k, _) = List.mem k host_gauges in
                     ("metrics", Json.Obj (List.filter (fun kv -> not (measured kv)) m))
                 | kv -> kv)
               kvs)
      | Ok _ -> Alcotest.failf "%s: report is not an object" cmd
      | Error e -> Alcotest.failf "%s: report does not parse: %s" cmd e
    in
    let trace = Filename.temp_file "agp_trace" ".json" in
    List.iter
      (fun app ->
        let ran =
          report (Printf.sprintf "%s run %s --scale small --backend simulator" cli_exe app)
        in
        let observed =
          report (Printf.sprintf "%s observe %s --scale small -o %s" cli_exe app trace)
        in
        check Alcotest.string
          (app ^ ": observe --report equals run --backend simulator --report")
          (Json.to_string ran) (Json.to_string observed))
      Workloads.app_names;
    Sys.remove trace
  end

let () =
  Alcotest.run "agp_backend"
    [
      ( "conformance",
        [
          Alcotest.test_case "matrix: apps x mutating backends" `Quick test_matrix;
          qtest test_matrix_random_seeds;
          Alcotest.test_case "liveness classified, not crashed" `Quick
            test_conformance_classifies_liveness;
          Alcotest.test_case "pinned fingerprints (sequential, runtime, simulator)" `Quick
            test_pinned_fingerprints;
          Alcotest.test_case "pinned simulator event-stream digests" `Quick
            test_pinned_event_digests;
          Alcotest.test_case "observing keeps cycles, counters and attribution" `Quick
            test_observing_keeps_timing;
        ] );
      ( "semantics",
        [
          qtest test_binop_engines_agree;
          Alcotest.test_case "shared binop error messages" `Quick test_binop_error_cases;
          qtest test_compiled_positions;
          Alcotest.test_case "fast shapes fall back to the evaluator" `Quick
            test_fast_shape_fallbacks;
          Alcotest.test_case "a sink does not steer the runtime" `Quick
            test_runtime_sink_keeps_run;
          Alcotest.test_case "runtime chrome trace: one row per worker" `Quick
            test_runtime_chrome_trace_rows;
          Alcotest.test_case "runtime lifecycle outcomes equal engine stats" `Quick
            test_runtime_lifecycle_counts;
          Alcotest.test_case "a substrate is an interpretation record" `Quick
            test_counting_interpretation;
          qtest test_deadlock_typed;
          qtest test_step_limit_random_budgets;
          Alcotest.test_case "liveness exceptions print as Semantics" `Quick
            test_liveness_exceptions_name_semantics;
          Alcotest.test_case "oracle liveness failures are typed" `Quick
            test_sequential_liveness_typed;
          Alcotest.test_case "simulator liveness failures are typed" `Quick
            test_simulator_liveness_typed;
          Alcotest.test_case "engine invariants hold through every app" `Quick
            test_engine_invariants_hold;
          Alcotest.test_case "event gating keeps heard events" `Quick
            test_event_gating_keeps_heard_events;
        ] );
      ( "borrowing",
        [
          Alcotest.test_case "two runs per backend leave the workload unchanged" `Quick
            test_runs_leave_workload_unchanged;
          Alcotest.test_case "borrowing follows the spec" `Quick test_borrowing_follows_the_spec;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find and parameterized names" `Quick test_registry_find;
          Alcotest.test_case "timing models run uniformly" `Quick test_timing_models_run;
          Alcotest.test_case "obs report on request" `Quick test_obs_report_capability;
          Alcotest.test_case "obs report states its coverage" `Quick test_obs_report_coverage;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "step limit is typed" `Quick test_step_limit_typed;
        ] );
      ( "cli",
        [
          Alcotest.test_case "run --backend / backends / golden gate" `Quick
            test_cli_run_backend_and_golden_diff;
          Alcotest.test_case "observe --report equals run --report" `Quick
            test_cli_observe_report_equals_run_report;
        ] );
    ]
