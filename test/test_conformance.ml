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
module Runtime = Agp_core.Runtime
module Semantics = Agp_core.Semantics
module Spec = Agp_core.Spec
module Value = Agp_core.Value
module State = Agp_core.State

(* Result-deterministic apps: the committed state is a function of the
   input alone (unique BFS levels; SSSP distances on distinct random
   weights), so conformance can demand bit-identical state, not just a
   passing check.  MST's union-find shape, DMR's mesh and LU's float
   accumulation order are schedule-dependent, so for those the check
   verdict is the equivalence criterion. *)
let state_deterministic (app : App_instance.t) =
  List.mem app.App_instance.app_name [ "SPEC-BFS"; "COOR-BFS"; "SPEC-SSSP" ]

(* The backends-under-test set is derived from the registry itself
   (every validating backend plus pinned parallel:1/2/4 instances) —
   registering a backend opts it into conformance automatically. *)
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

let test_obs_report_capability () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let sim = Backend.simulator () in
  let res = Backend.run ~obs:true sim app in
  (match res.Backend.obs with
  | None -> Alcotest.fail "obs-capable simulator returned no report under ~obs:true"
  | Some doc ->
      check Alcotest.string "report app" app.App_instance.app_name doc.Agp_obs.Report.app;
      (match Agp_obs.Report.of_string (Agp_obs.Report.to_string doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "backend obs report does not reparse: %s" e));
  let res' = Backend.run sim app in
  check Alcotest.bool "no report unless asked" true (res'.Backend.obs = None);
  let seq = Backend.run ~obs:true Backend.sequential app in
  check Alcotest.bool "non-obs backend ignores ~obs" true (seq.Backend.obs = None)

(* --- registry lookup --- *)

let test_registry_find () =
  check
    Alcotest.(list string)
    "registry order"
    [ "sequential"; "runtime"; "parallel"; "simulator"; "cpu-1core"; "cpu-10core"; "opencl" ]
    Backend.names;
  let name s =
    match Backend.find s with
    | Ok b -> b.Backend.name
    | Error e -> "error: " ^ e
  in
  check Alcotest.string "plain name" "runtime" (name "runtime");
  check Alcotest.string "fpga aliases simulator" "simulator" (name "fpga");
  (* one cycle engine: the retired engine names are unknown backends *)
  List.iter
    (fun gone ->
      match Backend.find gone with
      | Ok _ -> Alcotest.failf "%s still resolves" gone
      | Error e ->
          check Alcotest.bool (gone ^ " is an unknown backend") true
            (Astring.String.is_prefix ~affix:"unknown backend" e))
    [ "simulator:classic"; "simulator:compiled" ];
  check Alcotest.string "parameterized workers" "runtime:3" (name "runtime:3");
  check Alcotest.string "parameterized domains" "parallel:2" (name "parallel:2");
  List.iter
    (fun bad ->
      check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Backend.find bad)))
    [ "nosuch"; "runtime:0"; "runtime:-1"; "runtime:x"; "parallel:"; "simulator:4"; "" ]

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

let expr_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun v -> Spec.Const v) value_gen;
                 map (fun i -> Spec.Param i) (int_range 0 3);
               ]
           else
             frequency
               [
                 (1, map (fun v -> Spec.Const v) value_gen);
                 (1, map (fun i -> Spec.Param i) (int_range 0 3));
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

(* --- the stepper is the substrate (tentpole acceptance): a new
   software backend is an interpretation record, nothing more.  A
   throwaway counting interpretation must pass full conformance
   including bit-identical state --- *)

let test_counting_interpretation () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let events = ref 0 in
  let finished = ref 0 in
  let hooks =
    {
      Semantics.on_event =
        (fun ~tick:_ ~worker:_ _ ev ->
          incr events;
          match ev with
          | Semantics.Finished _ -> incr finished
          | _ -> ());
    }
  in
  let counting =
    Backend.of_interpretation ~name:"counting"
      ~summary:"test-only counting interpretation (hooks over the pipelined policy)"
      (Semantics.with_hooks (Semantics.pipelined ~workers:3 ()) hooks)
  in
  (match Conformance.check ~state_equiv:true counting app with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "counting interpretation does not conform: %s"
        (Conformance.failure_to_string f));
  check Alcotest.bool "hooks observed the run" true (!events > 0);
  check Alcotest.bool "hooks saw task completions" true (!finished > 0)

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
        Runtime.run ~initial:(deadlock_initial fillers) ~workers deadlock_spec
          Spec.no_bindings (State.create ())
      with
      | exception Runtime.Deadlock _ -> true
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
        Runtime.run ~initial:r.App_instance.initial ~max_steps:budget app.App_instance.spec
          r.App_instance.bindings r.App_instance.state
      with
      | exception Runtime.Step_limit_exceeded n -> n = budget
      | exception e ->
          QCheck.Test.fail_reportf "budget %d: expected Step_limit_exceeded, got %s" budget
            (Printexc.to_string e)
      | _ -> QCheck.Test.fail_reportf "budget %d cannot complete SPEC-BFS" budget)

let test_exceptions_shared_with_semantics () =
  (* Runtime re-exports the Semantics constructors: one exception, two
     names, every existing handler keeps matching. *)
  check Alcotest.bool "Deadlock rebound" true
    (Runtime.Deadlock "x" = Semantics.Deadlock "x");
  check Alcotest.bool "Step_limit_exceeded rebound" true
    (Runtime.Step_limit_exceeded 7 = Semantics.Step_limit_exceeded 7);
  match Semantics.run (Semantics.pipelined ~workers:2 ())
          ~initial:(deadlock_initial 0) deadlock_spec Spec.no_bindings (State.create ())
  with
  | exception Runtime.Deadlock _ -> ()
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "rendezvous cycle cannot quiesce"

let test_step_limit_typed () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let r = app.App_instance.fresh () in
  match
    Runtime.run ~initial:r.App_instance.initial ~max_steps:1 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  with
  | exception Runtime.Step_limit_exceeded n ->
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
      Backend.exec = (fun ~obs _ -> sim.Backend.exec ~obs deadlock_app);
    }
  in
  match Conformance.check cycle_on_sim (Workloads.spec_bfs Workloads.Small ~seed:7) with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "a deadlocked simulator cannot conform"

(* The core's indices stay consistent through whole runs: with checking
   on, the software policies call [Engine.check_invariants] after every
   step and the simulator once per cycle, for every app at small scale. *)
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

(* The software path allocates only for what the spec itself boxes
   (prim arguments, counted-rule event logs) and pool growth: an
   untraced pipelined run stays under a fixed words-per-op ceiling.
   Measured at 2.97 words/op; the ceiling leaves 2x headroom. *)
let test_pipelined_allocation_ceiling () =
  let app = Workloads.spec_sssp Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let interp = Semantics.pipelined () in
  let w0 = Gc.minor_words () in
  let rep =
    Semantics.run ~initial:r.App_instance.initial interp app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  let words = Gc.minor_words () -. w0 in
  let ops = rep.Semantics.stats.Agp_core.Engine.ops_executed in
  let per_op = words /. float_of_int (max 1 ops) in
  check Alcotest.bool (Printf.sprintf "%.2f minor words/op under the ceiling" per_op) true
    (per_op < 6.0)

let test_conformance_classifies_liveness () =
  (* a backend that diverges must be classified Liveness, not Crash *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let starved =
    {
      (Backend.runtime ()) with
      Backend.name = "starved";
      Backend.exec =
        (fun ~obs:_ (app : App_instance.t) ->
          let r = app.App_instance.fresh () in
          ignore
            (Runtime.run ~initial:r.App_instance.initial ~max_steps:1 app.App_instance.spec
               r.App_instance.bindings r.App_instance.state);
          assert false);
    }
  in
  match Conformance.check starved app with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "starved backend cannot conform"

(* --- check_both double fault (satellite: no first-failure short-circuit) --- *)

let test_check_both_reports_both_modes () =
  let base = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let sabotaged which =
    {
      base with
      App_instance.fresh =
        (fun () ->
          let r = base.App_instance.fresh () in
          { r with App_instance.check = (fun () -> Error which) });
    }
  in
  (match App_instance.check_both (sabotaged "forced failure") with
  | Ok () -> Alcotest.fail "sabotaged check cannot pass"
  | Error msg ->
      let has affix = Astring.String.is_infix ~affix msg in
      check Alcotest.bool "reports the sequential mode" true (has "sequential: forced failure");
      check Alcotest.bool "reports the runtime mode" true (has "runtime: forced failure");
      check Alcotest.bool "joins both faults" true (has "; "));
  check Alcotest.bool "healthy app still passes" true (App_instance.check_both base = Ok ())

(* --- CLI integration: the run/backends subcommands and the golden gate --- *)

let cli_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "agp_cli.exe"

let test_cli_run_backend_and_golden_diff () =
  if not (Sys.file_exists cli_exe) then ()
  else begin
    let tmp = Filename.temp_file "agp_run" ".json" in
    let sh fmt = Printf.ksprintf (fun s -> Sys.command (s ^ " >/dev/null 2>&1")) fmt in
    check Alcotest.int "agp backends exits 0" 0 (sh "%s backends" cli_exe);
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
      (sh "%s run spec-bfs --scale small --backend sequential --report %s" cli_exe tmp);
    check Alcotest.int "unsupported app/backend pair exits 1" 1
      (sh "%s run spec-dmr --scale small --backend opencl" cli_exe);
    Sys.remove tmp
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
        ] );
      ( "semantics",
        [
          qtest test_binop_engines_agree;
          Alcotest.test_case "shared binop error messages" `Quick test_binop_error_cases;
          Alcotest.test_case "a substrate is an interpretation record" `Quick
            test_counting_interpretation;
          qtest test_deadlock_typed;
          qtest test_step_limit_random_budgets;
          Alcotest.test_case "Runtime exceptions are the Semantics exceptions" `Quick
            test_exceptions_shared_with_semantics;
          Alcotest.test_case "oracle liveness failures are typed" `Quick
            test_sequential_liveness_typed;
          Alcotest.test_case "pipelined run allocation ceiling" `Quick
            test_pipelined_allocation_ceiling;
          Alcotest.test_case "simulator liveness failures are typed" `Quick
            test_simulator_liveness_typed;
          Alcotest.test_case "engine invariants hold through every app" `Quick
            test_engine_invariants_hold;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find and parameterized names" `Quick test_registry_find;
          Alcotest.test_case "timing models run uniformly" `Quick test_timing_models_run;
          Alcotest.test_case "obs report on request" `Quick test_obs_report_capability;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "step limit is typed" `Quick test_step_limit_typed;
          Alcotest.test_case "check_both reports both modes" `Quick
            test_check_both_reports_both_modes;
        ] );
      ( "cli",
        [
          Alcotest.test_case "run --backend / backends / golden gate" `Quick
            test_cli_run_backend_and_golden_diff;
        ] );
    ]
