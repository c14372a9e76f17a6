(* The repository benchmark.

   bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   bench --self-test

   Runs one workload for S seconds and prints, as its last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1 (a separate, traced run).  perfbench/run.py builds this
   program and the agp CLI first, then runs it from the repository
   root. *)

module W = Agp_exp.Workloads

type workload =
  | Substrate of Substrate.spec
  | Serve of Serve_load.spec

(* Set-up rounds and pass times are fixed per workload, so that two
   programs are measured over the same number of samples.  Pass times
   are as measured on a shared 2-vCPU Xeon VM; a run makes [seconds]
   over [pass_s] passes. *)
let workloads =
  [
    ( "sim-bfs",
      Substrate
        {
          Substrate.app = "spec-bfs";
          scale = W.Medium;
          substrate = Substrate.Simulator;
          instances = 8;
          calib = Calib.memory;
          setup_rounds = 20;
          pass_s = 8.0;
          traced_pass_s = 20.0;
        } );
    (* not in BENCHMARK.json: too noisy on shared hosts to gate *)
    ( "sim-mst",
      Substrate
        {
          Substrate.app = "spec-mst";
          scale = W.Medium;
          substrate = Substrate.Simulator;
          instances = 3;
          calib = Calib.memory;
          setup_rounds = 20;
          pass_s = 5.0;
          traced_pass_s = 13.0;
        } );
    ( "runtime-sssp",
      Substrate
        {
          Substrate.app = "spec-sssp";
          scale = W.Small;
          substrate = Substrate.Runtime;
          instances = 16;
          calib = Calib.allocation;
          setup_rounds = 40;
          pass_s = 5.0;
          traced_pass_s = 12.0;
        } );
    ("serve-bfs", Serve { Serve_load.rate = 10.0; seeds = 16; spawns = 11 });
  ]

type env = { agp : string; out_dir : string }

(* The serve workload's traced run also runs its requests' workload
   locally, traced, so that it reports the substrate layers a served
   request goes through. *)
let serve_reference (s : Serve_load.spec) =
  {
    Substrate.app = Serve_load.app;
    scale = W.Small;
    substrate = Substrate.Simulator;
    instances = s.Serve_load.seeds;
    calib = Calib.memory;
    setup_rounds = 1;
    pass_s = 1.0;
    traced_pass_s = 1.0;
  }

let run_workload env spans out w ~seed ~seconds ~traced =
  match w with
  | Substrate s -> Some (Substrate.run spans out s ~seed ~seconds ~traced)
  | Serve s ->
      Serve_load.run spans out s ~agp:env.agp ~out_dir:env.out_dir ~seed ~seconds ~traced;
      if traced then ignore (Substrate.run spans out (serve_reference s) ~seed ~seconds:0.0 ~traced);
      None

(* BENCHMARK.json at the repository root declares every metric the
   benchmark reports, with its unit, and the run length. *)
let benchmark_json = "BENCHMARK.json"

let declared =
  lazy
    (match Agp_obs.Json.parse (In_channel.with_open_bin benchmark_json In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith (benchmark_json ^ ": " ^ e))

let field doc key conv =
  match Option.bind (Agp_obs.Json.member key doc) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no valid %S" benchmark_json key)

let catalog ~traced =
  let module J = Agp_obs.Json in
  List.map
    (fun e -> (field e "name" J.to_str, field e "unit" J.to_str))
    (field (Lazy.force declared) (if traced then "per_layer" else "end_to_end") J.to_list)

let run_seconds () = field (Lazy.force declared) "run_seconds" Agp_obs.Json.to_float

let print_outcome name out ~traced =
  let cat = catalog ~traced in
  Outcome.check_finite out cat;
  List.iter
    (fun (metric, unit) ->
      Printf.printf "%-14s %-28s %16.6g %s\n" name metric
        (Option.value ~default:0.0 (Outcome.get out metric))
        unit)
    cat;
  Printf.printf "%-14s %-28s %16.6g %s\n" name "fail_frac" (Outcome.fail_frac out) "frac";
  (* figures the run also took that BENCHMARK.json does not declare,
     such as the host's speed: diagnostics, not metrics *)
  List.iter
    (fun (metric, v) ->
      if not (List.mem_assoc metric cat) then
        Printf.printf "%-14s %-28s %16.6g (diagnostic)\n" name metric v)
    (Outcome.bindings out);
  List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n" name f) (List.rev out.Outcome.failures);
  print_endline (Outcome.to_json_line out cat)

(* --- self-test: a tiny pass over every workload, both modes --- *)

let tiny = function
  | Substrate s -> Substrate { s with Substrate.scale = W.Small; instances = 2; setup_rounds = 2 }
  | Serve _ -> Serve { Serve_load.rate = 20.0; seeds = 2; spawns = 2 }

let self_test env =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun traced ->
          let spans = Spans.create () and out = Outcome.create () in
          let m = run_workload env spans out (tiny w) ~seed:42 ~seconds:1.0 ~traced in
          let label = Printf.sprintf "%s (trace %d)" name (if traced then 1 else 0) in
          Printf.printf "self-test %-26s attempted %d failed %d\n%!" label out.Outcome.attempted
            out.Outcome.failed;
          if not (Outcome.correct out) then
            problem "%s: %d of %d failed (%s)" label out.Outcome.failed out.Outcome.attempted
              (String.concat "; " out.Outcome.failures);
          List.iter
            (fun (metric, _) ->
              match Outcome.get out metric with
              | None when not traced -> problem "%s: %s missing" label metric
              | Some v when not (Float.is_finite v) -> problem "%s: %s not finite" label metric
              | Some v when (not traced) && v <= 0.0 -> problem "%s: %s is %g" label metric v
              | _ -> ())
            (catalog ~traced);
          (* the three set-up layers account for each set-up *)
          Option.iter
            (fun (m : Substrate.measured) ->
              List.iter
                (fun (st : Substrate.setup) ->
                  let parts = st.Substrate.build_s +. st.fresh_s +. st.compile_s in
                  if Float.abs (st.Substrate.total_s -. parts) > (0.05 *. st.total_s) +. 1e-3 then
                    problem "%s: set-up %.6f s but build+fresh+compile %.6f s" label st.total_s parts)
                (List.concat_map (fun r -> r.Substrate.setups) m.Substrate.rounds))
            m)
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] ->
      print_endline "self-test: ok";
      0
  | ps ->
      List.iter (fun p -> Printf.printf "self-test FAILED: %s\n" p) ps;
      1

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref nan and trace = ref 0 in
  let agp = ref "_build/default/bin/agp_cli.exe" and out_dir = ref "perfbench/_out" in
  let self = ref false in
  let names = String.concat ", " (List.map fst workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measurement time (default: run_seconds of BENCHMARK.json)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or the traced per-layer run");
      ("--agp", Arg.Set_string agp, "PATH the agp CLI binary, for the serve daemon");
      ("--out-dir", Arg.Set_string out_dir, "DIR span files, daemon logs and sockets");
      ("--self-test", Arg.Set self, " tiny pass over every workload, checking every metric");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | bench --self-test";
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env = { agp = !agp; out_dir = !out_dir } in
  if !self then exit (self_test env);
  let seconds = if Float.is_nan !seconds then run_seconds () else !seconds in
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "bench: unknown workload %S (known: %s)\n" !workload names;
      exit 2
  | Some w ->
      let traced = !trace <> 0 in
      let spans = Spans.create () and out = Outcome.create () in
      ignore (run_workload env spans out w ~seed:!seed ~seconds ~traced);
      Spans.write spans
        (Filename.concat !out_dir
           (Printf.sprintf "spans-%s-seed%d-trace%d.json" !workload !seed !trace));
      print_outcome !workload out ~traced;
      exit (if Outcome.correct out then 0 else 1)
