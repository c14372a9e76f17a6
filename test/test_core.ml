(* Unit tests for the core abstraction: values, indices, expressions,
   spec validation, engine semantics — plus BFS integration through both
   software interpreters. *)

open Agp_core
module Bfs_app = Agp_apps.Bfs_app
module App_instance = Agp_apps.App_instance
module Backend = Agp_backend.Backend
module Conformance = Agp_backend.Conformance

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Value --- *)

let test_value_conversions () =
  check Alcotest.int "to_int" 5 (Value.to_int (Value.Int 5));
  check (Alcotest.float 0.0) "widen" 5.0 (Value.to_float (Value.Int 5));
  check Alcotest.bool "to_bool" true (Value.to_bool (Value.Bool true));
  check Alcotest.bool "truthy int" true (Value.truthy (Value.Int 3));
  check Alcotest.bool "truthy zero" false (Value.truthy (Value.Int 0));
  Alcotest.check_raises "int of bool" (Invalid_argument "Value.to_int: true") (fun () ->
      ignore (Value.to_int (Value.Bool true)))

let test_value_equal () =
  check Alcotest.bool "int eq" true (Value.equal (Value.Int 1) (Value.Int 1));
  check Alcotest.bool "kind mismatch" false (Value.equal (Value.Int 1) (Value.Float 1.0))

(* --- Index --- *)

let test_index_lexicographic () =
  let i a = Index.of_array a in
  check Alcotest.bool "fewer wins" true (Index.compare (i [| 1; 0 |]) (i [| 2; 0 |]) < 0);
  check Alcotest.bool "second slot" true (Index.compare (i [| 1; 1 |]) (i [| 1; 2 |]) < 0);
  check Alcotest.bool "equal" true (Index.equal (i [| 3; 4 |]) (i [| 3; 4 |]))

let test_index_child () =
  let parent = Index.of_array [| 7; 3; 9 |] in
  let c = Index.child ~parent ~slot:1 ~stamp:5 in
  check (Alcotest.array Alcotest.int) "inherit left, stamp, reset right" [| 7; 5; 0 |]
    (Index.to_array c)

let prop_index_compare_total_order =
  QCheck.Test.make ~name:"index compare is antisymmetric" ~count:300
    QCheck.(pair (array_of_size (QCheck.Gen.return 3) (int_range 0 5))
              (array_of_size (QCheck.Gen.return 3) (int_range 0 5)))
    (fun (a, b) ->
      let ia = Index.of_array a and ib = Index.of_array b in
      compare (Index.compare ia ib) 0 = -compare (Index.compare ib ia) 0)

(* --- Interp --- *)

let test_interp_arith () =
  let e = Interp.eval_binop in
  check Alcotest.bool "int add" true (Value.equal (Value.Int 7) (e Spec.Add (Value.Int 3) (Value.Int 4)));
  check Alcotest.bool "promote" true
    (Value.equal (Value.Float 3.5) (e Spec.Add (Value.Int 3) (Value.Float 0.5)));
  check Alcotest.bool "min" true (Value.equal (Value.Int 2) (e Spec.Min (Value.Int 2) (Value.Int 5)));
  check Alcotest.bool "lt" true (Value.equal (Value.Bool true) (e Spec.Lt (Value.Int 1) (Value.Int 2)));
  Alcotest.check_raises "div by zero" (Invalid_argument "Interp: division by zero") (fun () ->
      ignore (e Spec.Div (Value.Int 1) (Value.Int 0)))

let test_interp_expr () =
  let env = Hashtbl.create 4 in
  Hashtbl.replace env "x" (Value.Int 10);
  let payload = [| Value.Int 2; Value.Int 3 |] in
  let v =
    Interp.eval_expr env payload Spec.(Binop (Add, Var "x", Binop (Mul, Param 0, Param 1)))
  in
  check Alcotest.bool "x + p0*p1" true (Value.equal (Value.Int 16) v);
  Alcotest.check_raises "unbound" (Invalid_argument "Interp: unbound variable y") (fun () ->
      ignore (Interp.eval_expr env payload (Spec.Var "y")))

let test_interp_cond () =
  let params = [| Value.Int 5; Value.Int 1; Value.Int 2 |] in
  let fields = [| Value.Int 5; Value.Int 9 |] in
  let run ?(earlier = false) c =
    Interp.eval_cond_strict ~params ~fields ~earlier ~later:(not earlier) c
  in
  check Alcotest.bool "field==param" true (run Spec.(CBinop (Eq, CField 0, CParam 0)));
  check Alcotest.bool "earlier gate" false
    (run Spec.(CBinop (And, CEarlier, CConst true)));
  check Alcotest.bool "earlier gate on" true
    (run ~earlier:true Spec.(CBinop (And, CEarlier, CConst true)));
  (* out-of-range probe fails the clause instead of raising *)
  check Alcotest.bool "oob probe" false (run Spec.(CBinop (Eq, CField 7, CParam 0)))

let test_interp_overlap () =
  let go params fields =
    Interp.eval_cond_strict
      ~params:(Array.of_list (List.map (fun n -> Value.Int n) params))
      ~fields:(Array.of_list (List.map (fun n -> Value.Int n) fields))
      ~earlier:false ~later:false (Spec.COverlap (1, 1))
  in
  check Alcotest.bool "overlap hit" true (go [ 0; 3; 4 ] [ 9; 4; 7 ]);
  check Alcotest.bool "overlap miss" false (go [ 0; 3; 4 ] [ 9; 5; 7 ]);
  check Alcotest.bool "empty tails" false (go [ 0 ] [ 9 ])

(* --- State --- *)

let test_state_rw () =
  let st = State.create () in
  State.add_int_array st "a" [| 1; 2; 3 |];
  State.add_float_array st "f" [| 0.5 |];
  check Alcotest.bool "read" true (Value.equal (Value.Int 2) (State.read st "a" 1));
  State.write st "a" 1 (Value.Int 9);
  check Alcotest.int "written" 9 (State.int_array st "a").(1);
  State.write st "f" 0 (Value.Int 2);
  check (Alcotest.float 0.0) "int->float widen" 2.0 (State.float_array st "f").(0);
  Alcotest.check_raises "oob" (Invalid_argument "State: a[5] out of bounds (length 3)")
    (fun () -> ignore (State.read st "a" 5))

(* [touch] records byte addresses and write bits in order while
   tracing; [read]/[write] record nothing *)
let test_state_trace () =
  let st = State.create () in
  State.add_int_array st "a" [| 0; 0 |];
  State.add_int_array st "b" [| 0 |];
  State.touch st "a" 0 false;
  check Alcotest.int "nothing until tracing" 0 (State.trace_length st);
  State.with_tracing st (fun () ->
      ignore (State.read st "a" 1);
      State.write st "a" 0 (Value.Int 1);
      check Alcotest.int "read/write record nothing" 0 (State.trace_length st);
      State.touch st "a" 1 false;
      State.touch st "b" 0 true;
      State.touch st "a" 0 true;
      let stream =
        List.init (State.trace_length st) (fun i ->
            (State.trace_addr st i, State.trace_is_write st i))
      in
      check
        Alcotest.(list (pair int bool))
        "addresses and write bits, in order"
        [ (8, false); (16, true); (0, true) ]
        stream;
      State.clear_trace st;
      check Alcotest.int "cleared" 0 (State.trace_length st);
      State.touch st "b" 0 false;
      check Alcotest.int "records after a clear" 16 (State.trace_addr st 0));
  check Alcotest.int "emptied on exit" 0 (State.trace_length st);
  State.touch st "a" 0 false;
  check Alcotest.int "off on exit" 0 (State.trace_length st)

(* a warmed stream takes accesses without allocating *)
let test_state_trace_allocates_nothing () =
  let st = State.create () in
  State.add_int_array st "a" (Array.make 64 0);
  State.with_tracing st (fun () ->
      for i = 0 to 9_999 do
        State.touch st "a" (i land 63) (i land 1 = 1)
      done;
      State.clear_trace st;
      let w0 = Gc.minor_words () in
      for i = 0 to 9_999 do
        State.touch st "a" (i land 63) (i land 1 = 1)
      done;
      let words = Gc.minor_words () -. w0 in
      check Alcotest.int "recorded" 10_000 (State.trace_length st);
      check (Alcotest.float 0.0) "minor words over 10,000 touches" 0.0 words)

let test_state_layout_and_snapshot () =
  let st = State.create () in
  State.add_int_array st "a" [| 0; 0; 0 |];
  State.add_int_array st "b" [| 0 |];
  check Alcotest.int "a base" 0 (State.base st "a");
  check Alcotest.int "b after a" 24 (State.base st "b");
  let snap = State.snapshot st in
  State.write st "a" 0 (Value.Int 5);
  check Alcotest.bool "snapshot isolated" false (State.equal_content st snap);
  check Alcotest.bool "diff reports" true (List.length (State.diff st snap) = 1)

(* a packed array reads as ints, is laid out 8 bytes per element like
   any other, refuses every write and int handle, and is compared and
   diffed by its elements *)
let test_state_packed () =
  let module Packed = Agp_util.Packed in
  let p = Packed.of_array [| 7; -3; 2_000_000_000 |] in
  let st = State.create () in
  State.add_int_array st "a" [| 0; 0 |];
  State.add_packed_array st "p" p;
  State.add_int_array st "b" [| 0 |];
  check Alcotest.int "p after a" 16 (State.base st "p");
  check Alcotest.int "b 8 bytes per element after p" 40 (State.base st "b");
  check Alcotest.bool "read" true (Value.equal (Value.Int (-3)) (State.read st "p" 1));
  check Alcotest.bool "read 32-bit" true (Value.equal (Value.Int 2_000_000_000) (State.read st "p" 2));
  Alcotest.check_raises "read oob" (Invalid_argument "State: p[3] out of bounds (length 3)")
    (fun () -> ignore (State.read st "p" 3));
  let read_only = Invalid_argument "State: p is read-only" in
  Alcotest.check_raises "write" read_only (fun () -> State.write st "p" 0 (Value.Int 1));
  Alcotest.check_raises "int_array" read_only (fun () -> ignore (State.int_array st "p"));
  Alcotest.check_raises "float_array" (Invalid_argument "State: p is not a float array") (fun () ->
      ignore (State.float_array st "p"));
  check Alcotest.bool "data is the array itself" true
    (match State.data st "p" with State.Packed q -> q == p | State.Ints _ | State.Floats _ -> false);
  let snap = State.snapshot st in
  check Alcotest.bool "snapshot equal" true (State.equal_content st snap);
  check Alcotest.bool "snapshot shares the read-only array" true
    (match State.data snap "p" with State.Packed q -> q == p | State.Ints _ | State.Floats _ -> false);
  let other ints =
    let s = State.create () in
    State.add_int_array s "a" [| 0; 0 |];
    State.add_packed_array s "p" (Packed.of_array ints);
    State.add_int_array s "b" [| 0 |];
    s
  in
  check Alcotest.bool "equal by elements" true (State.equal_content st (other [| 7; -3; 2_000_000_000 |]));
  check Alcotest.bool "an element differs" false (State.equal_content st (other [| 7; 3; 2_000_000_000 |]));
  check (Alcotest.list Alcotest.string) "diff names the element" [ "p[1]: -3 vs 3" ]
    (State.diff st (other [| 7; 3; 2_000_000_000 |]));
  check (Alcotest.list Alcotest.string) "diff names the length" [ "p: length differs" ]
    (State.diff st (other [| 7 |]));
  let ints = State.create () in
  State.add_int_array ints "a" [| 0; 0 |];
  State.add_int_array ints "p" [| 7; -3; 2_000_000_000 |];
  State.add_int_array ints "b" [| 0 |];
  check Alcotest.bool "an int copy is another kind" false (State.equal_content st ints);
  check (Alcotest.list Alcotest.string) "diff names the kind" [ "p: kind differs" ] (State.diff st ints)

(* --- Spec validation --- *)

let trivial_set ?(body = []) name arity : Spec.task_set =
  { ts_name = name; ts_order = Spec.For_each; arity; body }

let test_validate_ok () =
  let sp : Spec.t =
    { spec_name = "ok"; task_sets = [ trivial_set "t" 1 ]; rules = [] }
  in
  check (Alcotest.result Alcotest.unit (Alcotest.list Alcotest.string)) "valid" (Ok ())
    (Spec.validate sp)

let expect_invalid sp needle =
  match Spec.validate sp with
  | Ok () -> Alcotest.failf "expected validation failure about %s" needle
  | Error es ->
      let found =
        List.exists
          (fun e ->
            let rec contains i =
              i + String.length needle <= String.length e
              && (String.sub e i (String.length needle) = needle || contains (i + 1))
            in
            contains 0)
          es
      in
      if not found then Alcotest.failf "no error mentioning %S in: %s" needle (String.concat "; " es)

let test_validate_bad_push () =
  expect_invalid
    { spec_name = "x"; task_sets = [ trivial_set ~body:[ Spec.Push ("nope", []) ] "t" 0 ]; rules = [] }
    "unknown task set";
  expect_invalid
    {
      spec_name = "x";
      task_sets =
        [ trivial_set ~body:[ Spec.Push ("t", [ Spec.int 1; Spec.int 2 ]) ] "t" 1 ];
      rules = [];
    }
    "expected 1"

let test_validate_await_without_alloc () =
  expect_invalid
    { spec_name = "x"; task_sets = [ trivial_set ~body:[ Spec.Await ("ok", "h") ] "t" 0 ]; rules = [] }
    "no preceding Alloc"

let test_validate_param_range () =
  expect_invalid
    { spec_name = "x"; task_sets = [ trivial_set ~body:[ Spec.Let ("v", Spec.Param 3) ] "t" 1 ]; rules = [] }
    "out of range"

let test_validate_duplicate_sets () =
  expect_invalid
    { spec_name = "x"; task_sets = [ trivial_set "t" 0; trivial_set "t" 0 ]; rules = [] }
    "duplicate task set"

let test_validate_counted_rules () =
  let rule clauses counted : Spec.rule =
    {
      rule_name = "r";
      n_params = 0;
      clauses;
      otherwise = true;
      scope = Spec.Min_waiting;
      counted;
    }
  in
  expect_invalid
    { spec_name = "x"; task_sets = [ trivial_set "t" 0 ]; rules = [ rule [] true ] }
    "no Decrement";
  expect_invalid
    {
      spec_name = "x";
      task_sets = [ trivial_set "t" 0 ];
      rules =
        [
          rule
            [ { on = Spec.On_activated "t"; condition = Spec.CConst true; action = Spec.Decrement } ]
            false;
        ];
    }
    "Decrement clause in uncounted rule"

(* --- Engine on a toy counter spec --- *)

(* One task set: "inc" tasks add their payload into cell 0 and push a
   child until payload reaches 0 — exercises push indexing and state. *)
let counter_spec : Spec.t =
  let open Spec in
  {
    spec_name = "counter";
    task_sets =
      [
        {
          ts_name = "inc";
          ts_order = For_each;
          arity = 1;
          body =
            [
              Load ("acc", "cell", int 0);
              Store ("cell", int 0, Binop (Add, Var "acc", Param 0));
              If
                ( Binop (Gt, Param 0, int 1),
                  [ Push ("inc", [ Binop (Sub, Param 0, int 1) ]) ],
                  [] );
            ];
        };
      ];
    rules = [];
  }

let counter_state () =
  let st = State.create () in
  State.add_int_array st "cell" [| 0 |];
  st

let oracle = Semantics.oracle ()

let test_sequential_counter () =
  let st = counter_state () in
  let report =
    Semantics.run ~initial:[ ("inc", [ Value.Int 4 ]) ] oracle counter_spec Spec.no_bindings st
  in
  (* 4 + 3 + 2 + 1 *)
  check Alcotest.int "sum" 10 (State.int_array st "cell").(0);
  check Alcotest.int "tasks" 4 report.Semantics.tasks_run;
  check Alcotest.int "committed" 4 report.Semantics.stats.Engine.committed

let test_runtime_counter_matches () =
  let st = counter_state () in
  let report =
    Semantics.run ~initial:[ ("inc", [ Value.Int 6 ]) ] (Semantics.pipelined ~workers:4 ())
      counter_spec Spec.no_bindings st
  in
  check Alcotest.int "sum" 21 (State.int_array st "cell").(0);
  check Alcotest.bool "avg busy in (0, workers]" true
    (report.Semantics.avg_busy > 0.0 && report.Semantics.avg_busy <= 4.0)

let test_engine_rejects_invalid_spec () =
  let bad : Spec.t =
    { spec_name = "bad"; task_sets = [ trivial_set ~body:[ Spec.Await ("o", "h") ] "t" 0 ]; rules = [] }
  in
  check Alcotest.bool "raises" true
    (try
       ignore (Semantics.run oracle bad Spec.no_bindings (State.create ()));
       false
     with Invalid_argument _ -> true)

(* --- Engine rules: a tiny speculative exclusive-write spec --- *)

(* Two writer tasks race to claim cell 0; the rule squashes the later
   one, so exactly the earlier task's payload lands. *)
let claim_spec : Spec.t =
  let open Spec in
  {
    spec_name = "claim";
    task_sets =
      [
        {
          ts_name = "writer";
          ts_order = For_each;
          arity = 1;
          body =
            [
              Alloc ("h", "guard", []);
              Await ("ok", "h");
              If
                ( Var "ok",
                  [ Emit ("claimed", []); Store ("cell", int 0, Param 0) ],
                  [ Abort ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "guard";
          n_params = 0;
          clauses =
            [
              {
                on = On_reached ("writer", "claimed");
                condition = CEarlier;
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

let test_rule_squashes_later_writer () =
  let st = counter_state () in
  let report =
    Semantics.run
      ~initial:[ ("writer", [ Value.Int 111 ]); ("writer", [ Value.Int 222 ]) ]
      (Semantics.pipelined ~workers:2 ()) claim_spec Spec.no_bindings st
  in
  check Alcotest.int "earlier writer wins" 111 (State.int_array st "cell").(0);
  check Alcotest.int "one abort" 1 report.Semantics.stats.Engine.aborted;
  check Alcotest.int "one commit" 1 report.Semantics.stats.Engine.committed

let test_sequential_claim_overwrites () =
  (* Sequentially both writers run in order and both store (the rule
     degenerates to its otherwise path), so the LATER value remains.
     This toy spec deliberately omits the load-and-revalidate guard that
     real speculative specs (SPEC-BFS, SPEC-SSSP) carry, which is what
     makes their parallel results equal to their sequential ones. *)
  let st = counter_state () in
  ignore
    (Semantics.run
       ~initial:[ ("writer", [ Value.Int 111 ]); ("writer", [ Value.Int 222 ]) ]
       oracle claim_spec Spec.no_bindings st);
  check Alcotest.int "both stored in order" 222 (State.int_array st "cell").(0)

(* --- Counted rule: a two-phase dependence --- *)

(* Task "b" must not compute before both "a" tasks have emitted;
   expressed as a counted rule with expected = 2.  The a's write
   disjoint cells (no data race) and b combines them. *)
let counted_spec : Spec.t =
  let open Spec in
  {
    spec_name = "counted";
    task_sets =
      [
        {
          ts_name = "a";
          ts_order = For_each;
          arity = 1;
          body = [ Store ("cell", Param 0, int 1); Emit ("done_a", []) ];
        };
        {
          ts_name = "b";
          ts_order = For_each;
          arity = 0;
          body =
            [
              Alloc ("h", "deps", []);
              Await ("ok", "h");
              Load ("x1", "cell", int 1);
              Load ("x2", "cell", int 2);
              Store
                ( "cell",
                  int 0,
                  Binop (Add, Binop (Mul, Binop (Add, Var "x1", Var "x2"), int 10), int 1) );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "deps";
          n_params = 0;
          clauses =
            [ { on = On_reached ("a", "done_a"); condition = CConst true; action = Decrement } ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = true;
        };
      ];
  }

let counted_bindings : Spec.bindings =
  { prims = []; expected = [ ("deps", fun _ -> 2) ] }

let counted_state () =
  let st = State.create () in
  State.add_int_array st "cell" [| 0; 0; 0 |];
  st

let test_counted_rule_orders () =
  (* Push b FIRST so it would run before the a's without the rule. *)
  let st = counted_state () in
  ignore
    (Semantics.run
       ~initial:[ ("b", []); ("a", [ Value.Int 1 ]); ("a", [ Value.Int 2 ]) ]
       (Semantics.pipelined ~workers:3 ()) counted_spec counted_bindings st);
  (* (1 + 1) * 10 + 1 — b's countdown held it until both a's emitted *)
  check Alcotest.int "b waited for both" 21 (State.int_array st "cell").(0)

let test_counted_rule_sequential () =
  let st = counted_state () in
  ignore
    (Semantics.run
       ~initial:[ ("b", []); ("a", [ Value.Int 1 ]); ("a", [ Value.Int 2 ]) ]
       oracle counted_spec counted_bindings st);
  (* Sequentially the well-order interleaves b between the a's (b's
     index ties the first a and precedes the second), and b's rendezvous
     degenerates to the otherwise path when b is minimal — so b computes
     with only the first a's result visible: (1 + 0) * 10 + 1.

     This documents the semantic frame of §4.1: rules never *delay* the
     sequential execution; coordinative specs are correct when, as in
     COOR-LU, the host pushes tasks in a dependence-consistent
     sequential order so the oracle itself is a valid schedule. *)
  check Alcotest.int "sequential runs in well-order" 11 (State.int_array st "cell").(0)

(* --- Prim binding --- *)

let test_prim_roundtrip () =
  let sp : Spec.t =
    {
      spec_name = "prim";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body =
              [
                Spec.Prim ([ "d" ], "double", [ Spec.Param 0 ]);
                Spec.Store ("cell", Spec.int 0, Spec.Var "d");
              ];
          };
        ];
      rules = [];
    }
  in
  let bindings : Spec.bindings =
    {
      prims =
        [
          ( "double",
            fun ctx args ->
              State.touch ctx.Spec.state "cell" 0 false;
              [ Value.Int (2 * Value.to_int (List.hd args)) ] );
        ];
      expected = [];
    }
  in
  let st = counter_state () in
  ignore (Semantics.run ~initial:[ ("t", [ Value.Int 21 ]) ] oracle sp bindings st);
  check Alcotest.int "prim result stored" 42 (State.int_array st "cell").(0)

(* --- more engine edge cases --- *)

let test_push_iter_empty_range () =
  let sp : Spec.t =
    {
      spec_name = "spawn0";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body =
              [
                (* hi <= lo: no children *)
                Spec.Push_iter ("t", Spec.Param 0, Spec.int 0, "i", [ Spec.Var "i" ]);
                Spec.Store ("cell", Spec.int 0, Spec.int 1);
              ];
          };
        ];
      rules = [];
    }
  in
  let st = counter_state () in
  let report = Semantics.run ~initial:[ ("t", [ Value.Int 5 ]) ] oracle sp Spec.no_bindings st in
  check Alcotest.int "only the seed task ran" 1 report.Semantics.tasks_run;
  check Alcotest.int "body executed" 1 (State.int_array st "cell").(0)

let test_on_activated_rule () =
  (* a barrier task waits until two workers have been ACTIVATED (not
     finished) — exercising the On_activated event pattern *)
  let sp : Spec.t =
    {
      spec_name = "activation-barrier";
      task_sets =
        [
          {
            ts_name = "worker";
            ts_order = Spec.For_each;
            arity = 1;
            body = [ Spec.Store ("cell", Spec.Param 0, Spec.int 1) ];
          };
          {
            ts_name = "barrier";
            ts_order = Spec.For_each;
            arity = 0;
            body =
              [
                Spec.Alloc ("h", "seen_two", []);
                Spec.Await ("ok", "h");
                Spec.Store ("cell", Spec.int 0, Spec.int 9);
              ];
          };
        ];
      rules =
        [
          {
            rule_name = "seen_two";
            n_params = 0;
            clauses =
              [
                {
                  on = Spec.On_activated "worker";
                  condition = Spec.CConst true;
                  action = Spec.Decrement;
                };
              ];
            otherwise = true;
            scope = Spec.Min_uncommitted;
            counted = true;
          };
        ];
    }
  in
  let bindings : Spec.bindings = { prims = []; expected = [ ("seen_two", fun _ -> 2) ] } in
  let st = counted_state () in
  ignore
    (Semantics.run
       ~initial:[ ("barrier", []); ("worker", [ Value.Int 1 ]); ("worker", [ Value.Int 2 ]) ]
       (Semantics.pipelined ~workers:3 ()) sp bindings st);
  check Alcotest.int "barrier fired" 9 (State.int_array st "cell").(0)

let test_float_memory_in_spec () =
  let sp : Spec.t =
    {
      spec_name = "floats";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 1;
            body =
              [
                Spec.Load ("x", "fs", Spec.int 0);
                Spec.Store ("fs", Spec.int 1, Spec.Binop (Spec.Mul, Spec.Var "x", Spec.Param 0));
              ];
          };
        ];
      rules = [];
    }
  in
  let st = State.create () in
  State.add_float_array st "fs" [| 1.5; 0.0 |];
  ignore (Semantics.run ~initial:[ ("t", [ Value.Int 4 ]) ] oracle sp Spec.no_bindings st);
  check (Alcotest.float 1e-12) "float arithmetic through the IR" 6.0 (State.float_array st "fs").(1)

let test_engine_pop_min_order () =
  let eng = Engine.create counter_spec Spec.no_bindings (counter_state ()) in
  Engine.push_initial eng "inc" [ Value.Int 1 ];
  Engine.push_initial eng "inc" [ Value.Int 1 ];
  let head = Engine.min_pending_head eng in
  if Engine.is_nil head then Alcotest.fail "expected a pending head";
  check Alcotest.int "head is first pushed" 0 (Index.to_array (Engine.task_index eng head)).(0);
  let t = Engine.pop_min eng in
  if Engine.is_nil t then Alcotest.fail "expected a task";
  check Alcotest.int "pop_min returns it" 0 (Index.to_array (Engine.task_index eng t)).(0)

(* A queue head is not always its set's minimum.  A For_all set's tasks
   take their pushing parent's index prefix and a zero stamp, and its
   ring is FIFO, so a parent that runs ahead of a smaller one queues the
   larger child first.  Pinned as the model's known deviation:
   [min_pending_head]/[pop_min] return the smallest head, which here is
   not the minimum uncommitted task, so the simulator's priority
   admission would not admit that task through a full window.  The
   smaller child arrives below its set's in-order run, so the minimum
   finds it on the fallback heap. *)
let for_all_spec : Spec.t =
  let open Spec in
  {
    spec_name = "for_all_heads";
    task_sets =
      [
        { ts_name = "a"; ts_order = For_each; arity = 1; body = [ Push ("b", [ Param 0 ]) ] };
        { ts_name = "b"; ts_order = For_all; arity = 1; body = [] };
      ];
    rules = [];
  }

let test_for_all_head_not_minimum () =
  let eng = Engine.create for_all_spec Spec.no_bindings (State.create ()) in
  Engine.push_initial eng "a" [ Value.Int 0 ];
  Engine.push_initial eng "a" [ Value.Int 1 ];
  let a0 = Engine.pop_task eng 0 in
  let a1 = Engine.pop_task eng 0 in
  (* the later parent pushes first, then both commit *)
  List.iter (fun tk -> ignore (Engine.step eng tk)) [ a1; a0; a1; a0 ];
  let idx tk = Array.to_list (Index.to_array (Engine.task_index eng tk)) in
  let ints = Alcotest.(list int) in
  check Alcotest.int "both children queued" 2 (Engine.view eng).Engine.pending_in.(1);
  check ints "minimum uncommitted is the smaller child" [ 0; 0 ]
    (idx (Engine.min_uncommitted eng));
  check ints "the head is the larger child" [ 1; 0 ] (idx (Engine.min_pending_head eng));
  check ints "pop_min returns the head" [ 1; 0 ] (idx (Engine.pop_min eng));
  Engine.check_invariants eng

(* step a popped task until it finishes; its finishing class *)
let rec run_to_end eng tk =
  let c = Engine.step eng tk in
  if c > Engine.lc_blocked then c else run_to_end eng tk

(* The tie rule: of uncommitted tasks with equal indices the oldest (the
   smallest tid) is the minimum.  Three [For_all] siblings share the
   index [0; 0]; when the oldest commits, the next oldest takes over,
   not whichever entry a heap layout would surface. *)
let test_for_all_tie_oldest () =
  let eng = Engine.create for_all_spec Spec.no_bindings (State.create ()) in
  List.iter (fun v -> Engine.push_initial eng "b" [ Value.Int v ]) [ 0; 1; 2 ];
  let t0 = Engine.pop_task eng 1 in
  let t1 = Engine.pop_task eng 1 in
  let t2 = Engine.pop_task eng 1 in
  let tid = Engine.task_tid eng in
  check Alcotest.int "siblings tie" 0 (Engine.compare_index eng t0 t2);
  check Alcotest.int "the oldest is the minimum" (tid t0) (tid (Engine.min_uncommitted eng));
  check Alcotest.int "t0 commits" Engine.lc_committed (run_to_end eng t0);
  check Alcotest.int "then the next oldest" (tid t1) (tid (Engine.min_uncommitted eng));
  Engine.check_invariants eng;
  check Alcotest.int "t1 commits" Engine.lc_committed (run_to_end eng t1);
  check Alcotest.int "then the youngest" (tid t2) (tid (Engine.min_uncommitted eng));
  Engine.check_invariants eng

(* A retry re-activates its task with the same index and a fresh tid,
   below the tail of its set's in-order run: the minimum must still
   find it. *)
let test_retry_below_run_tail () =
  let open Spec in
  let sp =
    {
      spec_name = "retry_once";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = For_each;
            arity = 1;
            body = [ If (Binop (Eq, Param 0, int 0), [ Retry ], []) ];
          };
        ];
      rules = [];
    }
  in
  let eng = Engine.create sp Spec.no_bindings (State.create ()) in
  List.iter (fun v -> Engine.push_initial eng "t" [ Value.Int v ]) [ 0; 1; 2 ];
  let t0 = Engine.pop_task eng 0 in
  let old_tid = Engine.task_tid eng t0 in
  check Alcotest.int "t0 retries" Engine.lc_retried (run_to_end eng t0);
  let mu = Engine.min_uncommitted eng in
  check Alcotest.(list int) "the retry is the minimum" [ 0 ]
    (Array.to_list (Index.to_array (Engine.task_index eng mu)));
  check Alcotest.bool "under a fresh tid" true (Engine.task_tid eng mu <> old_tid);
  check Alcotest.int "and at its queue's head" (Engine.task_tid eng mu)
    (Engine.task_tid eng (Engine.min_pending_head eng));
  Engine.check_invariants eng

(* The listener table names, per event, exactly the rules with a clause
   that can match it: SPEC-SSSP's only rule listens to
   reached(relax, commit_dist), so activations and min_changed
   broadcasts reach no rule instance. *)
let test_opcode_listeners () =
  let p = Opcode.compile Agp_apps.Sssp_app.spec_speculative in
  let set name = Spec.task_set_slot Agp_apps.Sssp_app.spec_speculative name in
  let label name =
    let rec find i = if p.Opcode.labels.(i) = name then i else find (i + 1) in
    find 0
  in
  let listens ~kind ~set ~label = p.Opcode.listeners.(Opcode.listener_slot p ~kind ~set ~label) in
  check (Alcotest.array Alcotest.int) "reached(relax, commit_dist)" [| 0 |]
    (listens ~kind:1 ~set:(set "relax") ~label:(label "commit_dist"));
  check Alcotest.int "nothing else listens" 1
    (Array.fold_left (fun n rs -> if rs <> [||] then n + 1 else n) 0 p.Opcode.listeners);
  check (Alcotest.array Alcotest.int) "min_changed" [||] (listens ~kind:2 ~set:0 ~label:0)

(* Rule keys: a rule is keyed exactly when every clause is an And-chain
   of key-safe conjuncts sharing one Eq (CField f, CParam p). *)
let test_opcode_rule_keys () =
  let key (sp : Spec.t) =
    let r = (Opcode.compile sp).Opcode.rules.(0) in
    (r.Opcode.r_key_field, r.Opcode.r_key_param)
  in
  let pair = Alcotest.(pair int int) in
  check pair "spec-sssp dist_guard" (0, 0) (key Agp_apps.Sssp_app.spec_speculative);
  check pair "spec-bfs level_guard" (0, 0) (key Agp_apps.Bfs_app.spec_speculative);
  check pair "coor-bfs min_changed rule" (-1, -1) (key Agp_apps.Bfs_app.spec_coordinative);
  check pair "spec-mst Or of keys" (-1, -1) (key Agp_apps.Mst_app.spec_speculative);
  check pair "spec-dmr overlap" (-1, -1) (key Agp_apps.Dmr_app.spec_speculative);
  check pair "coor-lu counted" (-1, -1) (key Agp_apps.Lu_app.spec_coordinative);
  let with_cond c =
    let sp = Agp_apps.Sssp_app.spec_speculative in
    match sp.Spec.rules with
    | r :: rest ->
        let cl = List.map (fun (cl : Spec.clause) -> { cl with Spec.condition = c }) r.Spec.clauses in
        { sp with Spec.rules = { r with Spec.clauses = cl } :: rest }
    | [] -> assert false
  in
  let open Spec in
  check pair "param-first key, later conjuncts" (1, 0)
    (key (with_cond (CBinop (And, CLater, CBinop (And, CBinop (Eq, CParam 0, CField 1), CConst true)))));
  check pair "a constant operand could raise" (-1, -1)
    (key (with_cond (CBinop (And, CBinop (Eq, CField 0, CParam 0), CBinop (Eq, CField 1, CConst true)))));
  check pair "Not is not key-safe" (-1, -1)
    (key (with_cond (CBinop (And, CBinop (Eq, CField 0, CParam 0), CNot CEarlier))))

let test_engine_unbound_prim () =
  let sp : Spec.t =
    {
      spec_name = "noprim";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 0;
            body = [ Spec.Prim ([], "missing", []) ];
          };
        ];
      rules = [];
    }
  in
  check Alcotest.bool "unbound prim raises" true
    (try
       ignore (Semantics.run ~initial:[ ("t", []) ] oracle sp Spec.no_bindings (counter_state ()));
       false
     with Invalid_argument _ -> true)

let test_prim_counts_exposed () =
  let sp : Spec.t =
    {
      spec_name = "primcount";
      task_sets =
        [
          {
            ts_name = "t";
            ts_order = Spec.For_each;
            arity = 0;
            body = [ Spec.Prim ([], "nop", []) ];
          };
        ];
      rules = [];
    }
  in
  let bindings : Spec.bindings = { prims = [ ("nop", fun _ _ -> []) ]; expected = [] } in
  let report =
    Semantics.run ~initial:[ ("t", []); ("t", []); ("t", []) ] oracle sp bindings (counter_state ())
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "three invocations"
    [ ("nop", 3) ] report.Semantics.prim_counts

(* Task state is flat int rows plus frames for the tasks in flight, so
   a SPEC-SSSP run under the pipelined policy allocates only for the
   doubling growth of its arrays and the report.  [Gc.minor_words]
   repeats exactly for a fixed program and input; the figure was 0.087
   words per op when the rows landed, and the ceiling leaves 2x
   headroom.  The invariant checker allocates, so it is off for the
   measured run even under AGP_CHECK=1. *)
let test_sssp_minor_words_per_op () =
  let app = Agp_exp.Workloads.spec_sssp Agp_exp.Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  Engine.set_check_invariants false;
  let rep, words =
    Fun.protect
      ~finally:(fun () -> Engine.set_check_invariants (Sys.getenv_opt "AGP_CHECK" = Some "1"))
      (fun () ->
        let w0 = Gc.minor_words () in
        let rep =
          Semantics.run ~initial:r.App_instance.initial (Semantics.pipelined ())
            app.App_instance.spec r.App_instance.bindings r.App_instance.state
        in
        (rep, Gc.minor_words () -. w0))
  in
  let per_op = words /. float_of_int (max 1 rep.Semantics.stats.Engine.ops_executed) in
  check Alcotest.bool (Printf.sprintf "%.3f minor words/op, at most 0.18" per_op) true
    (per_op <= 0.18)

(* --- BFS integration through both interpreters --- *)

let small_graph () = Agp_graph.Generator.road ~weighted:true ~seed:3 ~width:12 ~height:8

let test_spec_bfs_sequential () =
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph (small_graph ()) 0) in
  check (Alcotest.result Alcotest.unit Alcotest.string) "levels valid" (Ok ())
    (Backend.run Backend.sequential app).Backend.check

let test_spec_bfs_runtime_many_workers () =
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph (small_graph ()) 0) in
  List.iter
    (fun workers ->
      check (Alcotest.result Alcotest.unit Alcotest.string)
        (Printf.sprintf "levels valid (%d workers)" workers)
        (Ok ())
        (Backend.run (Backend.runtime ~workers ()) app).Backend.check)
    [ 1; 2; 7; 16 ]

let test_coor_bfs_both () =
  let app = Bfs_app.coordinative (Bfs_app.workload_of_graph (small_graph ()) 0) in
  check (Alcotest.result Alcotest.unit Alcotest.string) "coor-bfs ok" (Ok ())
    (Result.map_error Conformance.failure_to_string
       (Conformance.check (Backend.runtime ~workers:8 ()) app))

let test_bfs_state_equivalence () =
  (* Parallel execution must produce the exact sequential level array —
     BFS levels are unique, so state equality is the correctness
     criterion of §4.1. *)
  let w = Bfs_app.workload_of_graph (small_graph ()) 0 in
  let app = Bfs_app.speculative w in
  let final b = (Option.get (Backend.run b app).Backend.final).App_instance.state in
  check (Alcotest.list Alcotest.string) "identical final state" []
    (State.diff (final Backend.sequential) (final (Backend.runtime ~workers:8 ())))

let test_spec_bfs_speculation_stats () =
  let app = Bfs_app.speculative (Bfs_app.workload_of_graph (small_graph ()) 0) in
  let s = Option.get (Backend.run (Backend.runtime ~workers:8 ()) app).Backend.engine_stats in
  (* Flooding: speculative BFS activates more update tasks than edges
     that succeed; some must abort. *)
  check Alcotest.bool "aborts happened" true (s.Engine.aborted > 0);
  check Alcotest.bool "events fired" true (s.Engine.events_fired > 0)

let prop_bfs_random_graphs_both_modes =
  QCheck.Test.make ~name:"spec-bfs correct on random graphs" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Agp_graph.Generator.random ~seed ~n:60 ~m:150 in
      let app = Bfs_app.speculative (Bfs_app.workload_of_graph g 0) in
      Conformance.check (Backend.runtime ~workers:6 ()) app = Ok ())

let prop_coor_bfs_random_graphs =
  QCheck.Test.make ~name:"coor-bfs correct on random graphs" ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = Agp_graph.Generator.random ~seed ~n:60 ~m:150 in
      let app = Bfs_app.coordinative (Bfs_app.workload_of_graph g 0) in
      Conformance.check (Backend.runtime ~workers:6 ()) app = Ok ())

(* --- keyed delivery against a full-scan reference ---

   Random key-shaped rules (And-chains of Eq/Le/Earlier/Later/constant
   conjuncts over int, float and bool leaves, usually with an
   Eq (CField f, CParam p) key), random rule instances and random
   events, all in one for-each set: a task with role 0 allocates an
   instance over its payload and parks, a task with role 1 emits its
   payload.  The engine delivers by key; the reference evaluates every
   unresolved instance with [Interp], in allocation order.  Both must
   resolve the same instances the same way, count the same
   clause resolutions and raise the same exception. *)

(* payload columns are typed per case, as a spec's fields are, with
   occasional values of another type: the raising cases stay rare
   enough that most runs get past their first events.  A narrow int
   range makes keys collide, a wide one leaves key buckets empty. *)
let kd_value_gen ~ints column =
  let open QCheck.Gen in
  let int_v = map (fun n -> Value.Int n) (int_range 0 ints)
  and float_v = map (fun x -> Value.Float x) (oneofl [ 0.0; 1.0; 2.5 ])
  and bool_v = map (fun b -> Value.Bool b) bool in
  let typed = match column with 0 -> int_v | 1 -> float_v | _ -> bool_v in
  frequency [ (12, typed); (1, int_v); (1, float_v); (1, bool_v) ]

(* a clause condition; [key] is the rule's key conjunct, if any *)
let kd_cond_gen key =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun i -> Spec.CField i) (int_range 0 3));
        (4, map (fun i -> Spec.CParam i) (int_range 0 3));
        (1, map (fun b -> Spec.CConst b) bool);
      ]
  in
  let conjunct =
    frequency
      [
        (2, return Spec.CEarlier);
        (1, return Spec.CLater);
        (1, map (fun b -> Spec.CConst b) bool);
        (3, map2 (fun a b -> Spec.CBinop (Spec.Eq, a, b)) leaf leaf);
        (3, map2 (fun a b -> Spec.CBinop (Spec.Le, a, b)) leaf leaf);
      ]
  in
  let rec chain = function
    | [] -> return (Spec.CConst true)
    | [ c ] -> return c
    | cs ->
        int_range 1 (List.length cs - 1) >>= fun k ->
        let l = List.filteri (fun i _ -> i < k) cs and r = List.filteri (fun i _ -> i >= k) cs in
        map2 (fun a b -> Spec.CBinop (Spec.And, a, b)) (chain l) (chain r)
  in
  list_size (int_range 0 3) conjunct >>= fun others ->
  int_range 0 (List.length others) >>= fun at ->
  let cs =
    match key with
    | None -> others
    | Some k -> List.filteri (fun i _ -> i < at) others @ (k :: List.filteri (fun i _ -> i >= at) others)
  in
  chain cs

type kd_case = {
  kd_conds : (Spec.cond * bool) list; (* clauses: condition, returned verdict *)
  kd_np : int; (* instance params *)
  kd_nf : int; (* event fields *)
  kd_tasks : (bool * Value.t list) list; (* emitter?, three payload values *)
}

let kd_case_gen =
  let open QCheck.Gen in
  let key =
    map2
      (fun f p -> Spec.CBinop (Spec.Eq, Spec.CField f, Spec.CParam p))
      (int_range 0 2) (int_range 0 2)
  in
  let conds =
    frequency [ (4, map Option.some key); (1, return None) ] >>= fun key ->
    list_size (frequency [ (3, return 1); (1, return 2) ]) (pair (kd_cond_gen key) bool)
  in
  map2 (fun a b -> (a, b))
    (triple conds (int_range 1 3) (int_range 1 3))
    ( list_size (return 3) (frequencyl [ (6, 0); (2, 1); (1, 2) ]) >>= fun columns ->
      oneofl [ 3; 15 ] >>= fun ints ->
      list_size (int_range 1 40)
        (pair
           (frequencyl [ (3, false); (2, true) ])
           (flatten_l (List.map (kd_value_gen ~ints) columns))) )
  |> map (fun ((kd_conds, kd_np, kd_nf), kd_tasks) -> { kd_conds; kd_np; kd_nf; kd_tasks })

let kd_spec c : Spec.t =
  let open Spec in
  let payload n = List.init n (fun i -> Param (i + 1)) in
  {
    spec_name = "keyed-delivery";
    task_sets =
      [
        {
          ts_name = "t";
          ts_order = For_each;
          arity = 4;
          body =
            [
              If
                ( Binop (Eq, Param 0, int 0),
                  [ Alloc ("h", "r", payload c.kd_np); Await ("v", "h") ],
                  [ Emit ("e", payload c.kd_nf) ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "r";
          n_params = c.kd_np;
          clauses =
            List.map
              (fun (condition, b) ->
                { on = On_reached ("t", "e"); condition; action = Return_bool b })
              c.kd_conds;
          otherwise = false;
          scope = Min_waiting;
          counted = false;
        };
      ];
  }

let kd_print c =
  Format.asprintf "%a@.%s" Spec.pp (kd_spec c)
    (String.concat "\n"
       (List.map
          (fun (emit, vs) ->
            Printf.sprintf "%s [%s]" (if emit then "emit" else "alloc")
              (String.concat "; " (List.map Value.to_string vs)))
          c.kd_tasks))

(* outcome: the exception the run raised, or the (stamp, verdict) of
   every resolved instance plus the clause-resolution count *)
type kd_outcome =
  | Kd_raised of exn
  | Kd_resolved of (int * bool) list * int

let kd_engine c =
  let eng = Engine.create (kd_spec c) Spec.no_bindings (State.create ()) in
  List.iter
    (fun (emit, vs) -> Engine.push_initial eng "t" (Value.Int (if emit then 1 else 0) :: vs))
    c.kd_tasks;
  let rec drive task = if Engine.step eng task < Engine.lc_blocked then drive task in
  let rec loop () =
    let task = Engine.pop_any eng in
    if not (Engine.is_nil task) then begin
      drive task;
      Engine.check_invariants eng;
      loop ()
    end
  in
  match loop () with
  | exception (Invalid_argument _ as e) -> Kd_raised e
  | () ->
      Engine.resume_ready eng;
      let got =
        List.init (Engine.view eng).Engine.resumed (fun i ->
            let tk = Engine.resumed_get eng i in
            ( (Index.to_array (Engine.task_index eng tk)).(0),
              Engine.task_var eng tk "v" = Some (Value.Bool true) ))
      in
      Kd_resolved (List.sort compare got, (Engine.stats eng).Engine.clause_resolutions)

let kd_reference c =
  let sub n vs = Array.of_list (List.filteri (fun i _ -> i < n) vs) in
  let live = ref [] (* (stamp, params, verdict) in allocation order, reversed *) in
  let resolutions = ref 0 in
  match
    List.iteri
      (fun stamp (emit, vs) ->
        if not emit then live := (stamp, sub c.kd_np vs, ref None) :: !live
        else
          let fields = sub c.kd_nf vs in
          List.iter
            (fun (holder, params, verdict) ->
              List.iter
                (fun (cond, b) ->
                  if
                    !verdict = None
                    && Interp.eval_cond_strict ~params ~fields ~earlier:(stamp < holder)
                         ~later:(stamp > holder) cond
                  then begin
                    incr resolutions;
                    verdict := Some b
                  end)
                c.kd_conds)
            (List.rev !live))
      c.kd_tasks
  with
  | exception (Invalid_argument _ as e) -> Kd_raised e
  | () ->
      let got =
        List.filter_map
          (fun (holder, _, verdict) -> Option.map (fun b -> (holder, b)) !verdict)
          !live
      in
      Kd_resolved (List.sort compare got, !resolutions)

let prop_keyed_delivery_matches_full_scan =
  QCheck.Test.make ~name:"keyed delivery matches a full-scan reference" ~count:10000
    (QCheck.make ~print:kd_print kd_case_gen)
    (fun c ->
      match (kd_engine c, kd_reference c) with
      | Kd_raised a, Kd_raised b when a = b -> true
      | Kd_resolved (a, n), Kd_resolved (b, m) when a = b && n = m -> true
      | got, want ->
          let show = function
            | Kd_raised e -> "raised " ^ Printexc.to_string e
            | Kd_resolved (l, n) ->
                Printf.sprintf "%d resolutions: %s" n
                  (String.concat " "
                     (List.map (fun (h, b) -> Printf.sprintf "%d:%b" h b) l))
          in
          QCheck.Test.fail_reportf "engine %s\nreference %s" (show got) (show want))

let () =
  Alcotest.run "agp_core"
    [
      ( "value",
        [
          Alcotest.test_case "conversions" `Quick test_value_conversions;
          Alcotest.test_case "equality" `Quick test_value_equal;
        ] );
      ( "index",
        [
          Alcotest.test_case "lexicographic" `Quick test_index_lexicographic;
          Alcotest.test_case "child" `Quick test_index_child;
          qtest prop_index_compare_total_order;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "expressions" `Quick test_interp_expr;
          Alcotest.test_case "conditions" `Quick test_interp_cond;
          Alcotest.test_case "overlap" `Quick test_interp_overlap;
        ] );
      ( "state",
        [
          Alcotest.test_case "read/write" `Quick test_state_rw;
          Alcotest.test_case "tracing" `Quick test_state_trace;
          Alcotest.test_case "warm stream allocates nothing" `Quick
            test_state_trace_allocates_nothing;
          Alcotest.test_case "layout and snapshot" `Quick test_state_layout_and_snapshot;
          Alcotest.test_case "packed arrays" `Quick test_state_packed;
        ] );
      ( "spec_validation",
        [
          Alcotest.test_case "accepts valid" `Quick test_validate_ok;
          Alcotest.test_case "bad push" `Quick test_validate_bad_push;
          Alcotest.test_case "await without alloc" `Quick test_validate_await_without_alloc;
          Alcotest.test_case "param range" `Quick test_validate_param_range;
          Alcotest.test_case "duplicate sets" `Quick test_validate_duplicate_sets;
          Alcotest.test_case "counted rules" `Quick test_validate_counted_rules;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sequential counter" `Quick test_sequential_counter;
          Alcotest.test_case "runtime counter" `Quick test_runtime_counter_matches;
          Alcotest.test_case "rejects invalid spec" `Quick test_engine_rejects_invalid_spec;
          Alcotest.test_case "rule squashes later writer" `Quick test_rule_squashes_later_writer;
          Alcotest.test_case "sequential claim overwrites" `Quick test_sequential_claim_overwrites;
          Alcotest.test_case "counted rule orders" `Quick test_counted_rule_orders;
          Alcotest.test_case "counted rule sequential" `Quick test_counted_rule_sequential;
          Alcotest.test_case "prim binding" `Quick test_prim_roundtrip;
          Alcotest.test_case "push_iter empty range" `Quick test_push_iter_empty_range;
          Alcotest.test_case "on_activated rule" `Quick test_on_activated_rule;
          Alcotest.test_case "float memory" `Quick test_float_memory_in_spec;
          Alcotest.test_case "pop_min order" `Quick test_engine_pop_min_order;
          Alcotest.test_case "for_all head is not the minimum" `Quick
            test_for_all_head_not_minimum;
          Alcotest.test_case "for_all ties: the oldest is the minimum" `Quick
            test_for_all_tie_oldest;
          Alcotest.test_case "retry below its run's tail" `Quick test_retry_below_run_tail;
          Alcotest.test_case "opcode listener table" `Quick test_opcode_listeners;
          Alcotest.test_case "opcode rule keys" `Quick test_opcode_rule_keys;
          qtest prop_keyed_delivery_matches_full_scan;
          Alcotest.test_case "unbound prim" `Quick test_engine_unbound_prim;
          Alcotest.test_case "prim counts" `Quick test_prim_counts_exposed;
          Alcotest.test_case "spec-sssp minor words per op" `Quick test_sssp_minor_words_per_op;
        ] );
      ( "bfs_integration",
        [
          Alcotest.test_case "spec-bfs sequential" `Quick test_spec_bfs_sequential;
          Alcotest.test_case "spec-bfs runtime workers" `Quick test_spec_bfs_runtime_many_workers;
          Alcotest.test_case "coor-bfs both" `Quick test_coor_bfs_both;
          Alcotest.test_case "state equivalence" `Quick test_bfs_state_equivalence;
          Alcotest.test_case "speculation stats" `Quick test_spec_bfs_speculation_stats;
          qtest prop_bfs_random_graphs_both_modes;
          qtest prop_coor_bfs_random_graphs;
        ] );
    ]
