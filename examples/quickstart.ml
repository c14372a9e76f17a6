(* Quickstart: specify a tiny irregular application as tasks + rules,
   debug it on the software runtimes, compile it to a dataflow graph,
   and simulate the generated accelerator — the full flow of Figure 4.

   The application: concurrent "claim" tasks race to reserve slots in a
   shared table; a speculative rule squashes any later task that
   collides with an earlier committing claim, so each slot keeps the
   earliest claimant (think: hotel room booking with optimistic
   concurrency). *)

open Agp_core

let spec : Spec.t =
  let open Spec in
  {
    spec_name = "quickstart-claims";
    task_sets =
      [
        {
          ts_name = "claim";
          ts_order = For_each;
          arity = 2;
          (* payload: [slot; customer] *)
          body =
            [
              (* guard the slot BEFORE reading it: the rule watches all
                 commits from its creation onward *)
              Alloc ("h", "slot_guard", [ Param 0 ]);
              Load ("owner", "table", Param 0);
              If
                ( Binop (Eq, Var "owner", int (-1)),
                  [
                    Await ("ok", "h");
                    If
                      ( Var "ok",
                        [
                          Emit ("committing", [ Param 0 ]);
                          Store ("table", Param 0, Param 1);
                        ],
                        [ Abort ] );
                  ],
                  [ Abort ] );
            ];
        };
      ];
    rules =
      [
        {
          rule_name = "slot_guard";
          n_params = 1;
          clauses =
            [
              {
                on = On_reached ("claim", "committing");
                condition = CBinop (And, CEarlier, CBinop (Eq, CField 0, CParam 0));
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

let () =
  (* 1. program state Σ: a table of 8 slots, all free (-1) *)
  let fresh_state () =
    let st = State.create () in
    State.add_int_array st "table" (Array.make 8 (-1));
    st
  in
  (* customers 100..109 claim slots (several collide) *)
  let initial =
    List.mapi
      (fun i slot -> ("claim", [ Value.Int slot; Value.Int (100 + i) ]))
      [ 3; 1; 3; 5; 1; 7; 5; 0; 3; 6 ]
  in
  print_endline "specification:";
  Format.printf "%a@." Spec.pp spec;

  (* 2. sequential oracle (Definition 4.3) *)
  let st_seq = fresh_state () in
  let seq = Semantics.run ~initial (Semantics.oracle ()) spec Spec.no_bindings st_seq in
  Printf.printf "sequential oracle ran %d tasks\n" seq.Semantics.tasks_run;

  (* 3. aggressive software runtime, 4 workers *)
  let st_par = fresh_state () in
  let par =
    Semantics.run ~initial (Semantics.pipelined ~workers:4 ()) spec Spec.no_bindings st_par
  in
  Printf.printf "aggressive runtime: %d tasks, %d squashed, %d scheduler ticks\n"
    par.Semantics.tasks_run par.Semantics.stats.Engine.aborted par.Semantics.steps;
  assert (State.equal_content st_seq st_par);
  print_endline "parallel result equals the sequential oracle (correctness criterion of §4.1)";

  (* 4. compile to a Boolean dataflow graph *)
  let bdfg = Agp_dataflow.Bdfg.of_program (Agp_core.Opcode.compile spec) in
  Printf.printf "BDFG: %d actors, %d primitive pipeline stages\n"
    (Array.length bdfg.Agp_dataflow.Bdfg.actors)
    (Agp_dataflow.Bdfg.stage_count bdfg "claim");

  (* 5. simulate the synthesized accelerator *)
  let st_hw = fresh_state () in
  let report =
    Agp_hw.Accelerator.run ~spec ~bindings:Spec.no_bindings ~state:st_hw ~initial ()
  in
  Printf.printf "FPGA model: %d cycles (%.2f us) on %s\n" report.Agp_hw.Accelerator.cycles
    (report.Agp_hw.Accelerator.seconds *. 1e6)
    (String.concat ", "
       (List.map
          (fun (s, n) -> Printf.sprintf "%dx %s pipeline" n s)
          report.Agp_hw.Accelerator.pipelines));
  assert (State.equal_content st_seq st_hw);
  print_endline "accelerator result equals the sequential oracle";
  Printf.printf "final table: [%s]\n"
    (String.concat "; " (Array.to_list (Array.map string_of_int (State.int_array st_hw "table"))))
