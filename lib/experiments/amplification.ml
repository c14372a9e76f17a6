module App_instance = Agp_apps.App_instance
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics
module Table = Agp_util.Table

type row = {
  amp_app : string;
  necessary : int;
  activated : int;
  committed : int;
  squashed : int;
  amplification : float;
}

let validated name check =
  match check () with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Amplification: %s produced a wrong result: %s" name e)

let measure ?(workers = 10) (app : App_instance.t) =
  let run interp =
    let r = app.App_instance.fresh () in
    let report =
      Semantics.run ~initial:r.App_instance.initial interp app.App_instance.spec
        r.App_instance.bindings r.App_instance.state
    in
    validated app.App_instance.app_name r.App_instance.check;
    report.Semantics.stats
  in
  let necessary = (run (Semantics.oracle ())).Engine.committed in
  let s = run (Semantics.pipelined ~workers ()) in
  {
    amp_app = app.App_instance.app_name;
    necessary;
    activated = s.Engine.activated;
    committed = s.Engine.committed;
    squashed = s.Engine.aborted + s.Engine.retried;
    amplification =
      (if necessary = 0 then 1.0 else float_of_int s.Engine.activated /. float_of_int necessary);
  }

let table ?(workers = 10) ?(scale = Workloads.Small) ?(seed = 42) () =
  List.map (measure ~workers) (Workloads.all scale ~seed)

let print rows =
  let t =
    Table.create [ "app"; "necessary"; "activated"; "committed"; "squashed"; "amplification" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.amp_app;
          string_of_int r.necessary;
          string_of_int r.activated;
          string_of_int r.committed;
          string_of_int r.squashed;
          Table.cell_ratio r.amplification;
        ])
    rows;
  Table.print t
