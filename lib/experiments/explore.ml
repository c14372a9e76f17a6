module App_instance = Agp_apps.App_instance
module Accelerator = Agp_hw.Accelerator
module Config = Agp_hw.Config
module Resource = Agp_hw.Resource
module Spec = Agp_core.Spec
module Backend = Agp_backend.Backend
module Table = Agp_util.Table

type candidate = {
  lanes : int;
  pipelines_per_set : int;
  window_factor : int;
}

type outcome = {
  candidate : candidate;
  cycles : int;
  utilization : float;
  fits : bool;
  alms : int;
  registers : int;
  stall : Agp_obs.Attribution.summary option;
}

let default_candidates =
  List.concat_map
    (fun lanes ->
      List.concat_map
        (fun pipes ->
          List.map (fun window -> { lanes; pipelines_per_set = pipes; window_factor = window })
            [ 1; 2 ])
        [ 2; 4; 8 ])
    [ 64; 256 ]

let config_of (app : App_instance.t) c =
  let sets = List.map (fun ts -> (ts.Spec.ts_name, c.pipelines_per_set)) app.App_instance.spec.Spec.task_sets in
  (* the simulator backend derives the app-specific mlp / prim
     latencies (Backend.derive_config); the candidate only fixes the
     template knobs under sweep *)
  {
    Config.default with
    Config.rule_lanes = c.lanes;
    Config.window_factor = c.window_factor;
    Config.pipelines = sets;
  }

let sweep ?(candidates = default_candidates) (app : App_instance.t) =
  List.map
    (fun c ->
      let config = config_of app c in
      let b = Resource.breakdown app.App_instance.spec config in
      if not (Resource.fits b) then
        {
          candidate = c;
          cycles = max_int;
          utilization = 0.0;
          fits = false;
          alms = b.Resource.total.Resource.alms;
          registers = b.Resource.total.Resource.registers;
          stall = None;
        }
      else begin
        let res = Backend.run (Backend.simulator ~config ()) app in
        begin
          match res.Backend.check with
          | Ok () -> ()
          | Error e ->
              failwith
                (Printf.sprintf "Explore.sweep: %s invalid under %d lanes/%d pipes: %s"
                   app.App_instance.app_name c.lanes c.pipelines_per_set e)
        end;
        let report =
          match Backend.simulated_report res with
          | Some r -> r
          | None -> assert false
        in
        {
          candidate = c;
          cycles = report.Accelerator.cycles;
          utilization = report.Accelerator.utilization;
          fits = true;
          alms = b.Resource.total.Resource.alms;
          registers = b.Resource.total.Resource.registers;
          stall = Some (Agp_obs.Attribution.summary report.Accelerator.attribution);
        }
      end)
    candidates

let best outcomes =
  List.fold_left
    (fun acc o ->
      if not o.fits then acc
      else
        match acc with
        | None -> Some o
        | Some b -> if o.cycles < b.cycles then Some o else acc)
    None outcomes

let to_csv outcomes =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "lanes,pipes_per_set,window,cycles,utilization,mem_frac,rdv_frac,squash_frac,alms,registers,fits\n";
  List.iter
    (fun o ->
      let frac select =
        match o.stall with
        | Some s -> Printf.sprintf "%.6f" (select s)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%s,%.6f,%s,%s,%s,%d,%d,%b\n" o.candidate.lanes
           o.candidate.pipelines_per_set o.candidate.window_factor
           (if o.fits then string_of_int o.cycles else "")
           o.utilization
           (frac (fun s -> s.Agp_obs.Attribution.mem_frac))
           (frac (fun s -> s.Agp_obs.Attribution.rendezvous_frac))
           (frac (fun s -> s.Agp_obs.Attribution.squash_frac))
           o.alms o.registers o.fits))
    outcomes;
  Buffer.contents buf

let report (app : App_instance.t) outcomes =
  let module Json = Agp_obs.Json in
  let key c = Printf.sprintf "l%d_p%d_w%d" c.lanes c.pipelines_per_set c.window_factor in
  let outcome_json o =
    let frac select =
      match o.stall with
      | Some s -> [ select s ]
      | None -> []
    in
    ( key o.candidate,
      Json.Obj
        ((if o.fits then [ ("cycles", Json.Int o.cycles) ] else [])
        @ [ ("utilization", Json.Float o.utilization) ]
        @ List.map
            (fun v -> ("mem_stall_frac", Json.Float v))
            (frac (fun s -> s.Agp_obs.Attribution.mem_frac))
        @ List.map
            (fun v -> ("rdv_stall_frac", Json.Float v))
            (frac (fun s -> s.Agp_obs.Attribution.rendezvous_frac))
        @ List.map
            (fun v -> ("squash_frac", Json.Float v))
            (frac (fun s -> s.Agp_obs.Attribution.squash_frac))
        @ [
            ("alms", Json.Int o.alms);
            ("registers", Json.Int o.registers);
            ("fits", Json.Bool o.fits);
          ]) )
  in
  let best_section =
    match best outcomes with
    | None -> []
    | Some o ->
        [
          ( "best",
            Json.Obj
              [
                ("lanes", Json.Int o.candidate.lanes);
                ("pipes_per_set", Json.Int o.candidate.pipelines_per_set);
                ("window", Json.Int o.candidate.window_factor);
                ("cycles", Json.Int o.cycles);
                ("utilization", Json.Float o.utilization);
              ] );
        ]
  in
  Agp_obs.Report.v ~kind:"explore-sweep" ~app:app.App_instance.app_name
    ~meta:[ ("candidates", Json.Int (List.length outcomes)) ]
    ~sections:(best_section @ [ ("sweep", Json.Obj (List.map outcome_json outcomes)) ])
    ()

let print (app : App_instance.t) outcomes =
  Printf.printf "design-space exploration for %s:\n" app.App_instance.app_name;
  let t =
    Table.create
      [ "lanes"; "pipes/set"; "window"; "cycles"; "util"; "mem%"; "rdv%"; "squash%"; "ALMs"; "fits" ]
  in
  let pct f = Printf.sprintf "%.1f%%" (100.0 *. f) in
  let stall_cell select o =
    match o.stall with
    | Some s -> pct (select s)
    | None -> "-"
  in
  List.iter
    (fun o ->
      Table.add_row t
        [
          string_of_int o.candidate.lanes;
          string_of_int o.candidate.pipelines_per_set;
          string_of_int o.candidate.window_factor;
          (if o.fits then string_of_int o.cycles else "-");
          pct o.utilization;
          stall_cell (fun s -> s.Agp_obs.Attribution.mem_frac) o;
          stall_cell (fun s -> s.Agp_obs.Attribution.rendezvous_frac) o;
          stall_cell (fun s -> s.Agp_obs.Attribution.squash_frac) o;
          string_of_int o.alms;
          string_of_bool o.fits;
        ])
    outcomes;
  Table.print t;
  match best outcomes with
  | Some o ->
      let diagnosis =
        match o.stall with
        | Some s ->
            let name, frac = Agp_obs.Attribution.dominant_stall s in
            Printf.sprintf " (busy %s, dominant stall: %s %s)"
              (pct s.Agp_obs.Attribution.busy_frac) name (pct frac)
        | None -> ""
      in
      Printf.printf "best: %d lanes, %d pipelines/set, window x%d -> %d cycles%s\n"
        o.candidate.lanes o.candidate.pipelines_per_set o.candidate.window_factor o.cycles
        diagnosis
  | None -> print_endline "no fitting configuration"
