module App_instance = Agp_apps.App_instance
module State = Agp_core.State

type failure =
  | Unsupported of string
  | Oracle_failed of string
  | Check_failed of string
  | State_mismatch of string list
  | Liveness of string
  | Crash of string

let failure_to_string = function
  | Unsupported r -> "unsupported: " ^ r
  | Oracle_failed e -> "oracle failed: " ^ e
  | Check_failed e -> "check failed: " ^ e
  | State_mismatch ds ->
      Printf.sprintf "state mismatch vs oracle (%d cells): %s" (List.length ds)
        (String.concat "; " (List.filteri (fun i _ -> i < 4) ds))
  | Liveness e -> "liveness: " ^ e
  | Crash e -> "crash: " ^ e

type row = {
  row_app : string;
  row_backend : string;
  outcome : (unit, failure) result;
}

let check ?(state_equiv = false) (b : Backend.t) (app : App_instance.t) =
  (* The oracle runs first, on its own fresh instance; its verdict
     anchors the comparison. *)
  match Backend.run Backend.sequential app with
  | exception e -> Error (Oracle_failed (Printexc.to_string e))
  | { Backend.check = Error e; _ } -> Error (Oracle_failed e)
  | oracle -> begin
      match Backend.run b app with
      | exception Backend.Unsupported { reason; _ } -> Error (Unsupported reason)
      | exception e -> (
          match Backend.liveness_failure e with
          | Some msg -> Error (Liveness msg)
          | None -> Error (Crash (Printexc.to_string e)))
      | res -> begin
          match res.Backend.check with
          | Error e -> Error (Check_failed e)
          | Ok () ->
              if state_equiv then
                match (oracle.Backend.final, res.Backend.final) with
                | Some o, Some r -> begin
                    match State.diff o.App_instance.state r.App_instance.state with
                    | [] -> Ok ()
                    | ds -> Error (State_mismatch ds)
                  end
                | _ -> Ok ()  (* timing model: no state to compare *)
              else Ok ()
        end
    end

let mutating backends =
  List.filter (fun (b : Backend.t) -> b.Backend.capabilities.Backend.validates) backends

(* The matrix quantifies over the registry itself — every validating
   backend in [Backend.all] — so registering a backend opts it into
   conformance; there is no hand-maintained list to forget to update. *)
let matrix_backends () = mutating Backend.all

let missing_from rows =
  let covered = List.sort_uniq compare (List.map (fun r -> r.row_backend) rows) in
  List.filter
    (fun (b : Backend.t) ->
      b.Backend.capabilities.Backend.validates && not (List.mem b.Backend.name covered))
    Backend.all

let matrix ?(state_equiv = fun _ -> false) ~backends apps =
  List.concat_map
    (fun (app : App_instance.t) ->
      List.map
        (fun (b : Backend.t) ->
          {
            row_app = app.App_instance.app_name;
            row_backend = b.Backend.name;
            outcome = check ~state_equiv:(state_equiv app) b app;
          })
        backends)
    apps

let failing rows =
  List.filter
    (fun r ->
      match r.outcome with
      | Ok () | Error (Unsupported _) -> false
      | Error _ -> true)
    rows

let render rows =
  let t = Agp_util.Table.create [ "app"; "backend"; "conformance" ] in
  List.iter
    (fun r ->
      Agp_util.Table.add_row t
        [
          r.row_app;
          r.row_backend;
          (match r.outcome with
          | Ok () -> "ok"
          | Error f -> failure_to_string f);
        ])
    rows;
  Agp_util.Table.render t
