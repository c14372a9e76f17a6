module Backend = Agp_backend.Backend
module Workloads = Agp_exp.Workloads
module Span = Agp_obs.Span
module Log = Agp_obs.Log

type job = {
  req : Protocol.run_request;
  submitted_at : float;
  respond : Protocol.response -> unit;
}

type config = { shards : int; max_batch : int }

let default_config = { shards = 4; max_batch = 8 }

type t = { threads : Thread.t list }

(* Batch key: requests that share workload construction.  The backend is
   deliberately not part of the key — Backend.run executes each request
   on a fresh instance, so one built workload serves them all. *)
let compatible a b =
  a.req.Protocol.app = b.req.Protocol.app
  && a.req.Protocol.scale = b.req.Protocol.scale
  && a.req.Protocol.seed = b.req.Protocol.seed

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

let bad_request (job : job) message =
  Protocol.Error_reply
    { id = Some job.req.Protocol.id; kind = Protocol.Bad_request; message; line = None; col = None }

let execute ~shard ~batch ~build_ms ~spans ~log app (job : job) =
  let req = job.req in
  let t0 = Unix.gettimeofday () in
  match Backend.find req.Protocol.backend with
  | Error e -> bad_request job e
  | Ok b -> begin
      let want_obs = req.Protocol.obs && b.Backend.capabilities.Backend.obs_report in
      let finish verdict (res : Backend.run_result option) =
        let exec_ms = ms_since t0 in
        Span.record spans ~phase:"execute" exec_ms;
        Protocol.Result
          {
            Protocol.out_id = req.Protocol.id;
            verdict;
            backend = b.Backend.name;
            seconds = Option.bind res (fun r -> r.Backend.seconds);
            tasks = Option.bind res (fun r -> r.Backend.tasks_run);
            batch;
            shard;
            timing =
              {
                Protocol.queue_ms = (t0 -. job.submitted_at) *. 1000.0 -. build_ms;
                build_ms;
                exec_ms;
              };
            report =
              Option.bind res (fun r ->
                  Option.map Agp_obs.Report.to_json r.Backend.obs);
          }
      in
      match Backend.run ~obs:want_obs ~request_id:req.Protocol.id b app with
      | exception Backend.Unsupported { reason; _ } ->
          finish (Protocol.Unsupported reason) None
      | exception exn -> (
          match Backend.liveness_failure exn with
          | Some msg -> finish (Protocol.Liveness msg) None
          | None ->
              Log.error log ~req:req.Protocol.id
                ~fields:[ ("backend", Agp_obs.Json.String b.Backend.name) ]
                (Printf.sprintf "substrate crashed: %s" (Printexc.to_string exn));
              Protocol.Error_reply
                {
                  id = Some req.Protocol.id;
                  kind = Protocol.Internal;
                  message = Printexc.to_string exn;
                  line = None;
                  col = None;
                })
      | res ->
          let verdict =
            if not b.Backend.capabilities.Backend.validates then Protocol.Valid
            else
              match res.Backend.check with
              | Ok () -> Protocol.Valid
              | Error e -> Protocol.Invalid e
          in
          finish verdict (Some res)
    end

let shard_loop config ~spans ~log ~tracer ~admission ~on_complete shard =
  let rec loop () =
    match Admission.take_batch admission ~max:config.max_batch ~compatible with
    | [] -> ()  (* closed and drained *)
    | jobs ->
        let head = List.hd jobs in
        let t_build = Unix.gettimeofday () in
        let built =
          match Workloads.scale_of_string head.req.Protocol.scale with
          | Error e -> Error e
          | Ok scale ->
              Workloads.find head.req.Protocol.app scale ~seed:head.req.Protocol.seed
        in
        let build_ms = ms_since t_build in
        Span.record spans ~phase:"build" build_ms;
        let t_built = t_build +. (build_ms /. 1000.0) in
        let batch = List.length jobs in
        List.iter
          (fun job ->
            Span.record spans ~phase:"queue" ((t_build -. job.submitted_at) *. 1000.0);
            let t_exec = Unix.gettimeofday () in
            let response =
              match built with
              | Error e -> bad_request job e  (* admission validated; defensive *)
              | Ok app -> execute ~shard ~batch ~build_ms ~spans ~log app job
            in
            let t_done = Unix.gettimeofday () in
            (match tracer with
            | Some tr ->
                (* the same three phases Span aggregates, but scoped to
                   this request id for the Chrome trace *)
                Tracer.record tr ~id:job.req.Protocol.id ~shard ~batch
                  ~phases:
                    [
                      ("queue", job.submitted_at, t_build);
                      ("build", t_build, t_built);
                      ("execute", t_exec, t_done);
                    ]
            | None -> ());
            Log.debug log ~req:job.req.Protocol.id
              ~fields:
                [
                  ("shard", Agp_obs.Json.Int shard);
                  ("batch", Agp_obs.Json.Int batch);
                  ("ms", Agp_obs.Json.Float ((t_done -. job.submitted_at) *. 1000.0));
                ]
              "request executed";
            on_complete job response)
          jobs;
        loop ()
  in
  loop ()

let start ?(log = Log.null) ?tracer config ~spans ~admission ~on_complete =
  let shards = max 1 config.shards in
  let config = { shards; max_batch = max 1 config.max_batch } in
  {
    threads =
      List.init shards (fun i ->
          Thread.create
            (fun () -> shard_loop config ~spans ~log ~tracer ~admission ~on_complete i)
            ());
  }

let join t = List.iter Thread.join t.threads
