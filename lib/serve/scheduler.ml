module Backend = Agp_backend.Backend
module Workloads = Agp_exp.Workloads
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

type clock = {
  submitted : float;
  build_start : float;
  build_end : float;
  exec_start : float;
  finished : float;
}

let timing c =
  let ms a b = (b -. a) *. 1000.0 in
  let build_ms = ms c.build_start c.build_end in
  {
    Protocol.queue_ms = ms c.submitted c.exec_start -. build_ms;
    build_ms;
    exec_ms = ms c.exec_start c.finished;
  }

let bad_request (job : job) message =
  Protocol.Error_reply
    { id = Some job.req.Protocol.id; kind = Protocol.Bad_request; message; line = None; col = None }

(* Run one job on the built workload; its reply, given the timing *)
let execute ~shard ~batch ~log app (job : job) =
  let req = job.req in
  match Backend.find req.Protocol.backend with
  | Error e -> fun _ -> bad_request job e
  | Ok b -> begin
      let want_obs = req.Protocol.obs && b.Backend.capabilities.Backend.obs_report in
      let finish verdict (res : Backend.run_result option) timing =
        Protocol.Result
          {
            Protocol.out_id = req.Protocol.id;
            verdict;
            backend = b.Backend.name;
            seconds = Option.bind res (fun r -> r.Backend.seconds);
            tasks = Option.bind res (fun r -> r.Backend.tasks_run);
            batch;
            shard;
            timing;
            report =
              Option.bind res (fun r ->
                  Option.map Agp_obs.Report.to_json r.Backend.obs);
          }
      in
      let sink =
        if want_obs then Agp_obs.Sink.ring ~capacity:Backend.obs_ring_capacity
        else Agp_obs.Sink.null
      in
      match Backend.run ~sink ~request_id:req.Protocol.id b app with
      | exception Backend.Unsupported { reason; _ } -> finish (Protocol.Unsupported reason) None
      | exception exn -> (
          match Backend.liveness_failure exn with
          | Some msg -> finish (Protocol.Liveness msg) None
          | None ->
              Log.error log ~req:req.Protocol.id
                ~fields:[ ("backend", Agp_obs.Json.String b.Backend.name) ]
                (Printf.sprintf "substrate crashed: %s" (Printexc.to_string exn));
              fun _ ->
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

let shard_loop config ~log ~tracer ~admission ~on_complete shard =
  let rec loop () =
    match Admission.take_batch admission ~max:config.max_batch ~compatible with
    | [] -> ()  (* closed and drained *)
    | jobs ->
        let head = List.hd jobs in
        let build_start = Unix.gettimeofday () in
        let built =
          match Workloads.scale_of_string head.req.Protocol.scale with
          | Error e -> Error e
          | Ok scale ->
              Workloads.find head.req.Protocol.app scale ~seed:head.req.Protocol.seed
        in
        let build_end = Unix.gettimeofday () in
        let batch = List.length jobs in
        List.iter
          (fun job ->
            let exec_start = Unix.gettimeofday () in
            let reply =
              match built with
              | Error e -> fun _ -> bad_request job e  (* admission validated; defensive *)
              | Ok app -> execute ~shard ~batch ~log app job
            in
            let clock =
              {
                submitted = job.submitted_at;
                build_start;
                build_end;
                exec_start;
                finished = Unix.gettimeofday ();
              }
            in
            (match tracer with
            | Some tr ->
                Tracer.record tr ~id:job.req.Protocol.id ~shard ~batch
                  ~phases:
                    [
                      ("queue", clock.submitted, clock.build_start);
                      ("build", clock.build_start, clock.build_end);
                      ("execute", clock.exec_start, clock.finished);
                    ]
            | None -> ());
            Log.debug log ~req:job.req.Protocol.id
              ~fields:
                [
                  ("shard", Agp_obs.Json.Int shard);
                  ("batch", Agp_obs.Json.Int batch);
                  ("ms", Agp_obs.Json.Float ((clock.finished -. clock.submitted) *. 1000.0));
                ]
              "request executed";
            on_complete job clock (reply (timing clock)))
          jobs;
        loop ()
  in
  loop ()

let start ?(log = Log.null) ?tracer config ~admission ~on_complete =
  let shards = max 1 config.shards in
  let config = { shards; max_batch = max 1 config.max_batch } in
  {
    threads =
      List.init shards (fun i ->
          Thread.create
            (fun () -> shard_loop config ~log ~tracer ~admission ~on_complete i)
            ());
  }

let join t = List.iter Thread.join t.threads
