module Backend = Agp_backend.Backend
module Workloads = Agp_exp.Workloads
module Log = Agp_obs.Log
module Json = Agp_obs.Json
module Metrics = Agp_obs.Metrics
module Window = Agp_obs.Window
module Telemetry = Agp_obs.Telemetry

type addr = Unix_path of string | Tcp of string * int

let addr_of_string s =
  let tcp host port =
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
    | Some _ | None -> Error (Printf.sprintf "bad TCP port %S" port)
  in
  if String.starts_with ~prefix:"unix:" s then
    Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.starts_with ~prefix:"tcp:" s then begin
    match String.split_on_char ':' (String.sub s 4 (String.length s - 4)) with
    | [ host; port ] -> tcp host port
    | [ port ] -> tcp "127.0.0.1" port
    | _ -> Error (Printf.sprintf "bad TCP address %S (want tcp:HOST:PORT)" s)
  end
  else if String.contains s '/' then Ok (Unix_path s)
  else
    match String.split_on_char ':' s with
    | [ host; port ] -> tcp (if host = "" then "127.0.0.1" else host) port
    | [ port ] when port <> "" && String.for_all (fun c -> c >= '0' && c <= '9') port ->
        tcp "127.0.0.1" port
    | _ ->
        Error
          (Printf.sprintf
             "bad address %S (want unix:PATH, a path containing '/', HOST:PORT or :PORT)" s)

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type config = { admission : Admission.config; scheduler : Scheduler.config }

let default_config =
  { admission = Admission.default_config; scheduler = Scheduler.default_config }

type t = {
  config : config;
  admission : Scheduler.job Admission.t;
  scheduler : Scheduler.t;
  registry : Metrics.registry;
  log : Log.t;
  tracer : Tracer.t option;
  m_accepted : Metrics.counter;
  m_completed : Metrics.counter;
  m_shed : Metrics.counter;
  m_errors : Metrics.counter;
  w_latency : Window.t;
  w_queue : Window.t;
  w_build : Window.t;
  w_exec : Window.t;
  mutable exec_sum_ms : float;  (* every reply's exec_ms, for retry_after_ms *)
  mutable exec_count : int;
  started_at : float;
  mutex : Mutex.t;
  mutable listening_fd : Unix.file_descr option;
  mutable stopping : bool;
  mutable drained : bool;
}

(* each count lives once, in its registry counter, bumped under the
   server lock *)
let bump t c = Mutex.protect t.mutex (fun () -> Metrics.incr c)

let window_span_s = 60.0

let create ?(config = default_config) ?(log = Log.null) ?trace_dir () =
  let admission = Admission.create config.admission in
  let reg = Metrics.create () in
  let window name = Window.create ~span_s:window_span_s name in
  let tracer = Option.map (fun dir -> Tracer.create ~dir ()) trace_dir in
  let rec t =
    lazy
      {
        config;
        admission;
        scheduler =
          Scheduler.start ~log ?tracer config.scheduler ~admission
            ~on_complete:(fun job clock resp ->
              let server = Lazy.force t in
              let timing = Scheduler.timing clock in
              Admission.finish admission ~tenant:job.Scheduler.req.Protocol.tenant;
              Mutex.protect server.mutex (fun () ->
                  server.exec_sum_ms <- server.exec_sum_ms +. timing.Protocol.exec_ms;
                  server.exec_count <- server.exec_count + 1;
                  match resp with
                  | Protocol.Result _ ->
                      Metrics.incr server.m_completed;
                      let now = clock.Scheduler.finished in
                      Window.observe server.w_latency ~now
                        ((now -. clock.Scheduler.submitted) *. 1000.0);
                      Window.observe server.w_queue ~now timing.Protocol.queue_ms;
                      Window.observe server.w_build ~now timing.Protocol.build_ms;
                      Window.observe server.w_exec ~now timing.Protocol.exec_ms
                  | _ -> Metrics.incr server.m_errors);
              (try job.Scheduler.respond resp with _ -> ()));
        registry = reg;
        log;
        tracer;
        m_accepted = Metrics.counter reg "serve.requests_accepted_total";
        m_completed = Metrics.counter reg "serve.requests_completed_total";
        m_shed = Metrics.counter reg "serve.requests_shed_total";
        m_errors = Metrics.counter reg "serve.errors_total";
        w_latency = window "serve.latency_ms";
        w_queue = window "serve.queue_ms";
        w_build = window "serve.build_ms";
        w_exec = window "serve.exec_ms";
        exec_sum_ms = 0.0;
        exec_count = 0;
        started_at = Unix.gettimeofday ();
        mutex = Mutex.create ();
        listening_fd = None;
        stopping = false;
        drained = false;
      }
  in
  Lazy.force t

let tracer t = t.tracer

(* Point-in-time gauges are set at scrape time; counters and windows
   are maintained continuously by the admission/completion paths. *)
let prometheus t =
  let now = Unix.gettimeofday () in
  let reg = t.registry in
  Metrics.set (Metrics.gauge reg "serve.queue_depth") (float_of_int (Admission.depth t.admission));
  Metrics.set (Metrics.gauge reg "serve.in_flight") (float_of_int (Admission.in_flight t.admission));
  Metrics.set (Metrics.gauge reg "serve.uptime_seconds") (now -. t.started_at);
  Telemetry.to_prometheus reg [ t.w_exec; t.w_queue; t.w_latency; t.w_build ] ~now

(* How long a shed client should back off before retrying: the queue
   ahead of it, costed at the lifetime mean execution time of every
   reply per shard.  Before any execution has been observed, a small
   constant. *)
let retry_after_ms t =
  let mean =
    Mutex.protect t.mutex (fun () ->
        if t.exec_count = 0 then 25.0 else t.exec_sum_ms /. float_of_int t.exec_count)
  in
  let shards = max 1 t.config.scheduler.Scheduler.shards in
  Float.max 1.0 (mean *. float_of_int (Admission.depth t.admission + 1) /. float_of_int shards)

let bad_request id message =
  Protocol.Error_reply
    { id = Some id; kind = Protocol.Bad_request; message; line = None; col = None }

(* Validate the cheap-to-check parts of a run request before admission,
   so a request that can never execute is refused with the same
   self-describing error the CLI would print, not queued. *)
let validate_run (req : Protocol.run_request) =
  match Workloads.scale_of_string req.Protocol.scale with
  | Error e -> Some (bad_request req.Protocol.id e)
  | Ok _ ->
      if not (List.mem req.Protocol.app Workloads.app_names) then
        Some
          (bad_request req.Protocol.id
             (Printf.sprintf "unknown application %S (known: %s)" req.Protocol.app
                (String.concat ", " Workloads.app_names)))
      else begin
        match Backend.find req.Protocol.backend with
        | Error e -> Some (bad_request req.Protocol.id e)
        | Ok b ->
            if req.Protocol.obs && not b.Backend.capabilities.Backend.obs_report then
              Some
                (bad_request req.Protocol.id
                   (Printf.sprintf
                      "backend %s cannot emit an obs run report (no obs capability)"
                      b.Backend.name))
            else None
      end

let wake_accept_loop t =
  Mutex.protect t.mutex (fun () ->
      match t.listening_fd with
      | Some fd ->
          t.listening_fd <- None;
          (* shutdown() on the listening socket wakes a blocked accept;
             close alone does not reliably do so on Linux *)
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())

(* Stop admitting and wait for the shard pool to finish what was
   queued; does NOT wake the accept loop, so a shutdown request can
   still be acknowledged on its connection before the daemon's main
   thread returns from [listen] and the process exits. *)
let drain t =
  let first =
    Mutex.protect t.mutex (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          true
        end)
  in
  if first then begin
    Log.info t.log "draining: admission closed, waiting for shards";
    Admission.close t.admission;
    Scheduler.join t.scheduler;
    (match t.tracer with
    | Some tr -> begin
        match Tracer.flush tr with
        | Ok path ->
            Log.info t.log
              ~fields:
                [
                  ("path", Json.String path);
                  ("requests", Json.Int (Tracer.request_count tr));
                  ("dropped", Json.Int (Tracer.dropped tr));
                ]
              "request trace written"
        | Error e -> Log.warn t.log (Printf.sprintf "request trace flush failed: %s" e)
      end
    | None -> ());
    Log.info t.log
      ~fields:
        (List.map
           (fun (name, c) -> (name, Json.Int (Metrics.count c)))
           [ ("completed", t.m_completed); ("shed", t.m_shed); ("errors", t.m_errors) ])
      "drained";
    Mutex.protect t.mutex (fun () -> t.drained <- true)
  end
  else
    (* second caller waits for the first to finish draining *)
    while not (Mutex.protect t.mutex (fun () -> t.drained)) do
      Thread.yield ()
    done

let shutdown t =
  drain t;
  wake_accept_loop t

let handle_line t ~respond ?(on_admit = fun () -> ()) ?(on_settle = fun () -> ()) line =
  match Protocol.read_request line with
  | Error err ->
      bump t t.m_errors;
      (match err with
      | Protocol.Error_reply { id; message; _ } -> Log.warn t.log ?req:id message
      | _ -> ());
      respond err;
      `Continue
  | Ok (Protocol.Hello h) ->
      if h.Protocol.protocol <> Protocol.protocol_version then begin
        bump t t.m_errors;
        Log.warn t.log
          ~fields:
            [
              ("client", Json.String h.Protocol.client);
              ("client_protocol", Json.Int h.Protocol.protocol);
            ]
          "incompatible client protocol";
        respond
          (Protocol.Error_reply
             {
               id = None;
               kind = Protocol.Incompatible;
               message =
                 Printf.sprintf "server speaks serve protocol v%d, client sent v%d"
                   Protocol.protocol_version h.Protocol.protocol;
               line = None;
               col = None;
             })
      end
      else
        respond
          (Protocol.Hello_ack
             {
               server = "agp-serve";
               version = Agp_util.Version.version;
               protocol = Protocol.protocol_version;
               schema = Agp_obs.Report.schema_version;
             });
      `Continue
  | Ok Protocol.Ping ->
      respond Protocol.Pong;
      `Continue
  | Ok Protocol.Metrics ->
      respond (Protocol.Metrics_reply { text = prometheus t });
      `Continue
  | Ok Protocol.Shutdown ->
      Log.info t.log "shutdown requested";
      drain t;
      respond (Protocol.Shutdown_ack { completed = Metrics.count t.m_completed });
      wake_accept_loop t;
      `Shutdown
  | Ok (Protocol.Run req) -> begin
      match validate_run req with
      | Some err ->
          bump t t.m_errors;
          (match err with
          | Protocol.Error_reply { message; _ } -> Log.warn t.log ~req:req.Protocol.id message
          | _ -> ());
          respond err;
          `Continue
      | None ->
          let job =
            {
              Scheduler.req;
              submitted_at = Unix.gettimeofday ();
              respond =
                (fun resp ->
                  (try respond resp with _ -> ());
                  on_settle ());
            }
          in
          (match Admission.submit t.admission ~tenant:req.Protocol.tenant job with
          | Ok () ->
              bump t t.m_accepted;
              Log.debug t.log ~req:req.Protocol.id
                ~fields:
                  [
                    ("app", Json.String req.Protocol.app);
                    ("tenant", Json.String req.Protocol.tenant);
                    ("depth", Json.Int (Admission.depth t.admission));
                  ]
                "request admitted";
              on_admit ()
          | Error reason ->
              bump t t.m_shed;
              let reason_name =
                match reason with
                | Protocol.Queue_full _ -> "queue-full"
                | Protocol.Quota_exceeded _ -> "quota"
                | Protocol.Draining -> "draining"
              in
              Log.warn t.log ~req:req.Protocol.id
                ~fields:[ ("reason", Json.String reason_name) ]
                "request shed";
              respond
                (Protocol.Overloaded
                   { id = req.Protocol.id; reason; retry_after_ms = retry_after_ms t }));
          `Continue
    end

(* Per-connection loop: NDJSON in, NDJSON out.  Responses can arrive
   from shard threads at any time, so writes are serialized by a
   per-connection mutex; the connection is closed only once its admitted
   requests have settled, so late results are not dropped on EOF. *)
let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wm = Mutex.create () in
  let outstanding = ref 0 in
  let respond resp =
    Mutex.lock wm;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wm)
      (fun () ->
        try
          output_string oc (Protocol.write resp);
          output_char oc '\n';
          flush oc
        with Sys_error _ | Unix.Unix_error _ -> ())
  in
  let on_admit () = Mutex.lock wm; incr outstanding; Mutex.unlock wm in
  let on_settle () = Mutex.lock wm; decr outstanding; Mutex.unlock wm in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line -> begin
        match handle_line t ~respond ~on_admit ~on_settle line with
        | `Continue -> loop ()
        | `Shutdown -> ()
      end
  in
  loop ();
  (* wait (bounded) for in-flight results to flush before closing *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    Mutex.lock wm;
    let n = !outstanding in
    Mutex.unlock wm;
    n > 0 && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

let listen t ~addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd =
    match addr with
    | Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.bind fd (Unix.ADDR_UNIX path);
        fd
    | Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        fd
  in
  Unix.listen fd 64;
  Log.info t.log
    ~fields:
      [
        ("addr", Json.String (addr_to_string addr));
        ("shards", Json.Int t.config.scheduler.Scheduler.shards);
      ]
    "listening";
  Mutex.protect t.mutex (fun () -> t.listening_fd <- Some fd);
  let rec accept_loop () =
    if Mutex.protect t.mutex (fun () -> t.stopping) then ()
    else
      match Unix.accept fd with
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
        ->
          if Mutex.protect t.mutex (fun () -> t.stopping) then () else accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | cfd, _ ->
          ignore (Thread.create (fun () -> handle_conn t cfd) ());
          accept_loop ()
  in
  accept_loop ();
  wake_accept_loop t;
  match addr with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
