module Json = Agp_obs.Json
module Report = Agp_obs.Report
module Stats = Agp_util.Stats
module Table = Agp_util.Table

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wm : Mutex.t;
}

let sockaddr_of = function
  | Server.Unix_path p -> Unix.ADDR_UNIX p
  | Server.Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let domain_of = function
  | Server.Unix_path _ -> Unix.PF_UNIX
  | Server.Tcp _ -> Unix.PF_INET

let connect addr =
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  match Unix.connect fd (sockaddr_of addr) with
  | () ->
      Ok
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          wm = Mutex.create ();
        }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" (Server.addr_to_string addr)
           (Unix.error_message e))

let rec connect_retry ?(attempts = 50) ?(delay_s = 0.1) addr =
  match connect addr with
  | Ok c -> Ok c
  | Error _ as e when attempts <= 1 -> e
  | Error _ ->
      Thread.delay delay_s;
      connect_retry ~attempts:(attempts - 1) ~delay_s addr

let send conn req =
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      output_string conn.oc (Protocol.write_request req);
      output_char conn.oc '\n';
      flush conn.oc)

let recv ?timeout_s conn =
  (match timeout_s with
  | Some s -> ( try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO s with Unix.Unix_error _ -> ())
  | None -> ());
  match input_line conn.ic with
  | line -> Protocol.response_of_string line
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_blocked_io -> Error "read timed out"
  | exception Sys_error e -> Error (Printf.sprintf "read failed: %s" e)

let close conn =
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let handshake ?(client = "agp-loadgen") conn =
  send conn
    (Protocol.Hello
       { Protocol.client; version = Agp_util.Version.version; protocol = Protocol.protocol_version });
  recv ~timeout_s:5.0 conn

type spec = {
  app : string;
  scale : string;
  seed : int;
  backend : string;
  tenant : string;
  obs : bool;
}

let default_spec =
  { app = "spec-bfs"; scale = "small"; seed = 42; backend = "simulator";
    tenant = "loadgen"; obs = false }

type summary = {
  label : string;
  offered_rps : float;
  duration_s : float;
  sent : int;
  ok : int;
  failed : int;
  shed : int;
  lost : int;
  achieved_rps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let request_of_spec spec ~id =
  Protocol.Run
    {
      Protocol.id;
      tenant = spec.tenant;
      app = spec.app;
      scale = spec.scale;
      seed = spec.seed;
      backend = spec.backend;
      obs = spec.obs;
    }

(* Shared response accounting for both drivers: latency per request id,
   and the ok / failed / shed split. *)
type tally = {
  tm : Mutex.t;
  pending : (string, float) Hashtbl.t;  (* id -> send time *)
  mutable latencies_ms : float list;
  mutable ok : int;
  mutable failed : int;
  mutable shed : int;
}

let tally_create () =
  { tm = Mutex.create (); pending = Hashtbl.create 64; latencies_ms = [];
    ok = 0; failed = 0; shed = 0 }

let tally_sent t ~id ~at =
  Mutex.lock t.tm;
  Hashtbl.replace t.pending id at;
  Mutex.unlock t.tm

let tally_response t resp =
  let now = Unix.gettimeofday () in
  Mutex.lock t.tm;
  let settle id =
    match Hashtbl.find_opt t.pending id with
    | Some at ->
        Hashtbl.remove t.pending id;
        t.latencies_ms <- ((now -. at) *. 1000.0) :: t.latencies_ms
    | None -> ()
  in
  (match resp with
  | Protocol.Result o ->
      settle o.Protocol.out_id;
      (match o.Protocol.verdict with
      | Protocol.Valid -> t.ok <- t.ok + 1
      | Protocol.Invalid _ | Protocol.Liveness _ | Protocol.Unsupported _ ->
          t.failed <- t.failed + 1)
  | Protocol.Overloaded { id; _ } ->
      (* sheds are immediate refusals, not latency samples *)
      Hashtbl.remove t.pending id;
      t.shed <- t.shed + 1
  | Protocol.Error_reply { id; _ } ->
      Option.iter settle id;
      t.failed <- t.failed + 1
  | Protocol.Hello_ack _ | Protocol.Metrics_reply _ | Protocol.Pong | Protocol.Shutdown_ack _
    ->
      ());
  Mutex.unlock t.tm

let tally_pending t =
  Mutex.lock t.tm;
  let n = Hashtbl.length t.pending in
  Mutex.unlock t.tm;
  n

(* Nearest-rank over the raw samples: total at any n (0 samples -> 0,
   p99 of a handful of samples is their max), which is the honest
   answer for a short measurement window — interpolating between two
   latencies invents a value nobody observed. *)
let percentile_ms latencies p = Stats.percentile_nearest (Array.of_list latencies) p

let summarize t ~label ~offered_rps ~duration_s ~sent =
  let lat = Array.of_list t.latencies_ms in
  Array.sort compare lat;
  let pct p = percentile_ms t.latencies_ms p in
  let responded = t.ok + t.failed in
  {
    label;
    offered_rps;
    duration_s;
    sent;
    ok = t.ok;
    failed = t.failed;
    shed = t.shed;
    lost = sent - responded - t.shed;
    achieved_rps = (if duration_s > 0.0 then float_of_int responded /. duration_s else 0.0);
    p50_ms = pct 50.0;
    p90_ms = pct 90.0;
    p99_ms = pct 99.0;
    max_ms = (if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1));
  }

let drain_deadline_s = 60.0

let open_loop ?(spec = default_spec) ~addr ~rate ~duration_s () =
  if rate <= 0.0 then Error "open_loop: rate must be positive"
  else
    match connect_retry addr with
    | Error e -> Error e
    | Ok conn -> begin
        match handshake conn with
        | Error e ->
            close conn;
            Error (Printf.sprintf "handshake failed: %s" e)
        | Ok (Protocol.Error_reply { message; _ }) ->
            close conn;
            Error (Printf.sprintf "handshake refused: %s" message)
        | Ok _ ->
            let tally = tally_create () in
            let stop_reader = ref false in
            let reader =
              Thread.create
                (fun () ->
                  let rec loop () =
                    if not !stop_reader then
                      match recv ~timeout_s:0.25 conn with
                      | Ok resp -> tally_response tally resp; loop ()
                      | Error _ ->
                          (* timeout: poll the stop flag; EOF ends up here
                             too and the sender notices on write *)
                          loop ()
                  in
                  loop ())
                ()
            in
            let interval = 1.0 /. rate in
            let t_start = Unix.gettimeofday () in
            let deadline = t_start +. duration_s in
            let sent = ref 0 in
            (try
               while Unix.gettimeofday () < deadline do
                 let id = Printf.sprintf "r%d" !sent in
                 tally_sent tally ~id ~at:(Unix.gettimeofday ());
                 send conn (request_of_spec spec ~id);
                 incr sent;
                 let next = t_start +. (float_of_int !sent *. interval) in
                 let pause = next -. Unix.gettimeofday () in
                 if pause > 0.0 then Thread.delay pause
               done
             with Sys_error _ | Unix.Unix_error _ -> ());
            let wall = Unix.gettimeofday () -. t_start in
            (* let stragglers arrive before declaring them lost *)
            let drain_until = Unix.gettimeofday () +. drain_deadline_s in
            while tally_pending tally > 0 && Unix.gettimeofday () < drain_until do
              Thread.delay 0.02
            done;
            stop_reader := true;
            close conn;
            Thread.join reader;
            Ok
              (summarize tally
                 ~label:(Printf.sprintf "rate_%g" rate)
                 ~offered_rps:rate ~duration_s:wall ~sent:!sent)
      end

let closed_loop ?(spec = default_spec) ~addr ~clients ~requests () =
  if clients < 1 || requests < 1 then Error "closed_loop: clients and requests must be >= 1"
  else begin
    let tally = tally_create () in
    let errors = Mutex.create () in
    let first_error = ref None in
    let fail e =
      Mutex.lock errors;
      if !first_error = None then first_error := Some e;
      Mutex.unlock errors
    in
    let worker c () =
      match connect_retry addr with
      | Error e -> fail e
      | Ok conn -> begin
          match handshake conn with
          | Error e -> close conn; fail (Printf.sprintf "handshake failed: %s" e)
          | Ok (Protocol.Error_reply { message; _ }) ->
              close conn;
              fail (Printf.sprintf "handshake refused: %s" message)
          | Ok _ ->
              (try
                 for i = 0 to requests - 1 do
                   let id = Printf.sprintf "c%d-%d" c i in
                   tally_sent tally ~id ~at:(Unix.gettimeofday ());
                   send conn (request_of_spec spec ~id);
                   match recv ~timeout_s:drain_deadline_s conn with
                   | Ok resp -> tally_response tally resp
                   | Error e -> fail e; raise Exit
                 done
               with Exit | Sys_error _ | Unix.Unix_error _ -> ());
              close conn
        end
    in
    let t_start = Unix.gettimeofday () in
    let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t_start in
    match !first_error with
    | Some e -> Error e
    | None ->
        Ok
          (summarize tally
             ~label:(Printf.sprintf "closed_%dx%d" clients requests)
             ~offered_rps:0.0 ~duration_s:wall ~sent:(clients * requests))
  end

let saturation ?(spec = default_spec) ~addr ~rates ~duration_s () =
  let rec run acc = function
    | [] -> Ok (List.rev acc)
    | rate :: rest -> begin
        match open_loop ~spec ~addr ~rate ~duration_s () with
        | Error e -> Error e
        | Ok s -> run (s :: acc) rest
      end
  in
  run [] rates

let render summaries =
  let table =
    Table.create
      [ "offered/s"; "achieved/s"; "sent"; "ok"; "failed"; "shed"; "lost";
        "p50 ms"; "p90 ms"; "p99 ms" ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          (if s.offered_rps > 0.0 then Table.cell_float ~decimals:1 s.offered_rps
           else "closed");
          Table.cell_float ~decimals:1 s.achieved_rps;
          string_of_int s.sent;
          string_of_int s.ok;
          string_of_int s.failed;
          string_of_int s.shed;
          string_of_int s.lost;
          Table.cell_float s.p50_ms;
          Table.cell_float s.p90_ms;
          Table.cell_float s.p99_ms;
        ])
    summaries;
  Table.render table

let summary_to_json s =
  Json.Obj
    [
      ("offered_rps", Json.Float s.offered_rps);
      ("achieved_rps", Json.Float s.achieved_rps);
      ("duration_s", Json.Float s.duration_s);
      ("sent", Json.Int s.sent);
      ("ok", Json.Int s.ok);
      ("failed", Json.Int s.failed);
      ("shed", Json.Int s.shed);
      ("lost", Json.Int s.lost);
      ( "shed_rate",
        Json.Float
          (if s.sent > 0 then float_of_int s.shed /. float_of_int s.sent else 0.0) );
      ("p50_ms", Json.Float s.p50_ms);
      ("p90_ms", Json.Float s.p90_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("max_ms", Json.Float s.max_ms);
    ]

let report ?(meta = []) summaries =
  Report.v ~kind:"serve-saturation" ~app:"loadgen"
    ~meta:(List.map (fun (k, v) -> (k, Json.String v)) meta)
    ~sections:(List.map (fun s -> (s.label, summary_to_json s)) summaries)
    ()

let fetch_metrics ?(timeout_s = 10.0) addr =
  match connect addr with
  | Error e -> Error e
  | Ok conn ->
      let finish r =
        close conn;
        r
      in
      let fail fmt = Printf.ksprintf (fun m -> finish (Error m)) fmt in
      begin
        match handshake ~client:"agp-stats" conn with
        | Error e -> fail "handshake failed: %s" e
        | Ok (Protocol.Error_reply { message; _ }) -> fail "handshake refused: %s" message
        | Ok _ -> begin
            send conn Protocol.Metrics;
            match recv ~timeout_s conn with
            | Ok (Protocol.Metrics_reply { text }) -> finish (Ok text)
            | Ok _ -> fail "unexpected reply to metrics request"
            | Error e -> fail "metrics request failed: %s" e
          end
      end

let shutdown addr =
  match connect addr with
  | Error e -> Error e
  | Ok conn ->
      send conn Protocol.Shutdown;
      let rec wait () =
        match recv ~timeout_s:drain_deadline_s conn with
        | Ok (Protocol.Shutdown_ack { completed }) -> Ok completed
        | Ok _ -> wait ()  (* late run results still flushing *)
        | Error e -> Error e
      in
      let r = wait () in
      close conn;
      r
