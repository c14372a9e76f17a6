(* Tests for the Agp_serve daemon: wire-protocol codec round-trips,
   fuzzed malformed input, admission control (bounded queue, watermark
   shedding, tenant quotas, drain/recover), and the socket-free
   per-line server state machine. *)

module Json = Agp_obs.Json
module Protocol = Agp_serve.Protocol
module Admission = Agp_serve.Admission
module Scheduler = Agp_serve.Scheduler
module Server = Agp_serve.Server
module Loadgen = Agp_serve.Loadgen
module Backend = Agp_backend.Backend

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- wire protocol: round-trip every variant --- *)

let sample_run =
  {
    Protocol.id = "r1";
    tenant = "team-a";
    app = "spec-bfs";
    scale = "small";
    seed = 7;
    backend = "runtime:4";
    obs = true;
  }

let all_requests =
  [
    Protocol.Hello { Protocol.client = "t"; version = "0.0"; protocol = 1 };
    Protocol.Run sample_run;
    Protocol.Metrics;
    Protocol.Ping;
    Protocol.Shutdown;
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok back -> check Alcotest.bool "request survives codec" true (back = req)
      | Error e -> Alcotest.failf "request did not re-parse: %s" e)
    all_requests

let sample_outcome verdict =
  {
    Protocol.out_id = "r1";
    verdict;
    backend = "simulator";
    seconds = Some 0.012;
    tasks = Some 512;
    batch = 3;
    shard = 1;
    timing = { Protocol.queue_ms = 1.5; build_ms = 0.25; exec_ms = 12.0 };
    report = Some (Json.Obj [ ("schema_version", Json.Int 1) ]);
  }

let all_responses =
  [
    Protocol.Hello_ack { server = "agp-serve"; version = "0.0"; protocol = 1; schema = 1 };
    Protocol.Result (sample_outcome Protocol.Valid);
    Protocol.Result (sample_outcome (Protocol.Invalid "mismatch"));
    Protocol.Result (sample_outcome (Protocol.Liveness "deadlock"));
    Protocol.Result (sample_outcome (Protocol.Unsupported "timing model"));
    Protocol.Overloaded
      {
        id = "r2";
        reason = Protocol.Queue_full { depth = 9; watermark = 8 };
        retry_after_ms = 40.0;
      };
    Protocol.Overloaded
      {
        id = "r3";
        reason = Protocol.Quota_exceeded { tenant = "team-a"; in_flight = 4; quota = 4 };
        retry_after_ms = 10.0;
      };
    Protocol.Overloaded { id = "r4"; reason = Protocol.Draining; retry_after_ms = 1.0 };
    Protocol.Metrics_reply
      { text = "# TYPE serve_requests_total counter\nserve_requests_total 3\n" };
    Protocol.Pong;
    Protocol.Shutdown_ack { completed = 42 };
    Protocol.Error_reply
      { id = None; kind = Protocol.Parse; message = "bad"; line = Some 1; col = Some 3 };
    Protocol.Error_reply
      { id = Some "r9"; kind = Protocol.Bad_request; message = "nope"; line = None; col = None };
    Protocol.Error_reply
      { id = None; kind = Protocol.Incompatible; message = "v9"; line = None; col = None };
    Protocol.Error_reply
      { id = Some "r0"; kind = Protocol.Internal; message = "boom"; line = None; col = None };
  ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok back -> check Alcotest.bool "response survives codec" true (back = resp)
      | Error e -> Alcotest.failf "response did not re-parse: %s" e)
    all_responses

let test_wire_lines () =
  (* write then response_of_string is the path the loadgen client uses *)
  List.iter
    (fun resp ->
      match Protocol.response_of_string (Protocol.write resp) with
      | Ok back -> check Alcotest.bool "line survives" true (back = resp)
      | Error e -> Alcotest.failf "wire line did not re-parse: %s" e)
    all_responses;
  List.iter
    (fun req ->
      match Protocol.read_request (Protocol.write_request req) with
      | Ok back -> check Alcotest.bool "request line survives" true (back = req)
      | Error _ -> Alcotest.fail "request line rejected")
    all_requests

let test_run_defaults () =
  match Protocol.read_request {|{"type":"run","id":"a","app":"spec-bfs"}|} with
  | Ok (Protocol.Run r) ->
      check Alcotest.string "tenant default" "anon" r.Protocol.tenant;
      check Alcotest.string "scale default" "small" r.Protocol.scale;
      check Alcotest.int "seed default" 42 r.Protocol.seed;
      check Alcotest.string "backend default" "simulator" r.Protocol.backend;
      check Alcotest.bool "obs default" false r.Protocol.obs
  | _ -> Alcotest.fail "minimal run request rejected"

let test_parse_error_is_positioned () =
  match Protocol.read_request {|{"type":"run", "id": }|} with
  | Error (Protocol.Error_reply { kind = Protocol.Parse; line; col; _ }) ->
      check Alcotest.bool "line" true (line = Some 1);
      check Alcotest.bool "col present" true (col <> None)
  | Error _ -> Alcotest.fail "wrong error shape for malformed JSON"
  | Ok _ -> Alcotest.fail "accepted malformed JSON"

let test_semantic_error_echoes_id () =
  match Protocol.read_request {|{"type":"run","id":"x7"}|} with
  | Error (Protocol.Error_reply { kind = Protocol.Bad_request; id; _ }) ->
      check Alcotest.bool "id echoed" true (id = Some "x7")
  | Error _ -> Alcotest.fail "wrong error shape for missing app"
  | Ok _ -> Alcotest.fail "accepted run without app"

(* Fuzz: no input line may crash the decoder, and anything that is not
   valid JSON must come back as a typed, positioned Parse error. *)
let fuzz_malformed_lines =
  QCheck.Test.make ~name:"read_request never raises; bad JSON is a positioned parse error"
    ~count:500
    QCheck.(string_of_size (Gen.int_range 0 80))
    (fun s ->
      match Protocol.read_request s with
      | Ok _ -> true
      | Error (Protocol.Error_reply { kind = Protocol.Parse; line; col; _ }) ->
          line <> None && col <> None
      | Error (Protocol.Error_reply _) -> true
      | Error _ -> false)

(* Mutate a valid request line at one byte: still never a crash. *)
let fuzz_mutated_lines =
  let base = Protocol.write_request (Protocol.Run sample_run) in
  QCheck.Test.make ~name:"single-byte mutations decode or fail in a structured way" ~count:500
    QCheck.(pair (int_range 0 (String.length base - 1)) (int_range 0 255))
    (fun (i, b) ->
      let mutated = Bytes.of_string base in
      Bytes.set mutated i (Char.chr b);
      match Protocol.read_request (Bytes.to_string mutated) with
      | Ok _ | Error (Protocol.Error_reply _) -> true
      | Error _ -> false)

(* --- admission control --- *)

let admission_config ?(depth = 4) ?(watermark = 4) ?(quota = 2) () =
  { Admission.queue_depth = depth; shed_watermark = watermark; tenant_quota = quota }

let test_queue_fills_then_sheds () =
  let a = Admission.create (admission_config ~depth:3 ~watermark:3 ~quota:10 ()) in
  List.iter
    (fun i ->
      match Admission.submit a ~tenant:"t" i with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "submit %d shed below watermark" i)
    [ 0; 1; 2 ];
  (match Admission.submit a ~tenant:"t" 3 with
  | Error (Protocol.Queue_full { depth; watermark }) ->
      check Alcotest.int "depth at shed" 3 depth;
      check Alcotest.int "watermark" 3 watermark
  | Ok () -> Alcotest.fail "queue admitted past the watermark"
  | Error _ -> Alcotest.fail "wrong shed reason");
  check Alcotest.int "depth" 3 (Admission.depth a)

let test_tenant_quota () =
  let a = Admission.create (admission_config ~depth:10 ~watermark:10 ~quota:2 ()) in
  check Alcotest.bool "1st" true (Admission.submit a ~tenant:"a" 1 = Ok ());
  check Alcotest.bool "2nd" true (Admission.submit a ~tenant:"a" 2 = Ok ());
  (match Admission.submit a ~tenant:"a" 3 with
  | Error (Protocol.Quota_exceeded { tenant; in_flight; quota }) ->
      check Alcotest.string "tenant" "a" tenant;
      check Alcotest.int "in_flight" 2 in_flight;
      check Alcotest.int "quota" 2 quota
  | _ -> Alcotest.fail "third request for tenant a should exceed the quota");
  (* another tenant is unaffected *)
  check Alcotest.bool "other tenant" true (Admission.submit a ~tenant:"b" 4 = Ok ());
  (* quota releases on finish, not on take: draining the queue is not enough *)
  let _ = Admission.take_batch a ~max:8 ~compatible:(fun _ _ -> true) in
  (match Admission.submit a ~tenant:"a" 5 with
  | Error (Protocol.Quota_exceeded _) -> ()
  | _ -> Alcotest.fail "quota must be held until finish");
  Admission.finish a ~tenant:"a";
  check Alcotest.bool "after finish" true (Admission.submit a ~tenant:"a" 6 = Ok ())

let test_drain_and_recover () =
  let a = Admission.create (admission_config ~depth:2 ~watermark:2 ~quota:8 ()) in
  check Alcotest.bool "fill 1" true (Admission.submit a ~tenant:"t" 1 = Ok ());
  check Alcotest.bool "fill 2" true (Admission.submit a ~tenant:"t" 2 = Ok ());
  (match Admission.submit a ~tenant:"t" 3 with
  | Error (Protocol.Queue_full _) -> ()
  | _ -> Alcotest.fail "expected shed at watermark");
  let batch = Admission.take_batch a ~max:8 ~compatible:(fun _ _ -> true) in
  check Alcotest.int "batch drains queue" 2 (List.length batch);
  List.iter (fun _ -> Admission.finish a ~tenant:"t") batch;
  (* same admission instance accepts again — no restart needed *)
  check Alcotest.bool "recovered" true (Admission.submit a ~tenant:"t" 4 = Ok ());
  check Alcotest.int "depth after recover" 1 (Admission.depth a)

let test_batch_compatibility () =
  let a = Admission.create (admission_config ~depth:10 ~watermark:10 ~quota:10 ()) in
  List.iter
    (fun x -> check Alcotest.bool "submit" true (Admission.submit a ~tenant:"t" x = Ok ()))
    [ 1; 2; 11; 3; 12 ];
  (* compatible = same decade; head is 1, so the batch is 1,2,3 *)
  let batch = Admission.take_batch a ~max:8 ~compatible:(fun a b -> a / 10 = b / 10) in
  check Alcotest.bool "grouped" true (batch = [ 1; 2; 3 ]);
  let batch2 = Admission.take_batch a ~max:8 ~compatible:(fun a b -> a / 10 = b / 10) in
  check Alcotest.bool "remainder in order" true (batch2 = [ 11; 12 ])

let test_close_sheds_draining () =
  let a = Admission.create (admission_config ()) in
  Admission.close a;
  (match Admission.submit a ~tenant:"t" 1 with
  | Error Protocol.Draining -> ()
  | _ -> Alcotest.fail "closed admission must shed with Draining");
  check Alcotest.bool "take returns empty when closed+drained" true
    (Admission.take_batch a ~max:4 ~compatible:(fun _ _ -> true) = [])

(* --- server state machine (no sockets) --- *)

(* Collect responses across threads: run results arrive from shards. *)
let collector () =
  let m = Mutex.create () in
  let c = Condition.create () in
  let acc = ref [] in
  let respond r =
    Mutex.lock m;
    acc := r :: !acc;
    Condition.signal c;
    Mutex.unlock m
  in
  let wait_for pred =
    Mutex.lock m;
    let deadline = Unix.gettimeofday () +. 30.0 in
    let found = ref (List.find_opt pred !acc) in
    while !found = None && Unix.gettimeofday () < deadline do
      Condition.wait c m;
      found := List.find_opt pred !acc
    done;
    Mutex.unlock m;
    !found
  in
  let all () =
    Mutex.lock m;
    let r = List.rev !acc in
    Mutex.unlock m;
    r
  in
  (respond, wait_for, all)

let line json = check Alcotest.bool "continue" true (json = `Continue)

(* A sample's value, as rendered, in the daemon's Prometheus scrape *)
let scraped t name =
  let prefix = name ^ " " in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' (Server.prometheus t))
  with
  | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> Alcotest.failf "scrape lacks %s" name

let scraped_int t name = int_of_string (scraped t name)

let test_ping_and_hello () =
  let t = Server.create () in
  let respond, _, all = collector () in
  line (Server.handle_line t ~respond {|{"type":"ping"}|});
  line
    (Server.handle_line t ~respond
       {|{"type":"hello","client":"t","version":"0","protocol":3}|});
  line
    (Server.handle_line t ~respond
       {|{"type":"hello","client":"t","version":"0","protocol":99}|});
  (match all () with
  | [ Protocol.Pong; Protocol.Hello_ack ack; Protocol.Error_reply e ] ->
      check Alcotest.int "protocol" Protocol.protocol_version ack.protocol;
      check Alcotest.int "schema" Agp_obs.Report.schema_version ack.schema;
      check Alcotest.bool "incompatible" true (e.kind = Protocol.Incompatible)
  | _ -> Alcotest.fail "unexpected response sequence");
  Server.shutdown t

let test_stats_request_removed () =
  let t = Server.create () in
  let respond, _, all = collector () in
  line (Server.handle_line t ~respond {|{"type":"stats"}|});
  line (Server.handle_line t ~respond {|{"type":"ping"}|});
  (match all () with
  | [ Protocol.Error_reply e; Protocol.Pong ] ->
      check Alcotest.bool "typed bad request" true (e.kind = Protocol.Bad_request);
      check Alcotest.string "names the type" {|unknown request type "stats"|} e.message
  | _ -> Alcotest.fail "expected a bad-request reply, then pong");
  check Alcotest.int "error counted" 1 (scraped_int t "serve_errors_total");
  Server.shutdown t

let test_bad_run_requests () =
  let t = Server.create () in
  let respond, _, all = collector () in
  line (Server.handle_line t ~respond {|{"type":"run","id":"a","app":"no-such-app"}|});
  line
    (Server.handle_line t ~respond
       {|{"type":"run","id":"b","app":"spec-bfs","backend":"no-such-backend"}|});
  line
    (Server.handle_line t ~respond
       {|{"type":"run","id":"c","app":"spec-bfs","backend":"cpu-1core","obs":true}|});
  (match all () with
  | [ Protocol.Error_reply a; Protocol.Error_reply b; Protocol.Error_reply c ] ->
      check Alcotest.bool "unknown app lists apps" true
        (Astring.String.is_infix ~affix:"spec-bfs" a.message);
      check Alcotest.bool "unknown backend lists registry" true
        (Astring.String.is_infix ~affix:"registered backends" b.message);
      check Alcotest.bool "obs on timing model refused" true
        (c.kind = Protocol.Bad_request)
  | _ -> Alcotest.fail "expected three bad-request replies");
  check Alcotest.int "errors counted" 3 (scraped_int t "serve_errors_total");
  check Alcotest.int "nothing accepted" 0 (scraped_int t "serve_requests_accepted_total");
  Server.shutdown t

let test_run_to_completion () =
  let t = Server.create () in
  let respond, wait_for, _ = collector () in
  line
    (Server.handle_line t ~respond
       {|{"type":"run","id":"ok1","app":"spec-bfs","scale":"small","backend":"simulator","obs":true}|});
  (match
     wait_for (function Protocol.Result o -> o.Protocol.out_id = "ok1" | _ -> false)
   with
  | Some (Protocol.Result o) ->
      check Alcotest.int "valid verdict exit code" 0 (Protocol.exit_code o.Protocol.verdict);
      check Alcotest.string "backend resolved" "simulator" o.Protocol.backend;
      check Alcotest.bool "report attached" true (o.Protocol.report <> None);
      (match o.Protocol.report with
      | Some doc -> begin
          match Agp_obs.Report.of_json doc with
          | Ok r ->
              check Alcotest.string "report app" "spec-bfs"
                (String.lowercase_ascii r.Agp_obs.Report.app)
          | Error e -> Alcotest.failf "embedded report invalid: %s" e
        end
      | None -> ())
  | _ -> Alcotest.fail "no result for admitted request");
  check Alcotest.int "completed" 1 (scraped_int t "serve_requests_completed_total");
  check Alcotest.int "in_flight settles" 0 (scraped_int t "serve_in_flight");
  Server.shutdown t

let test_watermark_zero_sheds_everything () =
  (* watermark 0 makes every submission shed — deterministic overload *)
  let config =
    {
      Server.admission = { Admission.queue_depth = 4; shed_watermark = 0; tenant_quota = 4 };
      scheduler = { Scheduler.shards = 1; max_batch = 2 };
    }
  in
  let t = Server.create ~config () in
  let respond, _, all = collector () in
  line (Server.handle_line t ~respond {|{"type":"run","id":"s1","app":"spec-bfs"}|});
  (match all () with
  | [ Protocol.Overloaded { id; reason = Protocol.Queue_full _; retry_after_ms } ] ->
      check Alcotest.string "id echoed" "s1" id;
      check Alcotest.bool "retry hint positive" true (retry_after_ms > 0.0)
  | _ -> Alcotest.fail "expected a typed Overloaded shed");
  check Alcotest.int "shed counted" 1 (scraped_int t "serve_requests_shed_total");
  Server.shutdown t

let test_shutdown_request_drains () =
  let t = Server.create () in
  let respond, wait_for, _ = collector () in
  line (Server.handle_line t ~respond {|{"type":"run","id":"d1","app":"spec-bfs"}|});
  let verdict =
    Server.handle_line t ~respond {|{"type":"shutdown"}|}
  in
  check Alcotest.bool "shutdown verdict" true (verdict = `Shutdown);
  (* the admitted request completed before the ack was sent *)
  (match wait_for (function Protocol.Shutdown_ack _ -> true | _ -> false) with
  | Some (Protocol.Shutdown_ack { completed }) -> check Alcotest.int "drained" 1 completed
  | _ -> Alcotest.fail "no shutdown ack");
  (match wait_for (function Protocol.Result _ -> true | _ -> false) with
  | Some _ -> ()
  | None -> Alcotest.fail "admitted request lost on shutdown");
  (* post-shutdown submissions shed as Draining *)
  let respond2, _, all2 = collector () in
  line (Server.handle_line t ~respond:respond2 {|{"type":"run","id":"d2","app":"spec-bfs"}|});
  match all2 () with
  | [ Protocol.Overloaded { reason = Protocol.Draining; _ } ] -> ()
  | _ -> Alcotest.fail "post-shutdown request should shed as Draining"

let test_metrics_request () =
  let t = Server.create () in
  let respond, wait_for, _ = collector () in
  line
    (Server.handle_line t ~respond
       {|{"type":"run","id":"m1","app":"spec-bfs","scale":"small","backend":"simulator"}|});
  (match wait_for (function Protocol.Result _ -> true | _ -> false) with
  | Some _ -> ()
  | None -> Alcotest.fail "request never completed");
  let respond2, _, all2 = collector () in
  line (Server.handle_line t ~respond:respond2 {|{"type":"metrics"}|});
  (match all2 () with
  | [ Protocol.Metrics_reply { text } ] ->
      let has affix name =
        check Alcotest.bool name true (Astring.String.is_infix ~affix text)
      in
      has "# TYPE serve_requests_accepted_total counter\nserve_requests_accepted_total 1\n"
        "accepted counter scraped";
      has "serve_requests_completed_total 1\n" "completed counter scraped";
      has "serve_requests_shed_total 0\n" "shed counter scraped";
      (* point-in-time gauges are refreshed at scrape *)
      has "# TYPE serve_queue_depth gauge\n" "queue depth gauge";
      has "# TYPE serve_uptime_seconds gauge\n" "uptime gauge";
      (* rolling windows render as summaries; one completion = one sample *)
      has "# TYPE serve_latency_ms summary\n" "latency window";
      has "serve_latency_ms_count 1\n" "latency window saw the request";
      has "serve_latency_ms{quantile=\"0.99\"}" "latency p99 line";
      has "serve_build_ms_count 1\n" "build window saw the request";
      has "serve_exec_ms_count 1\n" "exec window saw the request"
  | _ -> Alcotest.fail "expected a single Metrics_reply");
  (* the same exposition backs agp stats via Server.prometheus *)
  check Alcotest.bool "prometheus accessor agrees" true
    (Astring.String.is_infix ~affix:"serve_requests_completed_total"
       (Server.prometheus t));
  Server.shutdown t

let test_request_trace_capture () =
  let dir = Filename.temp_file "agp_trace" "" in
  Sys.remove dir;
  let log_path = Filename.temp_file "agp_servelog" ".ndjson" in
  let log_oc = open_out log_path in
  let log =
    Agp_obs.Log.create ~level:Agp_obs.Log.Debug ~clock:Unix.gettimeofday ~out:log_oc ()
  in
  let t = Server.create ~log ~trace_dir:dir () in
  (match Server.tracer t with
  | Some _ -> ()
  | None -> Alcotest.fail "trace_dir did not enable the tracer");
  let respond, wait_for, _ = collector () in
  line
    (Server.handle_line t ~respond
       {|{"type":"run","id":"t1","app":"spec-bfs","scale":"small","backend":"simulator","obs":true}|});
  (match wait_for (function Protocol.Result o -> o.Protocol.out_id = "t1" | _ -> false) with
  | Some (Protocol.Result o) ->
      (* the obs report carries the request id in its meta *)
      (match o.Protocol.report with
      | Some doc -> begin
          match Agp_obs.Report.of_json doc with
          | Ok r ->
              check Alcotest.bool "report meta carries request id" true
                (List.assoc_opt "request_id" r.Agp_obs.Report.meta
                = Some (Json.String "t1"))
          | Error e -> Alcotest.failf "embedded report invalid: %s" e
        end
      | None -> Alcotest.fail "obs report missing")
  | _ -> Alcotest.fail "no result for traced request");
  Server.shutdown t;
  close_out log_oc;
  (* drain flushed the capture: parse it as a Chrome trace *)
  let trace_file = Filename.concat dir "serve-trace.json" in
  check Alcotest.bool "trace file written on drain" true (Sys.file_exists trace_file);
  let ic = open_in trace_file in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  (match Json.parse body with
  | Ok (Json.Obj kv) -> begin
      match List.assoc_opt "traceEvents" kv with
      | Some (Json.List events) ->
          let assoc k = function Json.Obj fields -> List.assoc_opt k fields | _ -> None in
          let slices =
            List.filter (fun e -> assoc "ph" e = Some (Json.String "X")) events
          in
          let phase_names =
            List.filter_map (fun e -> assoc "name" e) slices
          in
          List.iter
            (fun want ->
              check Alcotest.bool (Printf.sprintf "trace has %s slice" want) true
                (List.mem (Json.String want) phase_names))
            [ "queue"; "build"; "execute" ];
          List.iter
            (fun e ->
              check Alcotest.bool "slice categorized as request" true
                (assoc "cat" e = Some (Json.String "request"));
              (match assoc "args" e with
              | Some (Json.Obj args) ->
                  check Alcotest.bool "slice args carry the request id" true
                    (List.assoc_opt "request" args = Some (Json.String "t1"))
              | _ -> Alcotest.fail "slice without args");
              match (assoc "ts" e, assoc "dur" e) with
              | Some (Json.Int ts), Some (Json.Int dur) ->
                  check Alcotest.bool "timestamps rebased non-negative" true
                    (ts >= 0 && dur >= 0)
              | _ -> Alcotest.fail "slice missing ts/dur")
            slices;
          (* one row per request: a thread_name metadata event names it *)
          check Alcotest.bool "request id names its trace row" true
            (List.exists
               (fun e ->
                 assoc "name" e = Some (Json.String "thread_name")
                 && (match assoc "args" e with
                    | Some (Json.Obj args) ->
                        List.assoc_opt "name" args = Some (Json.String "t1")
                    | _ -> false))
               events)
      | _ -> Alcotest.fail "trace lacks traceEvents"
    end
  | Ok _ -> Alcotest.fail "trace root not an object"
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e);
  (* the structured log correlates daemon lines with the same request id *)
  let ic = open_in log_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let logged_req =
    List.exists
      (fun l ->
        match Json.parse l with
        | Ok (Json.Obj kv) -> List.assoc_opt "req" kv = Some (Json.String "t1")
        | _ -> false)
      !lines
  in
  check Alcotest.bool "log lines carry the request id" true logged_req;
  check Alcotest.bool "every log line is one JSON object" true
    (List.for_all
       (fun l -> match Json.parse l with Ok (Json.Obj _) -> true | _ -> false)
       !lines);
  Sys.remove log_path;
  Sys.remove trace_file;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* --- one count and one timing record per request --- *)

(* a request that keeps the one shard busy while the next arrive *)
let slow_run id =
  Printf.sprintf
    {|{"type":"run","id":"%s","tenant":"t","app":"spec-bfs","scale":"medium","backend":"simulator"}|}
    id

let result_of wait_for id =
  match wait_for (function Protocol.Result o -> o.Protocol.out_id = id | _ -> false) with
  | Some (Protocol.Result o) -> o
  | _ -> Alcotest.failf "no result for %s" id

let test_stats_counts_match_scrape () =
  let config =
    {
      Server.admission = { Admission.queue_depth = 4; shed_watermark = 4; tenant_quota = 1 };
      scheduler = { Scheduler.shards = 1; max_batch = 8 };
    }
  in
  let t = Server.create ~config () in
  let respond, wait_for, _ = collector () in
  line (Server.handle_line t ~respond (slow_run "a"));
  (* over the tenant's quota while "a" runs *)
  line (Server.handle_line t ~respond (slow_run "b"));
  line (Server.handle_line t ~respond {|{"type":"run","id":"c","app":"no-such-app"}|});
  line (Server.handle_line t ~respond {|{"type":"run",|});
  ignore (result_of wait_for "a");
  List.iter
    (fun (name, n) -> check Alcotest.int name n (scraped_int t name))
    [
      ("serve_requests_accepted_total", 1);
      ("serve_requests_shed_total", 1);
      ("serve_errors_total", 2);
      ("serve_requests_completed_total", 1);
    ];
  Server.shutdown t

let test_batch_queue_is_the_response_queue () =
  let config =
    { Server.default_config with Server.scheduler = { Scheduler.shards = 1; max_batch = 8 } }
  in
  let t = Server.create ~config () in
  let respond, wait_for, _ = collector () in
  let small id =
    Printf.sprintf {|{"type":"run","id":"%s","app":"spec-bfs","scale":"small","seed":7}|} id
  in
  (* "b" and "c" queue together behind "a" and share one build *)
  line (Server.handle_line t ~respond (slow_run "a"));
  line (Server.handle_line t ~respond (small "b"));
  line (Server.handle_line t ~respond (small "c"));
  let a = result_of wait_for "a" and b = result_of wait_for "b" and c = result_of wait_for "c" in
  check Alcotest.int "b batched" 2 b.Protocol.batch;
  check Alcotest.int "c batched" 2 c.Protocol.batch;
  let q (o : Protocol.outcome) = o.Protocol.timing.Protocol.queue_ms in
  check Alcotest.bool "the second of the batch waited behind the first" true
    (q c >= b.Protocol.timing.Protocol.exec_ms);
  (* one queue sample per response: of three, the window's p50 and max
     are the middle and the largest queue_ms, at the scrape's %g *)
  check Alcotest.int "one queue sample per request" 3 (scraped_int t "serve_queue_ms_count");
  let sorted = List.sort compare [ q a; q b; q c ] in
  let g v = Printf.sprintf "%g" v in
  let scraped_g name = g (float_of_string (scraped t name)) in
  check Alcotest.string "p50 is the middle response queue_ms" (g (List.nth sorted 1))
    (scraped_g {|serve_queue_ms{quantile="0.5"}|});
  check Alcotest.string "max is the largest response queue_ms" (g (List.nth sorted 2))
    (scraped_g "serve_queue_ms_window_max");
  Server.shutdown t

(* --- loadgen percentile totality (satellite) --- *)

let test_loadgen_percentile_tiny () =
  check (Alcotest.float 1e-9) "no samples is 0" 0.0 (Loadgen.percentile_ms [] 50.0);
  check (Alcotest.float 1e-9) "no samples p99 is 0" 0.0 (Loadgen.percentile_ms [] 99.0);
  check (Alcotest.float 1e-9) "n=1 p50" 5.0 (Loadgen.percentile_ms [ 5.0 ] 50.0);
  check (Alcotest.float 1e-9) "n=1 p99 is the sample" 5.0 (Loadgen.percentile_ms [ 5.0 ] 99.0);
  check (Alcotest.float 1e-9) "n=2 p50 is the lower" 1.0 (Loadgen.percentile_ms [ 2.0; 1.0 ] 50.0);
  check (Alcotest.float 1e-9) "n=2 p99 is the max" 2.0 (Loadgen.percentile_ms [ 2.0; 1.0 ] 99.0);
  check (Alcotest.float 1e-9) "n=3 p50 is the middle" 2.0
    (Loadgen.percentile_ms [ 3.0; 1.0; 2.0 ] 50.0)

(* --- satellites: backend find UX, version --- *)

let test_unknown_backend_message () =
  match Backend.find "no-such-backend" with
  | Ok _ -> Alcotest.fail "found a backend that should not exist"
  | Error e ->
      List.iter
        (fun needle ->
          check Alcotest.bool (Printf.sprintf "mentions %s" needle) true
            (Astring.String.is_infix ~affix:needle e))
        [ "registered backends"; "simulator"; "runtime:<workers>" ];
      check Alcotest.bool "lists no parallel backend" false
        (Astring.String.is_infix ~affix:"parallel" e)

let test_unknown_backend_columns () =
  (* the longest form, "runtime (also runtime:<workers>)", sets the
     column every summary starts in *)
  match Backend.find "no-such-backend" with
  | Ok _ -> Alcotest.fail "found a backend that should not exist"
  | Error e ->
      let lines = String.split_on_char '\n' e in
      let column (b : Backend.t) =
        List.find_map (fun l -> Astring.String.find_sub ~sub:b.Backend.summary l) lines
      in
      let columns = List.map column Backend.all in
      check Alcotest.bool "every summary listed" true (List.for_all Option.is_some columns);
      check Alcotest.int "one summary column" 1 (List.length (List.sort_uniq compare columns))

let test_unknown_backend_suggests () =
  match Backend.find "simulater" with
  | Ok _ -> Alcotest.fail "typo resolved unexpectedly"
  | Error e ->
      check Alcotest.bool "did-you-mean" true
        (Astring.String.is_infix ~affix:{|did you mean "simulator"|} e)

let test_version_string () =
  check Alcotest.bool "version non-empty" true (String.length Agp_util.Version.version > 0);
  (* the handshake triple the daemon advertises *)
  let t = Server.create () in
  let respond, _, all = collector () in
  line
    (Server.handle_line t ~respond
       {|{"type":"hello","client":"t","version":"0","protocol":3}|});
  (match all () with
  | [ Protocol.Hello_ack ack ] ->
      check Alcotest.string "daemon version is the compiled-in one"
        Agp_util.Version.version ack.version
  | _ -> Alcotest.fail "no hello ack");
  Server.shutdown t

(* --- loadgen report shape --- *)

let test_saturation_report_shape () =
  let s =
    {
      Loadgen.label = "rate_50";
      offered_rps = 50.0;
      duration_s = 2.0;
      sent = 100;
      ok = 90;
      failed = 0;
      shed = 10;
      lost = 0;
      achieved_rps = 45.0;
      p50_ms = 4.0;
      p90_ms = 9.0;
      p99_ms = 20.0;
      max_ms = 25.0;
    }
  in
  let doc = Loadgen.report ~meta:[ ("app", "spec-bfs") ] [ s ] in
  check Alcotest.string "kind" "serve-saturation" doc.Agp_obs.Report.kind;
  (* flattens into diffable metrics with gated key tokens *)
  let flat = Agp_obs.Report.flatten doc in
  let has k = List.mem_assoc k flat in
  List.iter
    (fun k -> check Alcotest.bool (Printf.sprintf "flattened %s" k) true (has k))
    [ "rate_50.achieved_rps"; "rate_50.p99_ms"; "rate_50.shed_rate" ];
  (* round-trips through the envelope validator *)
  match Agp_obs.Report.of_string (Agp_obs.Report.to_string doc) with
  | Ok back -> check Alcotest.bool "envelope round-trip" true (back = doc)
  | Error e -> Alcotest.failf "saturation report rejected: %s" e

let test_diff_gates_serving_regression () =
  let mk ~rps ~p99 ~shed =
    Loadgen.report
      [
        {
          Loadgen.label = "rate_100";
          offered_rps = 100.0;
          duration_s = 2.0;
          sent = 200;
          ok = 200 - shed;
          failed = 0;
          shed;
          lost = 0;
          achieved_rps = rps;
          p50_ms = 2.0;
          p90_ms = 5.0;
          p99_ms = p99;
          max_ms = p99 +. 2.0;
        };
      ]
  in
  let base = mk ~rps:100.0 ~p99:10.0 ~shed:0 in
  let slower = mk ~rps:60.0 ~p99:45.0 ~shed:40 in
  let d = Agp_obs.Diff.compare ~threshold:0.05 base slower in
  check Alcotest.bool "throughput collapse regresses" true (Agp_obs.Diff.regressed d);
  let clean = Agp_obs.Diff.compare ~threshold:0.05 base base in
  check Alcotest.bool "identical clean" false (Agp_obs.Diff.regressed clean)

let () =
  Alcotest.run "agp_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "wire lines" `Quick test_wire_lines;
          Alcotest.test_case "run defaults" `Quick test_run_defaults;
          Alcotest.test_case "positioned parse errors" `Quick test_parse_error_is_positioned;
          Alcotest.test_case "semantic errors echo id" `Quick test_semantic_error_echoes_id;
          qtest fuzz_malformed_lines;
          qtest fuzz_mutated_lines;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue fills then sheds" `Quick test_queue_fills_then_sheds;
          Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
          Alcotest.test_case "drain and recover" `Quick test_drain_and_recover;
          Alcotest.test_case "batch compatibility" `Quick test_batch_compatibility;
          Alcotest.test_case "closed sheds draining" `Quick test_close_sheds_draining;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and hello" `Quick test_ping_and_hello;
          Alcotest.test_case "stats request removed" `Quick test_stats_request_removed;
          Alcotest.test_case "bad run requests" `Quick test_bad_run_requests;
          Alcotest.test_case "run to completion" `Quick test_run_to_completion;
          Alcotest.test_case "watermark zero sheds" `Quick test_watermark_zero_sheds_everything;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_request_drains;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_request;
          Alcotest.test_case "request trace capture" `Quick test_request_trace_capture;
          Alcotest.test_case "stats counts match the scrape" `Quick
            test_stats_counts_match_scrape;
          Alcotest.test_case "batch queue is the response queue" `Quick
            test_batch_queue_is_the_response_queue;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "unknown backend message" `Quick test_unknown_backend_message;
          Alcotest.test_case "unknown backend columns" `Quick test_unknown_backend_columns;
          Alcotest.test_case "unknown backend suggestion" `Quick test_unknown_backend_suggests;
          Alcotest.test_case "version handshake" `Quick test_version_string;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "saturation report shape" `Quick test_saturation_report_shape;
          Alcotest.test_case "diff gates regression" `Quick test_diff_gates_serving_regression;
          Alcotest.test_case "percentile tiny-n" `Quick test_loadgen_percentile_tiny;
        ] );
    ]
