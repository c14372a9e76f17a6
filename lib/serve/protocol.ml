module Json = Agp_obs.Json

(* v2: metrics request/reply (Prometheus text exposition).
   v3: the stats request/reply is gone; the metrics scrape is the
   daemon's only live view. *)
let protocol_version = 3

type hello = { client : string; version : string; protocol : int }

type run_request = {
  id : string;
  tenant : string;
  app : string;
  scale : string;
  seed : int;
  backend : string;
  obs : bool;
}

type request =
  | Hello of hello
  | Run of run_request
  | Metrics
  | Ping
  | Shutdown

type verdict =
  | Valid
  | Invalid of string
  | Liveness of string
  | Unsupported of string

let exit_code = function
  | Valid -> 0
  | Invalid _ -> 1
  | Liveness _ -> 3
  | Unsupported _ -> 1

type timing = { queue_ms : float; build_ms : float; exec_ms : float }

type outcome = {
  out_id : string;
  verdict : verdict;
  backend : string;
  seconds : float option;
  tasks : int option;
  batch : int;
  shard : int;
  timing : timing;
  report : Json.t option;
}

type shed_reason =
  | Queue_full of { depth : int; watermark : int }
  | Quota_exceeded of { tenant : string; in_flight : int; quota : int }
  | Draining

type error_kind = Parse | Bad_request | Incompatible | Internal

type response =
  | Hello_ack of { server : string; version : string; protocol : int; schema : int }
  | Result of outcome
  | Overloaded of { id : string; reason : shed_reason; retry_after_ms : float }
  | Metrics_reply of { text : string }
  | Pong
  | Shutdown_ack of { completed : int }
  | Error_reply of {
      id : string option;
      kind : error_kind;
      message : string;
      line : int option;
      col : int option;
    }

(* --- encoding --- *)

let opt field conv = function
  | Some v -> [ (field, conv v) ]
  | None -> []

let request_to_json = function
  | Hello h ->
      Json.Obj
        [
          ("type", Json.String "hello");
          ("client", Json.String h.client);
          ("version", Json.String h.version);
          ("protocol", Json.Int h.protocol);
        ]
  | Run r ->
      Json.Obj
        [
          ("type", Json.String "run");
          ("id", Json.String r.id);
          ("tenant", Json.String r.tenant);
          ("app", Json.String r.app);
          ("scale", Json.String r.scale);
          ("seed", Json.Int r.seed);
          ("backend", Json.String r.backend);
          ("obs", Json.Bool r.obs);
        ]
  | Metrics -> Json.Obj [ ("type", Json.String "metrics") ]
  | Ping -> Json.Obj [ ("type", Json.String "ping") ]
  | Shutdown -> Json.Obj [ ("type", Json.String "shutdown") ]

let verdict_fields = function
  | Valid -> [ ("status", Json.String "valid") ]
  | Invalid d -> [ ("status", Json.String "invalid"); ("detail", Json.String d) ]
  | Liveness d -> [ ("status", Json.String "liveness"); ("detail", Json.String d) ]
  | Unsupported d -> [ ("status", Json.String "unsupported"); ("detail", Json.String d) ]

let shed_fields = function
  | Queue_full { depth; watermark } ->
      [
        ("reason", Json.String "queue-full");
        ("depth", Json.Int depth);
        ("watermark", Json.Int watermark);
      ]
  | Quota_exceeded { tenant; in_flight; quota } ->
      [
        ("reason", Json.String "quota");
        ("tenant", Json.String tenant);
        ("in_flight", Json.Int in_flight);
        ("quota", Json.Int quota);
      ]
  | Draining -> [ ("reason", Json.String "draining") ]

let kind_name = function
  | Parse -> "parse"
  | Bad_request -> "bad-request"
  | Incompatible -> "incompatible"
  | Internal -> "internal"

let response_to_json = function
  | Hello_ack a ->
      Json.Obj
        [
          ("type", Json.String "hello");
          ("server", Json.String a.server);
          ("version", Json.String a.version);
          ("protocol", Json.Int a.protocol);
          ("schema", Json.Int a.schema);
        ]
  | Result o ->
      Json.Obj
        (List.concat
           [
             [ ("type", Json.String "result"); ("id", Json.String o.out_id) ];
             verdict_fields o.verdict;
             [ ("exit_code", Json.Int (exit_code o.verdict)) ];
             [ ("backend", Json.String o.backend) ];
             opt "seconds" (fun s -> Json.Float s) o.seconds;
             opt "tasks" (fun n -> Json.Int n) o.tasks;
             [
               ("batch", Json.Int o.batch);
               ("shard", Json.Int o.shard);
               ("queue_ms", Json.Float o.timing.queue_ms);
               ("build_ms", Json.Float o.timing.build_ms);
               ("exec_ms", Json.Float o.timing.exec_ms);
             ];
             opt "report" Fun.id o.report;
           ])
  | Overloaded o ->
      Json.Obj
        (List.concat
           [
             [ ("type", Json.String "overloaded"); ("id", Json.String o.id) ];
             shed_fields o.reason;
             [ ("retry_after_ms", Json.Float o.retry_after_ms) ];
           ])
  | Metrics_reply m ->
      Json.Obj [ ("type", Json.String "metrics"); ("text", Json.String m.text) ]
  | Pong -> Json.Obj [ ("type", Json.String "pong") ]
  | Shutdown_ack a ->
      Json.Obj [ ("type", Json.String "shutdown"); ("completed", Json.Int a.completed) ]
  | Error_reply e ->
      Json.Obj
        (List.concat
           [
             [ ("type", Json.String "error") ];
             opt "id" (fun s -> Json.String s) e.id;
             [ ("kind", Json.String (kind_name e.kind)); ("message", Json.String e.message) ];
             opt "line" (fun n -> Json.Int n) e.line;
             opt "col" (fun n -> Json.Int n) e.col;
           ])

(* --- decoding --- *)

let ( let* ) = Result.bind

let str_field j k =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" k)

let str_default j k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_str)
let int_default j k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_int)

let int_field j k =
  match Option.bind (Json.member k j) Json.to_int with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing integer field %S" k)

let float_field j k =
  match Option.bind (Json.member k j) Json.to_float with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing numeric field %S" k)

let bool_default j k d =
  match Json.member k j with
  | Some (Json.Bool b) -> b
  | _ -> d

let request_of_json j =
  match Option.bind (Json.member "type" j) Json.to_str with
  | None -> Error "request needs a string \"type\" field (hello|run|metrics|ping|shutdown)"
  | Some "hello" ->
      let* protocol = int_field j "protocol" in
      Ok
        (Hello
           {
             client = str_default j "client" "unknown";
             version = str_default j "version" "unknown";
             protocol;
           })
  | Some "run" ->
      let* id = str_field j "id" in
      let* app = str_field j "app" in
      Ok
        (Run
           {
             id;
             tenant = str_default j "tenant" "anon";
             app;
             scale = str_default j "scale" "small";
             seed = int_default j "seed" 42;
             backend = str_default j "backend" "simulator";
             obs = bool_default j "obs" false;
           })
  | Some "metrics" -> Ok Metrics
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (Printf.sprintf "unknown request type %S" other)

let verdict_of_json j =
  let detail () = str_default j "detail" "" in
  match Option.bind (Json.member "status" j) Json.to_str with
  | Some "valid" -> Ok Valid
  | Some "invalid" -> Ok (Invalid (detail ()))
  | Some "liveness" -> Ok (Liveness (detail ()))
  | Some "unsupported" -> Ok (Unsupported (detail ()))
  | Some other -> Error (Printf.sprintf "unknown result status %S" other)
  | None -> Error "result needs a string \"status\" field"

let shed_of_json j =
  match Option.bind (Json.member "reason" j) Json.to_str with
  | Some "queue-full" ->
      let* depth = int_field j "depth" in
      let* watermark = int_field j "watermark" in
      Ok (Queue_full { depth; watermark })
  | Some "quota" ->
      let* tenant = str_field j "tenant" in
      let* in_flight = int_field j "in_flight" in
      let* quota = int_field j "quota" in
      Ok (Quota_exceeded { tenant; in_flight; quota })
  | Some "draining" -> Ok Draining
  | Some other -> Error (Printf.sprintf "unknown shed reason %S" other)
  | None -> Error "overloaded response needs a string \"reason\" field"

let kind_of_name = function
  | "parse" -> Ok Parse
  | "bad-request" -> Ok Bad_request
  | "incompatible" -> Ok Incompatible
  | "internal" -> Ok Internal
  | other -> Error (Printf.sprintf "unknown error kind %S" other)

let response_of_json j =
  match Option.bind (Json.member "type" j) Json.to_str with
  | None -> Error "response needs a string \"type\" field"
  | Some "hello" ->
      let* protocol = int_field j "protocol" in
      let* schema = int_field j "schema" in
      Ok
        (Hello_ack
           {
             server = str_default j "server" "unknown";
             version = str_default j "version" "unknown";
             protocol;
             schema;
           })
  | Some "result" ->
      let* out_id = str_field j "id" in
      let* verdict = verdict_of_json j in
      let* backend = str_field j "backend" in
      let* batch = int_field j "batch" in
      let* shard = int_field j "shard" in
      let* queue_ms = float_field j "queue_ms" in
      let* build_ms = float_field j "build_ms" in
      let* exec_ms = float_field j "exec_ms" in
      Ok
        (Result
           {
             out_id;
             verdict;
             backend;
             seconds = Option.bind (Json.member "seconds" j) Json.to_float;
             tasks = Option.bind (Json.member "tasks" j) Json.to_int;
             batch;
             shard;
             timing = { queue_ms; build_ms; exec_ms };
             report = Json.member "report" j;
           })
  | Some "overloaded" ->
      let* id = str_field j "id" in
      let* reason = shed_of_json j in
      let* retry_after_ms = float_field j "retry_after_ms" in
      Ok (Overloaded { id; reason; retry_after_ms })
  | Some "metrics" ->
      let* text = str_field j "text" in
      Ok (Metrics_reply { text })
  | Some "pong" -> Ok Pong
  | Some "shutdown" ->
      let* completed = int_field j "completed" in
      Ok (Shutdown_ack { completed })
  | Some "error" ->
      let* kind =
        match Option.bind (Json.member "kind" j) Json.to_str with
        | Some k -> kind_of_name k
        | None -> Error "error response needs a string \"kind\" field"
      in
      let* message = str_field j "message" in
      Ok
        (Error_reply
           {
             id = Option.bind (Json.member "id" j) Json.to_str;
             kind;
             message;
             line = Option.bind (Json.member "line" j) Json.to_int;
             col = Option.bind (Json.member "col" j) Json.to_int;
           })
  | Some other -> Error (Printf.sprintf "unknown response type %S" other)

let response_of_string s =
  match Json.parse s with
  | Error e -> Error e
  | Ok j -> response_of_json j

let read_request line =
  match Json.parse_located line with
  | Error e ->
      Error
        (Error_reply
           {
             id = None;
             kind = Parse;
             message = e.Json.err_reason;
             line = Some e.Json.err_line;
             col = Some e.Json.err_col;
           })
  | Ok j -> begin
      match request_of_json j with
      | Ok r -> Ok r
      | Error msg ->
          Error
            (Error_reply
               {
                 id = Option.bind (Json.member "id" j) Json.to_str;
                 kind = Bad_request;
                 message = msg;
                 line = None;
                 col = None;
               })
    end

let write r = Json.to_string (response_to_json r)
let write_request r = Json.to_string (request_to_json r)
