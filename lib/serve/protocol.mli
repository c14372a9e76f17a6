(** The serve wire protocol: newline-delimited JSON over a Unix or TCP
    socket, one request or response object per line.

    Requests are small and flat; responses carry the uniform run
    verdict (mirroring the [agp run] exit codes), server-side timing
    decomposition, and — on request — the full schema-versioned
    {!Agp_obs.Report} JSON inline, so the daemon's wire format is the
    same artifact the rest of the toolkit archives and diffs.

    Compatibility is checked at handshake time: the client's [hello]
    names the protocol version it speaks, the server's [hello] reply
    carries its own protocol and obs-report schema versions (see
    [agp version]). *)

module Json = Agp_obs.Json

val protocol_version : int
(** v2: added the [metrics] request/reply pair (Prometheus text
    exposition of the daemon's live telemetry).  v3: removed the
    [stats] request/reply; the [metrics] scrape is the only live view
    of the daemon. *)

(** {1 Requests} *)

type hello = { client : string; version : string; protocol : int }

type run_request = {
  id : string;  (** client-chosen; echoed in the matching response *)
  tenant : string;
  app : string;  (** a {!Agp_exp.Workloads} name, e.g. ["spec-bfs"] *)
  scale : string;  (** ["small"] / ["medium"] / ["default"] *)
  seed : int;
  backend : string;  (** an {!Agp_backend.Backend.find} name *)
  obs : bool;  (** attach the obs run report to the result *)
}

type request =
  | Hello of hello
  | Run of run_request
  | Metrics
      (** Prometheus text exposition of the daemon's registry and
          rolling windows ({!Agp_obs.Telemetry}) *)
  | Ping
  | Shutdown  (** drain admitted work, reply, stop the daemon *)

(** {1 Responses} *)

type verdict =
  | Valid
  | Invalid of string
  | Liveness of string  (** deadlock or step-limit in the substrate *)
  | Unsupported of string  (** backend refused the app *)

val exit_code : verdict -> int
(** The [agp run] exit-code equivalent: 0 valid, 1 invalid/unsupported,
    3 liveness. *)

type timing = {
  queue_ms : float;  (** admission to execute start, less [build_ms] *)
  build_ms : float;  (** workload construction, the batch's (shared) *)
  exec_ms : float;  (** substrate execution *)
}

type outcome = {
  out_id : string;
  verdict : verdict;
  backend : string;  (** resolved backend name *)
  seconds : float option;  (** substrate time, when the backend is timed *)
  tasks : int option;
  batch : int;  (** size of the batch this request rode in *)
  shard : int;  (** worker shard that executed it *)
  timing : timing;
  report : Json.t option;  (** obs run report, when requested *)
}

type shed_reason =
  | Queue_full of { depth : int; watermark : int }
  | Quota_exceeded of { tenant : string; in_flight : int; quota : int }
  | Draining  (** server is shutting down *)

type error_kind =
  | Parse  (** malformed JSON line; [line]/[col] point at the byte *)
  | Bad_request  (** well-formed but invalid (unknown app/backend/...) *)
  | Incompatible  (** protocol version mismatch at handshake *)
  | Internal  (** substrate crash — the daemon survives it *)

type response =
  | Hello_ack of { server : string; version : string; protocol : int; schema : int }
  | Result of outcome
  | Overloaded of { id : string; reason : shed_reason; retry_after_ms : float }
  | Metrics_reply of { text : string }
      (** Prometheus exposition; transported as one JSON string so the
          wire stays line-delimited *)
  | Pong
  | Shutdown_ack of { completed : int }
  | Error_reply of {
      id : string option;
      kind : error_kind;
      message : string;
      line : int option;
      col : int option;
    }

(** {1 Codec} *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val response_of_string : string -> (response, string) result

val read_request : string -> (request, response) result
(** Decode one wire line.  On failure the error is the exact typed
    {!Error_reply} response the server should send back: parse failures carry
    the line/column from {!Json.parse_located}, semantic failures echo
    the request id when one was present. *)

val write : response -> string
(** One compact JSON line (no trailing newline). *)

val write_request : request -> string
