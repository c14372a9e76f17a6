(** Per-request Chrome trace capture for the serve daemon.

    This module is only the capture: a lock, a cap on the number of
    requests, and the rebase of epoch seconds to microseconds since the
    tracer's creation.  Shard threads {!record} each request's phase
    slices at the boundaries of its {!Scheduler.clock} — queue from
    admission to the batch's build start, build, and execute — so for
    the k-th request of a batch the wait behind its siblings shows as
    the gap between build and execute (the [queue_ms] of its response
    counts it).  {!flush} hands the capture to
    {!Agp_obs.Chrome_trace.requests_to_json} and writes
    [<dir>/serve-trace.json] when the daemon drains; it opens directly
    in Perfetto. *)

type t

val create : ?max_requests:int -> dir:string -> unit -> t
(** Capture at most [max_requests] (default 10000) requests; beyond
    that new requests are counted in {!dropped} instead of growing the
    capture without bound.  [dir] is created on {!flush}. *)

val record :
  t -> id:string -> shard:int -> batch:int -> phases:(string * float * float) list -> unit
(** [record t ~id ~shard ~batch ~phases] adds one request's spans;
    each phase is [(name, start, finish)] in epoch seconds.
    Thread-safe. *)

val request_count : t -> int

val dropped : t -> int

val flush : t -> (string, string) result
(** Write the capture (creating [dir] if needed); returns the file
    path.  Subsequent records keep accumulating — flush again for a
    later snapshot. *)
