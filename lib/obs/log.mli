(** Leveled structured logging as NDJSON, with request-id correlation.

    Every emitted line is one JSON object:
    [{"ts":<epoch s>,"level":"info","msg":"...","req":"r12",...}] —
    [req] carries the serve request id so daemon log lines join against
    per-request trace spans.  Lines are
    written under a mutex and flushed whole, so concurrent shard
    threads never interleave partial lines.

    The clock is injected at {!create} (serve passes
    [Unix.gettimeofday]); agp_obs itself stays wall-clock free. *)

type level =
  | Debug
  | Info
  | Warn
  | Error

val level_name : level -> string

val level_of_string : string -> (level, string) result
(** Case-insensitive; accepts ["warning"] for [Warn]. *)

type t

val create : ?level:level -> clock:(unit -> float) -> out:out_channel -> unit -> t
(** Logger writing NDJSON to [out] (default threshold [Info]). *)

val null : t
(** Drops everything; the default for library callers not given a
    logger. *)

val set_level : t -> level -> unit

val level : t -> level

val enabled : t -> level -> bool
(** False for {!null} and for levels below the threshold — guard
    expensive field construction with this. *)

val log : t -> level -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit
(** Emit one line.  [fields] shadowing the envelope keys
    ([ts]/[level]/[msg]/[req]) are dropped. *)

val debug : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit

val info : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit

val warn : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit

val error : t -> ?req:string -> ?fields:(string * Json.t) list -> string -> unit
