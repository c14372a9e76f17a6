(** The problem-independent memory subsystem of §5.2: a direct-mapped
    on-FPGA cache (HARP's CCI cache) in front of a bandwidth-limited
    QPI link to host DRAM.

    The model is cycle-accurate at the request level: hits cost the
    fixed hit latency; misses wait for a link slot (a token bucket at
    the configured GB/s) plus the round-trip latency.  It is the
    bottleneck the paper identifies, and the component scaled by the
    Fig. 10 bandwidth sweep. *)

type t

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_over_link : int;
}

val create : ?sink:Agp_obs.Sink.t -> Config.t -> t
(** [sink] (default {!Agp_obs.Sink.null}) receives a [Cache_access]
    event per request and a [Link_transfer] per miss, timestamped at
    the request's issue cycle. *)

val access : t -> now:int -> addr:int -> is_write:bool -> int
(** Completion cycle of a single request issued at [now]. *)

val access_burst :
  t -> now:int -> n:int -> addr:(int -> int) -> is_write:(int -> bool) -> int
(** Completion of a kernel's burst of [n] requests, the [k]-th at
    [addr k]: they issue in order, [Config.mlp] at a time, each wave
    when the previous one completes. *)

val stats : t -> stats

val hit_rate : t -> float

val reset_stats : t -> unit
