type probe = {
  in_flight : int;
  pending : int;
  active_ops : int;
  mem_hits : int;
  mem_misses : int;
  link_bytes : int;
}

let zero_probe =
  { in_flight = 0; pending = 0; active_ops = 0; mem_hits = 0; mem_misses = 0; link_bytes = 0 }

type sample = {
  s_cycle : int;
  s_in_flight : int;
  s_pending : int;
  s_utilization : float;
  s_hit_rate : float;
  s_link_bytes : int;
  s_link_util : float;
}

type t = {
  interval : int;
  mutable total_stage_ops : int;
  mutable bytes_per_cycle : float;
  mutable last_cycle : int;
  mutable next_boundary : int;
  mutable prev : probe;
  mutable rev_samples : sample list;
  mutable n_samples : int;
}

let create ?(interval = 256) () =
  if interval <= 0 then invalid_arg "Timeline.create: interval must be positive";
  {
    interval;
    total_stage_ops = 0;
    bytes_per_cycle = 0.0;
    last_cycle = 0;
    next_boundary = interval;
    prev = zero_probe;
    rev_samples = [];
    n_samples = 0;
  }

let interval t = t.interval

let start t ~total_stage_ops ~bytes_per_cycle =
  t.total_stage_ops <- total_stage_ops;
  t.bytes_per_cycle <- bytes_per_cycle;
  t.last_cycle <- 0;
  t.next_boundary <- t.interval;
  t.prev <- zero_probe;
  t.rev_samples <- [];
  t.n_samples <- 0

let due t ~upto = upto >= t.next_boundary

let record_at t ~cycle p =
  let dt = cycle - t.last_cycle in
  let d_ops = p.active_ops - t.prev.active_ops in
  let d_hits = p.mem_hits - t.prev.mem_hits in
  let d_misses = p.mem_misses - t.prev.mem_misses in
  let d_bytes = p.link_bytes - t.prev.link_bytes in
  let utilization =
    if dt <= 0 || t.total_stage_ops = 0 then 0.0
    else float_of_int d_ops /. float_of_int (dt * t.total_stage_ops)
  in
  let accesses = d_hits + d_misses in
  let hit_rate = if accesses = 0 then 1.0 else float_of_int d_hits /. float_of_int accesses in
  let link_util =
    if dt <= 0 || t.bytes_per_cycle <= 0.0 then 0.0
    else float_of_int d_bytes /. (t.bytes_per_cycle *. float_of_int dt)
  in
  t.rev_samples <-
    {
      s_cycle = cycle;
      s_in_flight = p.in_flight;
      s_pending = p.pending;
      s_utilization = utilization;
      s_hit_rate = hit_rate;
      s_link_bytes = d_bytes;
      s_link_util = link_util;
    }
    :: t.rev_samples;
  t.n_samples <- t.n_samples + 1;
  t.last_cycle <- cycle;
  t.prev <- p

let tick t ~upto p =
  while t.next_boundary <= upto do
    record_at t ~cycle:t.next_boundary p;
    t.next_boundary <- t.next_boundary + t.interval
  done

let finish t ~cycles p =
  tick t ~upto:cycles p;
  if cycles > t.last_cycle then record_at t ~cycle:cycles p

let samples t = List.rev t.rev_samples

let sample_count t = t.n_samples

let sample_json s =
  Json.Obj
    [
      ("cycle", Json.Int s.s_cycle);
      ("in_flight", Json.Int s.s_in_flight);
      ("pending", Json.Int s.s_pending);
      ("utilization", Json.Float s.s_utilization);
      ("cache_hit_rate", Json.Float s.s_hit_rate);
      ("link_bytes", Json.Int s.s_link_bytes);
      ("link_util", Json.Float s.s_link_util);
    ]

let to_json t =
  Json.Obj
    [
      ("interval", Json.Int t.interval);
      ("samples", Json.List (List.map sample_json (samples t)));
    ]

let summary_json t =
  let ss = samples t in
  let n = List.length ss in
  let maxi f = List.fold_left (fun acc s -> max acc (f s)) 0 ss in
  let meanf f =
    if n = 0 then 0.0 else List.fold_left (fun acc s -> acc +. f s) 0.0 ss /. float_of_int n
  in
  Json.Obj
    [
      ("interval", Json.Int t.interval);
      ("samples", Json.Int n);
      ("peak_in_flight", Json.Int (maxi (fun s -> s.s_in_flight)));
      ("peak_pending", Json.Int (maxi (fun s -> s.s_pending)));
      ("mean_utilization", Json.Float (meanf (fun s -> s.s_utilization)));
      ("mean_hit_rate", Json.Float (meanf (fun s -> s.s_hit_rate)));
      ("mean_link_util", Json.Float (meanf (fun s -> s.s_link_util)));
      ("total_link_bytes", Json.Int (List.fold_left (fun acc s -> acc + s.s_link_bytes) 0 ss));
    ]
