type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_over_link : int;
}

type t = {
  cfg : Config.t;
  tags : int array; (* -1 = invalid; direct mapped *)
  n_lines : int;
  line_bytes : int;
  hit_latency : int;
  miss_latency : int;
  line_time : float; (* link occupancy of one line transfer, cycles *)
  link_busy_until : float array; (* one unboxed cell: the QPI token bucket *)
  st : stats;
  sink : Agp_obs.Sink.t;
}

let create ?(sink = Agp_obs.Sink.null) (cfg : Config.t) =
  let n_lines = cfg.Config.cache_bytes / cfg.Config.line_bytes in
  {
    cfg;
    tags = Array.make n_lines (-1);
    n_lines;
    line_bytes = cfg.Config.line_bytes;
    hit_latency = cfg.Config.hit_latency;
    miss_latency = cfg.Config.miss_latency;
    line_time = float_of_int cfg.Config.line_bytes /. Config.bytes_per_cycle cfg;
    link_busy_until = Array.make 1 0.0;
    st = { reads = 0; writes = 0; hits = 0; misses = 0; bytes_over_link = 0 };
    sink;
  }

let access t ~now ~addr ~is_write =
  let st = t.st in
  if is_write then st.writes <- st.writes + 1 else st.reads <- st.reads + 1;
  let line = addr / t.line_bytes in
  let slot = line mod t.n_lines in
  if t.tags.(slot) = line then begin
    st.hits <- st.hits + 1;
    if Agp_obs.Sink.enabled t.sink then
      Agp_obs.Sink.emit t.sink ~ts:now (Agp_obs.Event.Cache_access { addr; is_write; hit = true });
    now + t.hit_latency
  end
  else begin
    st.misses <- st.misses + 1;
    t.tags.(slot) <- line;
    (* wait for a link slot, then the round trip ([Float.max] would box
       both arguments; the comparison keeps everything unboxed) *)
    let now_f = float_of_int now in
    let busy = t.link_busy_until.(0) in
    let start = if now_f >= busy then now_f else busy in
    t.link_busy_until.(0) <- start +. t.line_time;
    st.bytes_over_link <- st.bytes_over_link + t.line_bytes;
    let completion = int_of_float (Float.ceil (start +. t.line_time)) + t.miss_latency in
    if Agp_obs.Sink.enabled t.sink then begin
      Agp_obs.Sink.emit t.sink ~ts:now (Agp_obs.Event.Cache_access { addr; is_write; hit = false });
      Agp_obs.Sink.emit t.sink ~ts:now
        (Agp_obs.Event.Link_transfer
           { bytes = t.line_bytes; start = int_of_float start; finish = completion })
    end;
    completion
  end

(* issue mlp at a time; each wave starts when the previous wave
   completes *)
let access_burst t ~now ~n ~addr ~is_write =
  let mlp = max 1 t.cfg.Config.mlp in
  let start = ref now and i = ref 0 in
  while !i < n do
    let wave_end = min n (!i + mlp) and worst = ref !start in
    for k = !i to wave_end - 1 do
      let c = access t ~now:!start ~addr:(addr k) ~is_write:(is_write k) in
      if c > !worst then worst := c
    done;
    start := !worst;
    i := wave_end
  done;
  !start

let stats t = t.st

let hit_rate t =
  let total = t.st.hits + t.st.misses in
  if total = 0 then 1.0 else float_of_int t.st.hits /. float_of_int total

let reset_stats t =
  let st = t.st in
  st.reads <- 0;
  st.writes <- 0;
  st.hits <- 0;
  st.misses <- 0;
  st.bytes_over_link <- 0;
  t.link_busy_until.(0) <- 0.0
