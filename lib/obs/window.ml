(* Rolling-window sample store: percentiles over the last [span_s]
   seconds of observations, not over the whole process lifetime.  The
   clock is always passed in by the caller — agp_obs stays wall-clock
   free, so windows are exactly reproducible in tests. *)

module Stats = Agp_util.Stats

(* Live samples sit oldest-first in a ring of two unboxed float arrays
   ([ats] times, [vals] values): the oldest at [head], [n] of them.  The
   ring doubles up to [max_samples] as it fills, so an idle window
   holds little; pruning and the cap both drop from the old end, O(1)
   amortized per observation. *)
type t = {
  w_name : string;
  span_s : float;
  max_samples : int;
  mutex : Mutex.t;
  mutable ats : float array;
  mutable vals : float array;
  mutable head : int;
  mutable n : int;
  mutable lifetime : int;
  mutable dropped : int;
}

let create ?(max_samples = 65536) ~span_s name =
  if span_s <= 0.0 then invalid_arg "Window.create: span_s must be positive";
  if max_samples < 1 then invalid_arg "Window.create: max_samples must be >= 1";
  let cap = min max_samples 16 in
  {
    w_name = name;
    span_s;
    max_samples;
    mutex = Mutex.create ();
    ats = Array.make cap 0.0;
    vals = Array.make cap 0.0;
    head = 0;
    n = 0;
    lifetime = 0;
    dropped = 0;
  }

(* ring slot of the [i]-th oldest live sample *)
let slot t i = (t.head + i) mod Array.length t.ats

let drop_oldest t =
  t.head <- slot t 1;
  t.n <- t.n - 1

(* drop samples older than [now - span_s] from the old end *)
let prune t ~now =
  let horizon = now -. t.span_s in
  while t.n > 0 && t.ats.(t.head) < horizon do
    drop_oldest t
  done

(* double the ring (up to [max_samples]), unrolling it oldest-first *)
let grow t =
  let cap = min t.max_samples (2 * Array.length t.ats) in
  let unroll a = Array.init cap (fun i -> if i < t.n then a.(slot t i) else 0.0) in
  t.ats <- unroll t.ats;
  t.vals <- unroll t.vals;
  t.head <- 0

let observe t ~now v =
  Mutex.protect t.mutex (fun () ->
      prune t ~now;
      t.lifetime <- t.lifetime + 1;
      if t.n >= t.max_samples then begin
        (* cap memory under overload: drop the oldest live sample *)
        drop_oldest t;
        t.dropped <- t.dropped + 1
      end
      else if t.n = Array.length t.ats then grow t;
      let k = slot t t.n in
      t.ats.(k) <- now;
      t.vals.(k) <- v;
      t.n <- t.n + 1)

type summary = {
  s_name : string;
  s_count : int;
  s_lifetime : int;
  s_dropped : int;
  s_rate_per_sec : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

let summary t ~now =
  Mutex.protect t.mutex (fun () ->
      prune t ~now;
      let n = t.n in
      let vs = Array.init n (fun i -> t.vals.(slot t i)) in
      let pct = Stats.percentiles_nearest vs in
      {
        s_name = t.w_name;
        s_count = n;
        s_lifetime = t.lifetime;
        s_dropped = t.dropped;
        s_rate_per_sec = float_of_int n /. t.span_s;
        s_p50 = pct 50.0;
        s_p90 = pct 90.0;
        s_p99 = pct 99.0;
        s_max = (if n = 0 then 0.0 else Stats.maximum vs);
      })
