(* Prometheus text exposition (v0.0.4) of one metrics registry plus a
   list of rolling windows.  The registry answers "since boot", the
   windows answer "right now". *)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Registry names
   use dots ("serve.requests_total"); map anything illegal to '_'. *)
let sanitize name =
  let ok i c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
    | '0' .. '9' -> i > 0
    | _ -> false
  in
  String.mapi (fun i c -> if ok i c then c else '_') name

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let add_metric buf m =
  match m with
  | Metrics.Counter_value (name, count) ->
      let n = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n count)
  | Metrics.Gauge_value (name, v) ->
      let n = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (fnum v))
  | Metrics.Histogram_value (name, h) ->
      let n = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      (* registry buckets are per-bucket counts; Prometheus buckets are
         cumulative and always end with le="+Inf" *)
      let cum = ref 0 in
      List.iter
        (fun (bound, c) ->
          cum := !cum + c;
          let le =
            match bound with
            | Some b -> string_of_int b
            | None -> "+Inf"
          in
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n le !cum))
        (Metrics.bucket_counts h);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n (Metrics.sample_sum h));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Metrics.sample_count h))

let add_window buf ~now w =
  let s = Window.summary w ~now in
  let n = sanitize s.Window.s_name in
  Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
  List.iter
    (fun (q, v) ->
      Buffer.add_string buf (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q (fnum v)))
    [ ("0.5", s.Window.s_p50); ("0.9", s.Window.s_p90); ("0.99", s.Window.s_p99) ];
  Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.Window.s_lifetime);
  Buffer.add_string buf
    (Printf.sprintf "# TYPE %s_window_rate_per_sec gauge\n%s_window_rate_per_sec %s\n" n n
       (fnum s.Window.s_rate_per_sec));
  Buffer.add_string buf
    (Printf.sprintf "# TYPE %s_window_max gauge\n%s_window_max %s\n" n n (fnum s.Window.s_max))

let to_prometheus registry windows ~now =
  let buf = Buffer.create 1024 in
  List.iter (add_metric buf) (Metrics.export registry);
  List.iter (add_window buf ~now) windows;
  Buffer.contents buf
