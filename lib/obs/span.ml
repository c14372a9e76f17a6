module Stats = Agp_util.Stats

type summary = {
  sp_phase : string;
  sp_count : int;
  sp_mean_ms : float;
  sp_p50_ms : float;
  sp_p90_ms : float;
  sp_p99_ms : float;
  sp_max_ms : float;
}

(* Phases in first-recorded order; each phase accumulates raw durations
   (newest first) so percentiles are exact, not histogram estimates,
   plus a running count and sum so the mean costs O(1).  Request counts
   are bounded by admission, so the raw series stays small relative to
   the work it describes. *)
type phase_cell = { name : string; mutable samples : float list; mutable n : int; mutable sum : float }

type t = { mutex : Mutex.t; mutable phases : phase_cell list (* reverse order *) }

let create () = { mutex = Mutex.create (); phases = [] }

let find_cell t phase = List.find_opt (fun c -> c.name = phase) t.phases

let record t ~phase ms =
  Mutex.protect t.mutex (fun () ->
      match find_cell t phase with
      | Some c ->
          c.samples <- ms :: c.samples;
          c.n <- c.n + 1;
          c.sum <- c.sum +. ms
      | None -> t.phases <- { name = phase; samples = [ ms ]; n = 1; sum = ms } :: t.phases)

let count t ~phase =
  Mutex.protect t.mutex (fun () ->
      match find_cell t phase with
      | Some c -> c.n
      | None -> 0)

let mean c = c.sum /. float_of_int c.n

let summarize_cell c =
  let xs = Array.of_list c.samples in
  let pct = Stats.percentiles xs in
  {
    sp_phase = c.name;
    sp_count = c.n;
    sp_mean_ms = mean c;
    sp_p50_ms = pct 50.0;
    sp_p90_ms = pct 90.0;
    sp_p99_ms = pct 99.0;
    sp_max_ms = Stats.maximum xs;
  }

let summarize t =
  Mutex.protect t.mutex (fun () -> List.rev_map summarize_cell t.phases)

let mean_ms t ~phase = Mutex.protect t.mutex (fun () -> Option.map mean (find_cell t phase))

let to_json summaries =
  Json.Obj
    (List.map
       (fun s ->
         ( s.sp_phase,
           Json.Obj
             [
               ("count", Json.Int s.sp_count);
               ("mean_ms", Json.Float s.sp_mean_ms);
               ("p50_ms", Json.Float s.sp_p50_ms);
               ("p90_ms", Json.Float s.sp_p90_ms);
               ("p99_ms", Json.Float s.sp_p99_ms);
               ("max_ms", Json.Float s.sp_max_ms);
             ] ))
       summaries)

let of_json j =
  match j with
  | Json.Obj kvs ->
      let cell (phase, v) =
        let num k =
          match Option.bind (Json.member k v) Json.to_float with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "span %S: missing numeric %S" phase k)
        in
        let ( let* ) = Result.bind in
        let* n =
          match Option.bind (Json.member "count" v) Json.to_int with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "span %S: missing integer \"count\"" phase)
        in
        let* mean = num "mean_ms" in
        let* p50 = num "p50_ms" in
        let* p90 = num "p90_ms" in
        let* p99 = num "p99_ms" in
        let* mx = num "max_ms" in
        Ok
          {
            sp_phase = phase;
            sp_count = n;
            sp_mean_ms = mean;
            sp_p50_ms = p50;
            sp_p90_ms = p90;
            sp_p99_ms = p99;
            sp_max_ms = mx;
          }
      in
      List.fold_left
        (fun acc kv ->
          match (acc, cell kv) with
          | Error _, _ -> acc
          | Ok xs, Ok s -> Ok (s :: xs)
          | Ok _, (Error _ as e) -> e)
        (Ok []) kvs
      |> Result.map List.rev
  | _ -> Error "spans: expected an object keyed by phase"

let render summaries =
  let t =
    Agp_util.Table.create [ "phase"; "count"; "mean ms"; "p50"; "p90"; "p99"; "max" ]
  in
  List.iter
    (fun s ->
      Agp_util.Table.add_row t
        [
          s.sp_phase;
          string_of_int s.sp_count;
          Printf.sprintf "%.2f" s.sp_mean_ms;
          Printf.sprintf "%.2f" s.sp_p50_ms;
          Printf.sprintf "%.2f" s.sp_p90_ms;
          Printf.sprintf "%.2f" s.sp_p99_ms;
          Printf.sprintf "%.2f" s.sp_max_ms;
        ])
    summaries;
  Agp_util.Table.render t
