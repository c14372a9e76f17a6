module E = Event

let pid_pipelines = 1 and pid_rules = 2 and pid_memory = 3

(* --- the one Trace Event writer: metadata rows, then every slice
   stable-sorted by [ts], then the document's trailer --- *)

type ph =
  | Complete of int  (** duration, clamped to [>= 0] *)
  | Instant
  | Counter

type slice = {
  name : string;
  ph : ph;
  ts : int;
  pid : int;
  tid : int;
  cat : string option;
  args : (string * Json.t) list;
}

let slice_json s =
  let ph, dur, scope =
    match s.ph with
    | Complete d -> ("X", [ ("dur", Json.Int (max 0 d)) ], [])
    | Instant -> ("i", [], [ ("s", Json.String "t") ])
    | Counter -> ("C", [], [])
  in
  Json.Obj
    ([ ("name", Json.String s.name); ("ph", Json.String ph); ("ts", Json.Int s.ts) ]
    @ dur
    @ [ ("pid", Json.Int s.pid); ("tid", Json.Int s.tid) ]
    @ scope
    @ Option.fold ~none:[] ~some:(fun c -> [ ("cat", Json.String c) ]) s.cat
    @ [ ("args", Json.Obj s.args) ])

(* [processes]: each row group's pid, name and (tid, name) threads *)
let document ~name ~time_unit ~other processes slices =
  let md ?tid pid key value =
    Json.Obj
      ([ ("name", Json.String key); ("ph", Json.String "M"); ("ts", Json.Int 0); ("pid", Json.Int pid) ]
      @ Option.fold ~none:[] ~some:(fun t -> [ ("tid", Json.Int t) ]) tid
      @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ])
  in
  let meta =
    List.concat_map
      (fun (pid, pname, threads) ->
        md pid "process_name" pname
        :: List.map (fun (tid, tname) -> md ~tid pid "thread_name" tname) threads)
      processes
  in
  let sorted = List.stable_sort (fun a b -> Int.compare a.ts b.ts) slices in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map slice_json sorted));
      ("displayTimeUnit", Json.String time_unit);
      ("otherData", Json.Obj (("name", Json.String name) :: other));
    ]

let complete ~name ~ts ~stop ~pid ~tid args =
  { name; ph = Complete (stop - ts); ts; pid; tid; cat = None; args }

(* --- simulator traces --- *)

let to_json ?(trace_name = "agp") events =
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  let max_ts =
    List.fold_left
      (fun acc (ts, ev) ->
        match ev with
        | E.Link_transfer { finish; _ } -> max acc (max ts finish)
        | _ -> max acc ts)
      0 events
  in
  (* stable thread ids: sorted component names, numbered from 1 *)
  let rows f =
    List.mapi (fun i k -> (k, i + 1)) (List.sort_uniq compare (List.filter_map f events))
  in
  let pipe_rows =
    rows (function
      | _, (E.Task_dispatch { set; pipe; _ } | E.Task_finish { set; pipe; _ }
           | E.Rendezvous_park { set; pipe; _ } | E.Queue_full { set; pipe }) -> Some (set, pipe)
      | _ -> None)
  in
  let set_rows =
    rows (function
      | _, (E.Task_dispatch { set; _ } | E.Task_finish { set; _ } | E.Rendezvous_park { set; _ }
           | E.Queue_full { set; _ } | E.Rendezvous_resume { set; _ }) -> Some set
      | _ -> None)
  in
  let any_memory =
    List.exists (function _, (E.Cache_access _ | E.Link_transfer _) -> true | _ -> false) events
  in
  let pipe_tid k = List.assoc k pipe_rows and set_tid k = List.assoc k set_rows in
  let out = ref [] in
  let push s = out := s :: !out in
  (* pipeline occupancy and rendezvous slices, as the lifecycle walk
     closes them *)
  let lifecycle =
    Lifecycle.tracker ~retired:ignore ~interval:(fun (iv : Lifecycle.interval) ->
        let task = ("task", Json.Int iv.tid) in
        match iv.kind with
        | Lifecycle.Occupancy ->
            push
              (complete ~name:iv.set ~ts:iv.start ~stop:iv.stop ~pid:pid_pipelines
                 ~tid:(pipe_tid (iv.set, iv.pipe))
                 [ task; ("end", Json.String iv.ending) ])
        | Lifecycle.Rendezvous ->
            push
              (complete ~name:"rendezvous" ~ts:iv.start ~stop:iv.stop ~pid:pid_rules
                 ~tid:(set_tid iv.set)
                 (if iv.ending = "open" then [ task; ("end", Json.String "open") ] else [ task ]))
        | Lifecycle.Queue_wait -> ())
  in
  List.iter
    (fun (ts, ev) ->
      Lifecycle.feed lifecycle ts ev;
      match ev with
      | E.Queue_full { set; pipe } ->
          push
            { name = "queue-full"; ph = Instant; ts; pid = pid_pipelines;
              tid = pipe_tid (set, pipe); cat = None; args = [] }
      | E.Link_transfer { bytes; start; finish } ->
          push
            (complete ~name:"line" ~ts:start ~stop:finish ~pid:pid_memory ~tid:1
               [ ("bytes", Json.Int bytes) ])
      | _ -> ())
    events;
  (* whatever is still open ends at the last timestamp *)
  Lifecycle.close lifecycle ~at:max_ts;
  (* cumulative cache hit/miss counters, one sample per distinct ts *)
  let hits = ref 0 and misses = ref 0 in
  let rec counters = function
    | [] -> ()
    | (ts, hit) :: rest ->
        if hit then incr hits else incr misses;
        (match rest with
        | (ts', _) :: _ when ts' = ts -> ()
        | _ ->
            push
              { name = "cache"; ph = Counter; ts; pid = pid_memory; tid = 0; cat = None;
                args = [ ("hits", Json.Int !hits); ("misses", Json.Int !misses) ] });
        counters rest
  in
  counters (List.filter_map (function ts, E.Cache_access { hit; _ } -> Some (ts, hit) | _ -> None) events);
  (* a process row group for every component class in use *)
  let group pid pname threads = if threads = [] then [] else [ (pid, pname, threads) ] in
  document ~name:trace_name ~time_unit:"ns"
    ~other:[ ("maxCycle", Json.Int max_ts) ]
    (group pid_pipelines "task pipelines"
       (List.map (fun ((set, pipe), tid) -> (tid, Printf.sprintf "%s/%d" set pipe)) pipe_rows)
    @ group pid_rules "rule engines" (List.map (fun (set, tid) -> (tid, set)) set_rows)
    @ group pid_memory "memory" (if any_memory then [ (1, "qpi-link") ] else []))
    (List.rev !out)

let to_string ?trace_name events = Json.to_string (to_json ?trace_name events)

(* --- wall-clock request traces (serve daemon) --- *)

type request_span = {
  rs_phase : string;
  rs_start_us : int;
  rs_dur_us : int;
  rs_args : (string * Json.t) list;
}

type request_trace = {
  rt_id : string;
  rt_spans : request_span list;
}

let requests_to_json ?(trace_name = "agp-serve") requests =
  (* one row per request: its queue/build/execute spans are sequential,
     so each row nests cleanly no matter how requests overlap in time *)
  let slices =
    List.concat
      (List.mapi
         (fun i rt ->
           List.map
             (fun rs ->
               { name = rs.rs_phase; ph = Complete rs.rs_dur_us; ts = rs.rs_start_us; pid = 1;
                 tid = i + 1; cat = Some "request";
                 args = ("request", Json.String rt.rt_id) :: rs.rs_args })
             rt.rt_spans)
         requests)
  in
  let max_ts =
    List.fold_left
      (fun acc rt ->
        List.fold_left (fun acc rs -> max acc (rs.rs_start_us + max 0 rs.rs_dur_us)) acc rt.rt_spans)
      0 requests
  in
  document ~name:trace_name ~time_unit:"ms"
    ~other:[ ("requests", Json.Int (List.length requests)); ("maxTsUs", Json.Int max_ts) ]
    [ (1, "serve requests", List.mapi (fun i rt -> (i + 1, rt.rt_id)) requests) ]
    slices
