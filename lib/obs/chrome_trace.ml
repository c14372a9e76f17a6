module E = Event

let pid_pipelines = 1

let pid_rules = 2

let pid_memory = 3

let to_json ?(trace_name = "agp") events =
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  let max_ts =
    List.fold_left
      (fun acc (ts, ev) ->
        let t =
          match ev with
          | E.Link_transfer { finish; _ } -> max ts finish
          | _ -> ts
        in
        max acc t)
      0 events
  in
  (* stable thread ids: sorted component names, numbered from 1 *)
  let pipe_rows = Hashtbl.create 16 in
  let set_rows = Hashtbl.create 8 in
  let any_memory = ref false in
  List.iter
    (fun (_, ev) ->
      match ev with
      | E.Task_dispatch { set; pipe; _ }
      | E.Task_finish { set; pipe; _ }
      | E.Rendezvous_park { set; pipe; _ }
      | E.Queue_full { set; pipe } ->
          Hashtbl.replace pipe_rows (set, pipe) ();
          Hashtbl.replace set_rows set ()
      | E.Rendezvous_resume { set; _ } -> Hashtbl.replace set_rows set ()
      | E.Cache_access _ | E.Link_transfer _ -> any_memory := true)
    events;
  let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  let pipe_list = sorted_keys pipe_rows in
  let set_list = sorted_keys set_rows in
  let index_of lst = List.mapi (fun i k -> (k, i + 1)) lst in
  let pipe_tid_tbl = index_of pipe_list in
  let set_tid_tbl = index_of set_list in
  let pipe_tid k = List.assoc k pipe_tid_tbl in
  let set_tid k = List.assoc k set_tid_tbl in
  let out = ref [] in
  let push ts json = out := (ts, json) :: !out in
  let span ~name ~ts ~dur ~pid ~tid ~args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "X");
        ("ts", Json.Int ts);
        ("dur", Json.Int dur);
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let instant ~name ~ts ~pid ~tid ~args =
    Json.Obj
      [
        ("name", Json.String name);
        ("ph", Json.String "i");
        ("ts", Json.Int ts);
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("s", Json.String "t");
        ("args", Json.Obj args);
      ]
  in
  (* pipeline occupancy spans: dispatch .. finish/park/redispatch *)
  let open_spans = Hashtbl.create 64 in
  let close_span tid ts reason =
    match Hashtbl.find_opt open_spans tid with
    | None -> ()
    | Some (t0, set, pipe) ->
        Hashtbl.remove open_spans tid;
        push t0
          (span ~name:set ~ts:t0
             ~dur:(max 0 (ts - t0))
             ~pid:pid_pipelines ~tid:(pipe_tid (set, pipe))
             ~args:[ ("task", Json.Int tid); ("end", Json.String reason) ])
  in
  let open_parks = Hashtbl.create 64 in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | E.Task_dispatch { set; pipe; tid } ->
          close_span tid ts "redispatch";
          Hashtbl.replace open_spans tid (ts, set, pipe)
      | E.Task_finish { tid; outcome; _ } -> close_span tid ts (E.outcome_name outcome)
      | E.Rendezvous_park { set; tid; _ } ->
          close_span tid ts "park";
          Hashtbl.replace open_parks tid (ts, set)
      | E.Rendezvous_resume { tid; _ } -> begin
          match Hashtbl.find_opt open_parks tid with
          | None -> ()
          | Some (t0, set) ->
              Hashtbl.remove open_parks tid;
              push t0
                (span ~name:"rendezvous" ~ts:t0
                   ~dur:(max 0 (ts - t0))
                   ~pid:pid_rules ~tid:(set_tid set)
                   ~args:[ ("task", Json.Int tid) ])
        end
      | E.Queue_full { set; pipe } ->
          push ts
            (instant ~name:"queue-full" ~ts ~pid:pid_pipelines ~tid:(pipe_tid (set, pipe)) ~args:[])
      | E.Link_transfer { bytes; start; finish } ->
          push start
            (span ~name:"line" ~ts:start
               ~dur:(max 0 (finish - start))
               ~pid:pid_memory ~tid:1
               ~args:[ ("bytes", Json.Int bytes) ])
      | E.Cache_access _ -> () (* folded into counter samples below *))
    events;
  (* deterministically close whatever is still open *)
  let leftovers tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.iter (fun (tid, _) -> close_span tid max_ts "open") (leftovers open_spans);
  List.iter
    (fun (tid, (t0, set)) ->
      push t0
        (span ~name:"rendezvous" ~ts:t0
           ~dur:(max 0 (max_ts - t0))
           ~pid:pid_rules ~tid:(set_tid set)
           ~args:[ ("task", Json.Int tid); ("end", Json.String "open") ]))
    (leftovers open_parks);
  (* cumulative cache hit/miss counters, one sample per distinct ts *)
  let hits = ref 0 and misses = ref 0 in
  let pending = ref None in
  let flush_counter () =
    match !pending with
    | None -> ()
    | Some t ->
        pending := None;
        push t
          (Json.Obj
             [
               ("name", Json.String "cache");
               ("ph", Json.String "C");
               ("ts", Json.Int t);
               ("pid", Json.Int pid_memory);
               ("tid", Json.Int 0);
               ("args", Json.Obj [ ("hits", Json.Int !hits); ("misses", Json.Int !misses) ]);
             ])
  in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | E.Cache_access { hit; _ } ->
          begin
            match !pending with
            | Some t when t <> ts -> flush_counter ()
            | Some _ | None -> ()
          end;
          if hit then incr hits else incr misses;
          pending := Some ts
      | _ -> ())
    events;
  flush_counter ();
  (* metadata: names for every process and thread row in use *)
  let meta = ref [] in
  let md ?tid ~pid name value =
    meta :=
      Json.Obj
        ([ ("name", Json.String name); ("ph", Json.String "M"); ("ts", Json.Int 0);
           ("pid", Json.Int pid) ]
        @ (match tid with
          | Some t -> [ ("tid", Json.Int t) ]
          | None -> [])
        @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ])
      :: !meta
  in
  if !any_memory then begin
    md ~tid:1 ~pid:pid_memory "thread_name" "qpi-link";
    md ~pid:pid_memory "process_name" "memory"
  end;
  if set_list <> [] then begin
    List.iter
      (fun set -> md ~tid:(set_tid set) ~pid:pid_rules "thread_name" set)
      (List.rev set_list);
    md ~pid:pid_rules "process_name" "rule engines"
  end;
  if pipe_list <> [] then begin
    List.iter
      (fun ((set, pipe) as k) ->
        md ~tid:(pipe_tid k) ~pid:pid_pipelines "thread_name"
          (Printf.sprintf "%s/%d" set pipe))
      (List.rev pipe_list);
    md ~pid:pid_pipelines "process_name" "task pipelines"
  end;
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !out) in
  Json.Obj
    [
      ("traceEvents", Json.List (!meta @ List.map snd sorted));
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj [ ("name", Json.String trace_name); ("maxCycle", Json.Int max_ts) ] );
    ]

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
  let md ?tid ~pid name value =
    Json.Obj
      ([ ("name", Json.String name); ("ph", Json.String "M"); ("ts", Json.Int 0);
         ("pid", Json.Int pid) ]
      @ (match tid with
        | Some t -> [ ("tid", Json.Int t) ]
        | None -> [])
      @ [ ("args", Json.Obj [ ("name", Json.String value) ]) ])
  in
  let meta =
    md ~pid:1 "process_name" "serve requests"
    :: List.mapi (fun i rt -> md ~tid:(i + 1) ~pid:1 "thread_name" rt.rt_id) requests
  in
  let spans =
    List.concat
      (List.mapi
         (fun i rt ->
           List.map
             (fun rs ->
               ( rs.rs_start_us,
                 Json.Obj
                   [
                     ("name", Json.String rs.rs_phase);
                     ("ph", Json.String "X");
                     ("ts", Json.Int rs.rs_start_us);
                     ("dur", Json.Int (max 0 rs.rs_dur_us));
                     ("pid", Json.Int 1);
                     ("tid", Json.Int (i + 1));
                     ("cat", Json.String "request");
                     ("args", Json.Obj (("request", Json.String rt.rt_id) :: rs.rs_args));
                   ] ))
             rt.rt_spans)
         requests)
  in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) spans in
  let max_ts =
    List.fold_left
      (fun acc rt ->
        List.fold_left (fun acc rs -> max acc (rs.rs_start_us + max 0 rs.rs_dur_us)) acc rt.rt_spans)
      0 requests
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map snd sorted));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("name", Json.String trace_name);
            ("requests", Json.Int (List.length requests));
            ("maxTsUs", Json.Int max_ts);
          ] );
    ]
