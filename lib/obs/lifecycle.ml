module Stats = Agp_util.Stats
module Table = Agp_util.Table

type span = {
  sp_set : string;
  sp_tid : int;
  sp_dispatched : int;
  sp_retired : int;
  sp_queue_wait : int;
  sp_execute : int;
  sp_rdv_wait : int;
  sp_squash_redo : int;
  sp_outcome : Event.outcome;
}

(* A task id moves through: dispatched into a pipeline window, possibly
   parked at a rendezvous (then resumed into a queue and re-dispatched),
   and finally finished with an outcome.  Retries allocate a fresh tid,
   so a finish is always terminal for its tid. *)
type phase =
  | In_pipe of int
  | Parked of int
  | Queued of int

type building = {
  b_set : string;
  b_first : int;
  mutable b_phase : phase;
  mutable b_queue : int;
  mutable b_exec : int;
  mutable b_rdv : int;
}

let spans events =
  let tbl = Hashtbl.create 256 in
  let out = ref [] in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | Event.Task_dispatch { set; tid; _ } -> begin
          match Hashtbl.find_opt tbl tid with
          | None ->
              Hashtbl.add tbl tid
                { b_set = set; b_first = ts; b_phase = In_pipe ts; b_queue = 0; b_exec = 0; b_rdv = 0 }
          | Some b -> begin
              match b.b_phase with
              | Queued q ->
                  b.b_queue <- b.b_queue + (ts - q);
                  b.b_phase <- In_pipe ts
              | In_pipe _ | Parked _ ->
                  (* defensive: a re-dispatch without a resume should not
                     happen; restart the execute segment *)
                  b.b_phase <- In_pipe ts
            end
        end
      | Event.Rendezvous_park { tid; _ } -> begin
          match Hashtbl.find_opt tbl tid with
          | Some ({ b_phase = In_pipe since; _ } as b) ->
              b.b_exec <- b.b_exec + (ts - since);
              b.b_phase <- Parked ts
          | Some _ | None -> ()
        end
      | Event.Rendezvous_resume { tid; _ } -> begin
          match Hashtbl.find_opt tbl tid with
          | Some ({ b_phase = Parked since; _ } as b) ->
              b.b_rdv <- b.b_rdv + (ts - since);
              b.b_phase <- Queued ts
          | Some _ | None -> ()
        end
      | Event.Task_finish { tid; outcome; _ } -> begin
          match Hashtbl.find_opt tbl tid with
          | None -> ()
          | Some b ->
              Hashtbl.remove tbl tid;
              let exec =
                match b.b_phase with
                | In_pipe since -> b.b_exec + (ts - since)
                | Parked _ | Queued _ -> b.b_exec
              in
              (* a squashed activation's pipeline occupancy was wasted
                 work: the whole execute time is redo, not progress *)
              let execute, squash_redo =
                match outcome with
                | Event.Commit -> (exec, 0)
                | Event.Abort | Event.Retry -> (0, exec)
              in
              out :=
                {
                  sp_set = b.b_set;
                  sp_tid = tid;
                  sp_dispatched = b.b_first;
                  sp_retired = ts;
                  sp_queue_wait = b.b_queue;
                  sp_execute = execute;
                  sp_rdv_wait = b.b_rdv;
                  sp_squash_redo = squash_redo;
                  sp_outcome = outcome;
                }
                :: !out
        end
      | Event.Queue_full _ | Event.Cache_access _ | Event.Link_transfer _ -> ())
    events;
  (List.rev !out, Hashtbl.length tbl)

type set_stats = {
  ls_set : string;
  ls_tasks : int;
  ls_commits : int;
  ls_squashes : int;
  ls_p50 : float;
  ls_p90 : float;
  ls_p99 : float;
  ls_mean : float;
  ls_max : float;
  ls_queue_wait : int;
  ls_execute : int;
  ls_rdv_wait : int;
  ls_squash_redo : int;
}

let summarize spans =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let rows =
        match Hashtbl.find_opt tbl sp.sp_set with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add tbl sp.sp_set l;
            order := sp.sp_set :: !order;
            l
      in
      rows := sp :: !rows)
    spans;
  List.rev_map
    (fun set ->
      let rows = List.rev !(Hashtbl.find tbl set) in
      let durations =
        Array.of_list (List.map (fun sp -> float_of_int (sp.sp_retired - sp.sp_dispatched)) rows)
      in
      let total f = List.fold_left (fun acc sp -> acc + f sp) 0 rows in
      {
        ls_set = set;
        ls_tasks = List.length rows;
        ls_commits =
          List.length (List.filter (fun sp -> sp.sp_outcome = Event.Commit) rows);
        ls_squashes =
          List.length (List.filter (fun sp -> sp.sp_outcome <> Event.Commit) rows);
        ls_p50 = Stats.percentile durations 50.0;
        ls_p90 = Stats.percentile durations 90.0;
        ls_p99 = Stats.percentile durations 99.0;
        ls_mean = Stats.mean durations;
        ls_max = Stats.maximum durations;
        ls_queue_wait = total (fun sp -> sp.sp_queue_wait);
        ls_execute = total (fun sp -> sp.sp_execute);
        ls_rdv_wait = total (fun sp -> sp.sp_rdv_wait);
        ls_squash_redo = total (fun sp -> sp.sp_squash_redo);
      })
    !order
  |> List.rev

let histogram reg ~name spans =
  let h =
    Metrics.histogram reg name ~buckets:[| 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384 |]
  in
  List.iter (fun sp -> Metrics.observe h (sp.sp_retired - sp.sp_dispatched)) spans;
  h

let to_json stats =
  Json.Obj
    (List.map
       (fun s ->
         ( s.ls_set,
           Json.Obj
             [
               ("tasks", Json.Int s.ls_tasks);
               ("commits", Json.Int s.ls_commits);
               ("squashes", Json.Int s.ls_squashes);
               ("p50", Json.Float s.ls_p50);
               ("p90", Json.Float s.ls_p90);
               ("p99", Json.Float s.ls_p99);
               ("mean", Json.Float s.ls_mean);
               ("max", Json.Float s.ls_max);
               ("queue_wait", Json.Int s.ls_queue_wait);
               ("execute", Json.Int s.ls_execute);
               ("rdv_wait", Json.Int s.ls_rdv_wait);
               ("squash_redo", Json.Int s.ls_squash_redo);
             ] ))
       stats)

let render stats =
  let t =
    Table.create
      [
        "task set"; "tasks"; "commits"; "squashes"; "p50"; "p90"; "p99"; "mean";
        "queue-wait"; "execute"; "rdv-wait"; "squash-redo";
      ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          s.ls_set;
          string_of_int s.ls_tasks;
          string_of_int s.ls_commits;
          string_of_int s.ls_squashes;
          Printf.sprintf "%.0f" s.ls_p50;
          Printf.sprintf "%.0f" s.ls_p90;
          Printf.sprintf "%.0f" s.ls_p99;
          Printf.sprintf "%.1f" s.ls_mean;
          string_of_int s.ls_queue_wait;
          string_of_int s.ls_execute;
          string_of_int s.ls_rdv_wait;
          string_of_int s.ls_squash_redo;
        ])
    stats;
  Table.render t
