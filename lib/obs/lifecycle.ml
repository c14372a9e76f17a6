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

type kind =
  | Occupancy
  | Rendezvous
  | Queue_wait

type interval = {
  kind : kind;
  set : string;
  pipe : int;
  tid : int;
  start : int;
  stop : int;
  ending : string;
}

(* One record per task id.  [occupied], [parked] and [queued] hold the
   start of the task's open interval of each kind (-1 when none).
   [first] is its first dispatch, or -1 while the task is untracked: a
   ring capture can cut the dispatch off, and a task that finished
   while parked keeps its open rendezvous. *)
type task = {
  t_set : string;
  mutable t_pipe : int;
  mutable first : int;
  mutable occupied : int;
  mutable parked : int;
  mutable queued : int;
  mutable q_wait : int;
  mutable exec : int;
  mutable rdv : int;
}

type t = { tasks : (int, task) Hashtbl.t; interval : interval -> unit; retired : span -> unit }

let tracker ~interval ~retired = { tasks = Hashtbl.create 256; interval; retired }

let task_of w tid set =
  match Hashtbl.find_opt w.tasks tid with
  | Some tk -> tk
  | None ->
      let tk =
        {
          t_set = set; t_pipe = 0; first = -1; occupied = -1; parked = -1; queued = -1;
          q_wait = 0; exec = 0; rdv = 0;
        }
      in
      Hashtbl.add w.tasks tid tk;
      tk

let emit w kind tid tk start stop ending =
  w.interval { kind; set = tk.t_set; pipe = tk.t_pipe; tid; start; stop; ending }

(* close the open pipeline occupancy, if any; its length *)
let leave_pipe w tid tk ts ending =
  if tk.occupied < 0 then 0
  else begin
    let start = tk.occupied in
    tk.occupied <- -1;
    emit w Occupancy tid tk start ts ending;
    ts - start
  end

let feed w ts = function
  | Event.Task_dispatch { set; pipe; tid } ->
      let tk = task_of w tid set in
      (* a dispatch without a resume restarts the execute segment *)
      ignore (leave_pipe w tid tk ts "redispatch");
      if tk.first < 0 then tk.first <- ts;
      if tk.queued >= 0 then begin
        emit w Queue_wait tid tk tk.queued ts "dispatch";
        tk.q_wait <- tk.q_wait + (ts - tk.queued);
        tk.queued <- -1
      end;
      tk.t_pipe <- pipe;
      tk.occupied <- ts
  | Event.Rendezvous_park { set; tid; _ } ->
      let tk = task_of w tid set in
      tk.exec <- tk.exec + leave_pipe w tid tk ts "park";
      tk.parked <- ts
  | Event.Rendezvous_resume { tid; _ } -> begin
      match Hashtbl.find_opt w.tasks tid with
      | Some tk when tk.parked >= 0 ->
          emit w Rendezvous tid tk tk.parked ts "resume";
          (* a task re-dispatched while parked waits in a pipe, not here *)
          if tk.first >= 0 && tk.occupied < 0 then begin
            tk.rdv <- tk.rdv + (ts - tk.parked);
            tk.queued <- ts
          end;
          tk.parked <- -1
      | Some _ | None -> ()
    end
  | Event.Task_finish { tid; outcome; _ } -> begin
      match Hashtbl.find_opt w.tasks tid with
      | None -> ()
      | Some tk ->
          let exec = tk.exec + leave_pipe w tid tk ts (Event.outcome_name outcome) in
          (* a squashed activation's pipeline occupancy was wasted
             work: the whole execute time is redo, not progress *)
          let commit = outcome = Event.Commit in
          if tk.first >= 0 then
            w.retired
              {
                sp_set = tk.t_set;
                sp_tid = tid;
                sp_dispatched = tk.first;
                sp_retired = ts;
                sp_queue_wait = tk.q_wait;
                sp_execute = (if commit then exec else 0);
                sp_rdv_wait = tk.rdv;
                sp_squash_redo = (if commit then 0 else exec);
                sp_outcome = outcome;
              };
          if tk.parked >= 0 then tk.first <- -1 else Hashtbl.remove w.tasks tid
    end
  | Event.Queue_full _ | Event.Cache_access _ | Event.Link_transfer _ -> ()

let unfinished w = Hashtbl.fold (fun _ tk n -> if tk.first >= 0 then n + 1 else n) w.tasks 0

let close w ~at =
  let open_tasks =
    List.sort (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun tid tk acc -> (tid, tk) :: acc) w.tasks [])
  in
  List.iter
    (fun (tid, tk) -> if tk.occupied >= 0 then emit w Occupancy tid tk tk.occupied at "open")
    open_tasks;
  List.iter
    (fun (tid, tk) -> if tk.parked >= 0 then emit w Rendezvous tid tk tk.parked at "open")
    open_tasks

let spans events =
  let out = ref [] in
  let w = tracker ~interval:ignore ~retired:(fun sp -> out := sp :: !out) in
  List.iter (fun (ts, ev) -> feed w ts ev) events;
  (List.rev !out, unfinished w)

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
  (* latest first-retired set first *)
  let sets =
    List.fold_left (fun acc sp -> if List.mem sp.sp_set acc then acc else sp.sp_set :: acc) [] spans
  in
  List.map
    (fun set ->
      let rows = List.filter (fun sp -> sp.sp_set = set) spans in
      let durations =
        Array.of_list (List.map (fun sp -> float_of_int (sp.sp_retired - sp.sp_dispatched)) rows)
      in
      let pct = Stats.percentiles durations in
      let total f = List.fold_left (fun acc sp -> acc + f sp) 0 rows in
      let commits = List.length (List.filter (fun sp -> sp.sp_outcome = Event.Commit) rows) in
      {
        ls_set = set;
        ls_tasks = List.length rows;
        ls_commits = commits;
        ls_squashes = List.length rows - commits;
        ls_p50 = pct 50.0;
        ls_p90 = pct 90.0;
        ls_p99 = pct 99.0;
        ls_mean = Stats.mean durations;
        ls_max = Stats.maximum durations;
        ls_queue_wait = total (fun sp -> sp.sp_queue_wait);
        ls_execute = total (fun sp -> sp.sp_execute);
        ls_rdv_wait = total (fun sp -> sp.sp_rdv_wait);
        ls_squash_redo = total (fun sp -> sp.sp_squash_redo);
      })
    sets

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
