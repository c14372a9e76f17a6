type event_kind =
  | Started
  | Executed of string
  | Blocked_at of string
  | Resumed of bool
  | Committed
  | Aborted
  | Retried

type entry = {
  tick : int;
  worker : int;
  tid : int;
  set_name : string;
  index : string;
  kind : event_kind;
}

type t = {
  entries : entry list;
  report : Semantics.report;
}

let op_descriptor (op : Spec.op) =
  match op with
  | Spec.Let (v, _) -> "let " ^ v
  | Spec.Load (v, arr, _) -> Printf.sprintf "%s <- %s" v arr
  | Spec.Store (arr, _, _) -> "store " ^ arr
  | Spec.Push (set, _) -> "push " ^ set
  | Spec.Push_iter (set, _, _, _, _) -> "spawn* " ^ set
  | Spec.Alloc (_, rule, _) -> "alloc " ^ rule
  | Spec.Await (_, h) -> "await " ^ h
  | Spec.Emit (l, _) -> "emit " ^ l
  | Spec.If (_, _, _) -> "switch"
  | Spec.Abort -> "abort"
  | Spec.Retry -> "retry"
  | Spec.Prim (_, name, _) -> "prim " ^ name

(* Tracing is the {!Semantics.pipelined} interpretation plus recording
   hooks: the scheduler is the very loop an untraced [pipelined] run
   uses, so a traced execution has the same schedule as an untraced one
   by construction, not by keeping two copies of the loop in sync. *)
let run ?(initial = []) ?(workers = 4) ?(max_entries = 100_000) sp bindings st =
  let entries = ref [] in
  let n_entries = ref 0 in
  let set_name slot = (List.nth sp.Spec.task_sets slot).Spec.ts_name in
  let eng = Engine.create sp bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial eng set payload) initial;
  let record tick worker (task : Engine.task) kind =
    if !n_entries < max_entries then begin
      incr n_entries;
      entries :=
        {
          tick;
          worker;
          tid = Engine.task_tid eng task;
          set_name = set_name (Engine.task_set eng task);
          index = Index.to_string (Engine.task_index eng task);
          kind;
        }
        :: !entries
    end
  in
  let hooks =
    {
      Semantics.on_event =
        (fun ~tick ~worker task ev ->
          match ev with
          | Semantics.Acquired -> record tick worker task Started
          | Semantics.Resumed ->
              (* the rendezvous verdict the wake bound into the frame *)
              let verdict =
                match Engine.task_var eng task "ok" with
                | Some (Value.Bool b) -> b
                | Some _ | None -> true
              in
              record tick worker task (Resumed verdict)
          | Semantics.Executed op -> record tick worker task (Executed (op_descriptor op))
          | Semantics.Blocked_on h -> record tick worker task (Blocked_at h)
          | Semantics.Finished outcome ->
              record tick worker task
                (match outcome with
                | Engine.Committed_task -> Committed
                | Engine.Aborted_task -> Aborted
                | Engine.Retried_task -> Retried));
    }
  in
  let interp =
    Semantics.with_descr
      (Semantics.with_hooks (Semantics.pipelined ~workers ~max_steps:50_000_000 ()) hooks)
      "Trace.run"
  in
  let report = Semantics.run_engine interp eng in
  { entries = List.rev !entries; report }

let render_timeline ?(max_ticks = 60) t =
  let workers =
    1 + List.fold_left (fun acc e -> max acc e.worker) 0 t.entries
  in
  let buf = Buffer.create 1024 in
  let cell_of w tick =
    let here = List.filter (fun e -> e.worker = w && e.tick = tick) t.entries in
    match List.rev here with
    | [] -> "."
    | e :: _ -> begin
        match e.kind with
        | Aborted | Retried -> "*"
        | Blocked_at _ -> "~"
        | Started | Executed _ | Resumed _ | Committed -> e.index
      end
  in
  for w = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "w%d: " w);
    for tick = 1 to max_ticks do
      Buffer.add_string buf (Printf.sprintf "%-8s" (cell_of w tick))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let summarize t =
  let sets = List.sort_uniq compare (List.map (fun e -> e.set_name) t.entries) in
  List.map
    (fun set ->
      let of_kind p = List.length (List.filter (fun e -> e.set_name = set && p e.kind) t.entries) in
      ( set,
        of_kind (fun k -> k = Committed),
        of_kind (fun k -> k = Aborted),
        of_kind (fun k -> k = Retried),
        of_kind (function Blocked_at _ -> true | _ -> false) ))
    sets
