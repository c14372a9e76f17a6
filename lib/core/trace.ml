module Sink = Agp_obs.Sink
module Event = Agp_obs.Event
module Lifecycle = Agp_obs.Lifecycle

type t = {
  occupancy : (Lifecycle.interval * string) list;
  report : Semantics.report;
}

(* Tracing is the {!Semantics.pipelined} interpretation plus a tap sink:
   the scheduler is the very loop an untraced [pipelined] run uses, so
   a traced execution has the same schedule as an untraced one by
   construction.  The recording budget counts what a per-op log would
   hold — one entry per dispatch and one per retired op, the latter
   through the step observer, which runs before the step's event — so
   the summary covers the same prefix of the run at any budget. *)
let run ?(initial = []) ?(workers = 4) ?(max_entries = 100_000) sp bindings st =
  let entries = ref 0 and last = ref 0 in
  let index = Hashtbl.create 256 in
  let occupancy = ref [] in
  let walk =
    Lifecycle.tracker ~retired:ignore ~interval:(fun iv ->
        if iv.Lifecycle.kind = Lifecycle.Occupancy then
          occupancy := (iv, Hashtbl.find index iv.Lifecycle.tid) :: !occupancy)
  in
  let record ~ts ev =
    (match ev with
    | Event.Task_dispatch { tid; index = ix; _ } ->
        incr entries;
        if !entries <= max_entries then
          Hashtbl.replace index tid (Index.to_string (Index.of_array ix))
    | _ -> ());
    if !entries <= max_entries then begin
      last := ts;
      Lifecycle.feed walk ts ev
    end
  in
  let interp =
    Semantics.with_descr (Semantics.pipelined ~workers ~max_steps:50_000_000 ()) "Trace.run"
  in
  let report =
    Semantics.run ~sink:(Sink.tap record) ~on_step:(fun _ -> incr entries) ~initial interp sp
      bindings st
  in
  Lifecycle.close walk ~at:!last;
  { occupancy = List.rev !occupancy; report }

let render_timeline ?(max_ticks = 60) t =
  let workers =
    1 + List.fold_left (fun acc ((iv : Lifecycle.interval), _) -> max acc iv.pipe) 0 t.occupancy
  in
  let cells = Array.make_matrix workers (max 0 max_ticks + 1) "." in
  List.iter
    (fun ((iv : Lifecycle.interval), index) ->
      for tick = max 1 iv.start to min max_ticks iv.stop do
        cells.(iv.pipe).(tick) <- index
      done;
      if iv.stop >= 1 && iv.stop <= max_ticks then
        cells.(iv.pipe).(iv.stop) <-
          (match iv.ending with "park" -> "~" | "abort" | "retry" -> "*" | _ -> index))
    t.occupancy;
  let buf = Buffer.create 1024 in
  for w = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "w%d: " w);
    for tick = 1 to max_ticks do
      Buffer.add_string buf (Printf.sprintf "%-8s" cells.(w).(tick))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let summarize t =
  let sets =
    List.sort_uniq compare (List.map (fun ((iv : Lifecycle.interval), _) -> iv.set) t.occupancy)
  in
  List.map
    (fun set ->
      let ending e =
        List.length
          (List.filter
             (fun ((iv : Lifecycle.interval), _) -> iv.set = set && iv.ending = e)
             t.occupancy)
      in
      (set, ending "commit", ending "abort", ending "retry", ending "park"))
    sets
