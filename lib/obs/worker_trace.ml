(* Per-set ending counts of occupancies: commit, abort, retry, park. *)
type counts = { mutable commit : int; mutable abort : int; mutable retry : int; mutable park : int }

type t = {
  ticks : int;
  index : (int, string) Hashtbl.t;  (* rendered index of a task dispatched within [ticks] *)
  shown : (Lifecycle.interval * string) list ref;
      (* occupancies starting within [ticks], newest first *)
  max_pipe : int ref;
  counts : (string, counts) Hashtbl.t;
  walk : Lifecycle.t;
}

let render_index ix = "{" ^ String.concat "," (Array.to_list (Array.map string_of_int ix)) ^ "}"

let count counts (iv : Lifecycle.interval) =
  let c =
    match Hashtbl.find_opt counts iv.set with
    | Some c -> c
    | None ->
        let c = { commit = 0; abort = 0; retry = 0; park = 0 } in
        Hashtbl.add counts iv.set c;
        c
  in
  match iv.ending with
  | "commit" -> c.commit <- c.commit + 1
  | "abort" -> c.abort <- c.abort + 1
  | "retry" -> c.retry <- c.retry + 1
  | "park" -> c.park <- c.park + 1
  | _ -> ()

let create ~ticks =
  let index = Hashtbl.create 64 and counts = Hashtbl.create 8 in
  let shown = ref [] and max_pipe = ref 0 in
  let walk =
    Lifecycle.tracker ~retired:ignore ~interval:(fun (iv : Lifecycle.interval) ->
        if iv.kind = Lifecycle.Occupancy then begin
          max_pipe := max !max_pipe iv.pipe;
          count counts iv;
          if iv.start <= ticks then shown := (iv, Hashtbl.find index iv.tid) :: !shown
        end)
  in
  { ticks; index; shown; max_pipe; counts; walk }

(* an occupancy starts at its dispatch, so only a dispatch within the
   window needs its index rendered *)
let sink t =
  Sink.tap (fun ~ts ev ->
      (match ev with
      | Event.Task_dispatch { tid; index; _ } when ts <= t.ticks ->
          Hashtbl.replace t.index tid (render_index index)
      | _ -> ());
      Lifecycle.feed t.walk ts ev)

let render t =
  let workers = !(t.max_pipe) + 1 in
  let cells = Array.make_matrix workers (max 0 t.ticks + 1) "." in
  List.iter
    (fun ((iv : Lifecycle.interval), index) ->
      for tick = max 1 iv.start to min t.ticks iv.stop do
        cells.(iv.pipe).(tick) <- index
      done;
      if iv.stop >= 1 && iv.stop <= t.ticks then
        cells.(iv.pipe).(iv.stop) <-
          (match iv.ending with "park" -> "~" | "abort" | "retry" -> "*" | _ -> index))
    (List.rev !(t.shown));
  let buf = Buffer.create 1024 in
  for w = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "w%d: " w);
    for tick = 1 to t.ticks do
      Buffer.add_string buf (Printf.sprintf "%-8s" cells.(w).(tick))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let summary t =
  Hashtbl.fold (fun set c acc -> (set, c.commit, c.abort, c.retry, c.park) :: acc) t.counts []
  |> List.sort compare
