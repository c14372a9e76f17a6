(* The benchmark's own span recorder.  Spans are taken around calls into
   the program's public functions (never inside lib/), kept in memory,
   and written out once when the run ends.  A span's self time is its
   duration minus the part its child spans cover.

   Durations are process CPU time ([Sys.time]), not wall time: on a
   shared virtual machine the host takes the CPU away from the guest
   for milliseconds at a time, and that stolen time shows in wall time
   but not in the process's CPU time.  The benchmark is single-threaded
   wherever it takes a duration from a span. *)

module Json = Agp_obs.Json

type span = { id : int; parent : int; name : string; start : float; cpu : float }

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable current : int;  (* id of the open span, -1 at top level *)
  epoch : float;  (* CPU time at creation *)
}

let create () = { spans = []; next = 0; current = -1; epoch = Sys.time () }

(* [time t name f] runs [f] inside a span and returns its result with
   the span's duration in CPU seconds.  Spans nest by dynamic extent; only
   the benchmark's main thread records. *)
let time t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = t.current in
  t.current <- id;
  let start = Sys.time () in
  let close () =
    let cpu = Sys.time () -. start in
    t.current <- parent;
    t.spans <- { id; parent; name; start; cpu } :: t.spans;
    cpu
  in
  match f () with
  | v ->
      let d = close () in
      (v, d)
  | exception e ->
      ignore (close ());
      raise e

let duration s = s.cpu

(* Per span name: count, total seconds and self seconds. *)
let layers t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      match Hashtbl.find_opt by_name s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace by_name s.name (1, duration s, self)
      | Some (n, total, self_total) ->
          Hashtbl.replace by_name s.name (n + 1, total +. duration s, self_total +. self))
    (List.rev t.spans);
  List.rev_map (fun name -> (name, Hashtbl.find by_name name)) !order

let to_json t =
  let us x = Json.Float ((x -. t.epoch) *. 1e6) in
  Json.Obj
    [
      ( "layers",
        Json.List
          (List.map
             (fun (name, (n, total, self)) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("count", Json.Int n);
                   ("total_s", Json.Float total);
                   ("self_s", Json.Float self);
                 ])
             (layers t)) );
      ( "spans",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("parent", Json.Int s.parent);
                   ("name", Json.String s.name);
                   ("start_us", us s.start);
                   ("dur_us", Json.Float (duration s *. 1e6));
                 ])
             t.spans) );
    ]

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))
