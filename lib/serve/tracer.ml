module Json = Agp_obs.Json
module Chrome_trace = Agp_obs.Chrome_trace

(* The capture: requests newest first, times rebased to microseconds
   since [epoch] as they are recorded. *)

type t = {
  dir : string;
  epoch : float;
  max_requests : int;
  mutex : Mutex.t;
  mutable requests : Chrome_trace.request_trace list; (* reverse order *)
  mutable n : int;
  mutable dropped : int;
}

let create ?(max_requests = 10_000) ~dir () =
  if max_requests < 1 then invalid_arg "Tracer.create: max_requests must be >= 1";
  { dir; epoch = Unix.gettimeofday (); max_requests; mutex = Mutex.create (); requests = [];
    n = 0; dropped = 0 }

let us_of t at = int_of_float (Float.max 0.0 (at -. t.epoch) *. 1e6)

let record t ~id ~shard ~batch ~phases =
  Mutex.protect t.mutex (fun () ->
      if t.n >= t.max_requests then t.dropped <- t.dropped + 1
      else begin
        let spans =
          List.map
            (fun (phase, at0, at1) ->
              {
                Chrome_trace.rs_phase = phase;
                rs_start_us = us_of t at0;
                rs_dur_us = us_of t at1 - us_of t at0;
                rs_args = [ ("shard", Json.Int shard); ("batch", Json.Int batch) ];
              })
            phases
        in
        t.requests <- { Chrome_trace.rt_id = id; rt_spans = spans } :: t.requests;
        t.n <- t.n + 1
      end)

let request_count t = Mutex.protect t.mutex (fun () -> t.n)

let dropped t = Mutex.protect t.mutex (fun () -> t.dropped)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let flush t =
  let requests = Mutex.protect t.mutex (fun () -> List.rev t.requests) in
  let doc = Chrome_trace.requests_to_json ~trace_name:"agp-serve" requests in
  let file = Filename.concat t.dir "serve-trace.json" in
  try
    mkdir_p t.dir;
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Ok file
  with Sys_error e | Unix.Unix_error (_, e, _) -> Error e
