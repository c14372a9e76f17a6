(* The serve workload: an [agp serve] daemon with its default
   configuration, in its own process, driven open-loop over one Unix
   socket connection (a sender and a reader thread).  Every request is
   accounted by id — sent, ok, failed, shed or lost — and every served
   result is checked against a local run of the same workload. *)

module P = Agp_serve.Protocol
module W = Agp_exp.Workloads
module Backend = Agp_backend.Backend
module Json = Agp_obs.Json

type spec = {
  rate : float;  (* requests per second, below the daemon's knee *)
  seeds : int;  (* request seeds rotate over this many derived seeds *)
  spawns : int;  (* daemon start-ups timed for setup_s *)
}

let app = "spec-bfs"
let scale = "small"

(* --- the daemon process --- *)

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let reap d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  try Sys.remove d.sock with Sys_error _ -> ()

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

(* No daemon outlives the benchmark, whatever path it exits by. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~agp ~out_dir ~n ?trace_dir () =
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) n) in
  let args =
    [ agp; "serve"; "--addr"; "unix:" ^ sock ]
    @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile
      (Filename.concat out_dir (Printf.sprintf "serve-%d.log" (Unix.getpid ())))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process agp (Array.of_list args) devnull devnull log in
  Unix.close devnull;
  Unix.close log;
  let d = { pid; sock } in
  live := d :: !live;
  d

(* --- one protocol connection --- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv_line c = input_line c.ic

(* Connect as soon as the daemon listens; fails if it exits first. *)
let connect d ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> Ok { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then Error "daemon did not listen in time"
        else begin
          match Unix.waitpid [ Unix.WNOHANG ] d.pid with
          | 0, _ ->
              Unix.sleepf 0.002;
              attempt ()
          | _ ->
              live := List.filter (fun x -> x.pid <> d.pid) !live;
              Error "daemon exited before listening"
        end
  in
  attempt ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let handshake c =
  send_line c
    (P.write_request
       (P.Hello { P.client = "perfbench"; version = Agp_util.Version.version; protocol = P.protocol_version }));
  match P.response_of_string (recv_line c) with
  | Ok (P.Hello_ack _) -> Ok ()
  | Ok _ -> Error "unexpected reply to hello"
  | Error e -> Error e
  | exception End_of_file -> Error "daemon closed the connection during hello"

(* Spawn until the first Hello_ack: the serve workload's set-up. *)
let start ~agp ~out_dir ~n ?trace_dir () =
  let t0 = Unix.gettimeofday () in
  let d = spawn ~agp ~out_dir ~n ?trace_dir () in
  match connect d ~timeout_s:30.0 with
  | Error e ->
      kill d;
      Error e
  | Ok c -> (
      match handshake c with
      | Ok () -> Ok (d, c, Unix.gettimeofday () -. t0)
      | Error e ->
          close c;
          kill d;
          Error e)

(* Drain and stop the daemon through the protocol, then reap it. *)
let stop d c =
  let result =
    match send_line c (P.write_request P.Shutdown) with
    | exception (Sys_error _ | Unix.Unix_error _) -> Error "shutdown request failed"
    | () ->
        let rec wait () =
          match P.response_of_string (recv_line c) with
          | Ok (P.Shutdown_ack _) -> Ok ()
          | Ok _ -> wait ()
          | Error e -> Error e
          | exception (End_of_file | Sys_error _) -> Error "daemon closed before acknowledging shutdown"
        in
        wait ()
  in
  close c;
  (match result with Ok () -> reap d | Error _ -> kill d);
  result

(* --- the open-loop drive --- *)

type status =
  | Unsent
  | Pending
  | Done of { outcome : P.outcome; at : float }
  | Failed of string
  | Shed

type request = {
  id : string;
  seed : int;
  line : string;
  due : float;  (* scheduled send time *)
  mutable sent_at : float;
  mutable status : status;
}

(* Offer [rate] requests per second for [seconds], timing each from its
   scheduled send time.  A reader thread settles responses by id. *)
let drive c (s : spec) ~seed ~seconds =
  let n = max 1 (int_of_float (Float.round (s.rate *. seconds))) in
  let t0 = Unix.gettimeofday () +. 0.01 in
  let reqs =
    Array.init n (fun i ->
        let rseed = Substrate.instance_seed seed (i mod s.seeds) in
        let id = Printf.sprintf "r%d" i in
        let line =
          P.write_request
            (P.Run
               { P.id; tenant = "perfbench"; app; scale; seed = rseed; backend = "simulator"; obs = false })
        in
        { id; seed = rseed; line; due = t0 +. (float_of_int i /. s.rate); sent_at = 0.0; status = Unsent })
  in
  let index id = Scanf.sscanf_opt id "r%d%!" (fun i -> i) in
  let m = Mutex.create () in
  let settled = ref 0 and stray = ref [] in
  let settle id status =
    Mutex.lock m;
    (match Option.bind id index with
    | Some i when i >= 0 && i < n && reqs.(i).status == Pending ->
        reqs.(i).status <- status;
        incr settled
    | _ -> stray := Option.value ~default:"?" id :: !stray);
    Mutex.unlock m
  in
  let reader =
    Thread.create
      (fun () ->
        let rec loop () =
          match recv_line c with
          | exception (End_of_file | Sys_error _) -> ()
          | line ->
              let at = Unix.gettimeofday () in
              (match P.response_of_string line with
              | Ok (P.Result o) ->
                  let status =
                    match o.P.verdict with
                    | P.Valid -> Done { outcome = o; at }
                    | v -> Failed (Printf.sprintf "verdict exit code %d" (P.exit_code v))
                  in
                  settle (Some o.P.out_id) status
              | Ok (P.Overloaded { id; _ }) -> settle (Some id) Shed
              | Ok (P.Error_reply { id; message; _ }) -> settle id (Failed message)
              | Ok _ -> ()
              | Error e -> settle None (Failed e));
              loop ()
        in
        loop ())
      ()
  in
  let sent = ref 0 in
  let in_flight () =
    Mutex.lock m;
    let k = !sent - !settled in
    Mutex.unlock m;
    k
  in
  Array.iter
    (fun r ->
      let pause = r.due -. Unix.gettimeofday () in
      if pause > 0.0 then Thread.delay pause;
      Mutex.lock m;
      r.status <- Pending;
      r.sent_at <- Unix.gettimeofday ();
      incr sent;
      Mutex.unlock m;
      send_line c r.line)
    reqs;
  (* let stragglers arrive before counting them lost *)
  let drain_until = Unix.gettimeofday () +. 60.0 in
  while in_flight () > 0 && Unix.gettimeofday () < drain_until do
    Thread.delay 0.005
  done;
  (reqs, reader, !stray)

(* --- local reference runs, for checking and for the substrate layers --- *)

type reference = { tasks : int option; seconds : float option; ops : int; cycles : int }

let reference rseed =
  match Result.bind (W.scale_of_string scale) (fun sc -> W.find app sc ~seed:rseed) with
  | Error e -> Error e
  | Ok built -> (
      let res = Backend.run (Backend.simulator ()) built in
      match (res.Backend.check, Backend.simulated_report res) with
      | Error e, _ -> Error ("reference run failed its check: " ^ e)
      | Ok (), None -> Error "reference run has no simulator report"
      | Ok (), Some r ->
          Ok
            {
              tasks = res.Backend.tasks_run;
              seconds = res.Backend.seconds;
              ops = r.Agp_hw.Accelerator.engine_stats.Agp_core.Engine.ops_executed;
              cycles = r.Agp_hw.Accelerator.cycles;
            })

let same_seconds a b =
  match (a, b) with
  | Some x, Some y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1e-12 (Float.abs y)
  | None, None -> true
  | _ -> false

(* Time [f] over every element of [xs], repeated until at least 50 ms
   have elapsed; microseconds per element. *)
let us_per_call f xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else begin
    let t0 = Unix.gettimeofday () in
    let rounds = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.05 do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      incr rounds
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (n * !rounds)
  end

let count_slices path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.parse text with
      | Error e -> Error e
      | Ok doc ->
          let events = Option.value ~default:[] (Option.bind (Json.member "traceEvents" doc) Json.to_list) in
          Ok
            (List.length
               (List.filter (fun e -> Option.bind (Json.member "ph" e) Json.to_str = Some "X") events)))

let run spans out (s : spec) ~agp ~out_dir ~seed ~seconds ~traced =
  let set = Outcome.set out in
  let fail = Outcome.fail out in
  (* set-up: time several start-ups, keep the last daemon for the drive *)
  let trace_dir = Filename.concat out_dir (Printf.sprintf "serve-trace-%d" (Unix.getpid ())) in
  let rec starts k acc =
    let last = k = s.spawns - 1 in
    let trace_dir = if traced && last then Some trace_dir else None in
    match Spans.time spans "serve.start" (fun () -> start ~agp ~out_dir ~n:k ?trace_dir ()) with
    | Error e, _ -> Error e
    | Ok (d, c, setup_s), _ ->
        if last then Ok (d, c, List.rev (setup_s :: acc))
        else begin
          ignore (stop d c);
          starts (k + 1) (setup_s :: acc)
        end
  in
  match starts 0 [] with
  | Error e ->
      Outcome.attempt out;
      fail ("daemon start-up failed: " ^ e)
  | Ok (d, c, setups) ->
      let (reqs, reader, stray), _ =
        Spans.time spans "serve.drive" (fun () -> drive c s ~seed ~seconds)
      in
      let rss = Outcome.peak_rss_mb (string_of_int d.pid) in
      (* shutdown(2), unlike close, wakes the reader blocked on the socket *)
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join reader;
      close c;
      (match
         Spans.time spans "serve.stop" (fun () ->
             Result.bind (connect d ~timeout_s:5.0) (fun c -> stop d c))
       with
      | Ok (), _ -> ()
      | Error e, _ -> fail ("daemon shutdown failed: " ^ e));
      List.iter (fun id -> fail ("response for an unknown or settled request id " ^ id)) stray;
      (* check every served result against a local run of its seed *)
      let refs = Hashtbl.create 8 in
      let reference_of rseed =
        match Hashtbl.find_opt refs rseed with
        | Some r -> r
        | None ->
            let r, _ = Spans.time spans "serve.reference" (fun () -> reference rseed) in
            Hashtbl.replace refs rseed r;
            r
      in
      let ok = ref [] in
      Array.iter
        (fun r ->
          Outcome.attempt out;
          match r.status with
          | Unsent | Pending -> fail (r.id ^ " lost: no response")
          | Shed -> fail (r.id ^ " shed")
          | Failed e -> fail (r.id ^ " failed: " ^ e)
          | Done { outcome = o; at } -> (
              match reference_of r.seed with
              | Error e -> fail (Printf.sprintf "%s: reference for seed %d: %s" r.id r.seed e)
              | Ok ref_ ->
                  if o.P.tasks <> ref_.tasks || not (same_seconds o.P.seconds ref_.seconds) then
                    fail (Printf.sprintf "%s: served result differs from the local run of seed %d" r.id r.seed)
                  else ok := (r, o, at, ref_) :: !ok))
        reqs;
      let ok = List.rev !ok in
      (* The daemon's host times are wall times, not calibrated: timing
         a unit of work in this process does not track the daemon's
         speed.  And the host steals the CPU from the guest for
         milliseconds at a time.  So set-up is the best start-up
         (interference only ever slows it down), and the latency and
         throughput figures are taken per request seed, as its median
         request, then over the seeds: a burst that slows a few requests
         moves no seed's median.  The percentiles over every request are
         printed as diagnostics. *)
      set "setup_s" (List.fold_left Float.min infinity setups);
      let latency_ms (r, _, at, _) = (at -. r.due) *. 1000.0 in
      let by_seed = Hashtbl.create 16 in
      List.iter
        (fun ((r, o, _, rf) as x) ->
          let lats, execs, _ = Option.value ~default:([], [], 0) (Hashtbl.find_opt by_seed r.seed) in
          Hashtbl.replace by_seed r.seed (latency_ms x :: lats, o.P.timing.P.exec_ms :: execs, rf.ops))
        ok;
      let seeds =
        Hashtbl.fold
          (fun _ (lats, execs, ops) acc -> (Outcome.median lats, Outcome.median execs, ops) :: acc)
          by_seed []
      in
      let lat = List.map (fun (l, _, _) -> l) seeds in
      set "p50_ms" (Outcome.median lat);
      set "p90_ms" (Outcome.percentile lat 90.0);
      let total f = List.fold_left (fun a b -> a +. f b) 0.0 seeds in
      set "ops_per_sec"
        (total (fun (_, _, ops) -> float_of_int ops) /. (total (fun (_, e, _) -> e) /. 1000.0));
      let all = List.map latency_ms ok in
      set "serve.p50_all_ms" (Outcome.median all);
      set "serve.p90_all_ms" (Outcome.percentile all 90.0);
      Option.iter (set "peak_rss_mb") rss;
      set "sim_cycles"
        (Outcome.median
           (Hashtbl.fold
              (fun _ r acc -> match r with Ok rf -> float_of_int rf.cycles :: acc | Error _ -> acc)
              refs []));
      if traced then begin
        set "host.speed" (Calib.speed Calib.memory (Calib.measure Calib.memory));
        let timing f = Outcome.median (List.map (fun (_, o, _, _) -> f o.P.timing) ok) in
        set "serve.queue_ms" (timing (fun t -> t.P.queue_ms));
        set "serve.build_ms" (timing (fun t -> t.P.build_ms));
        set "serve.exec_ms" (timing (fun t -> t.P.exec_ms));
        set "serve.wire_ms"
          (Outcome.median
             (List.map
                (fun ((_, o, _, _) as x) ->
                  let t = o.P.timing in
                  latency_ms x -. t.P.queue_ms -. t.P.build_ms -. t.P.exec_ms)
                ok));
        set "serve.batch_mean"
          (Outcome.mean (List.map (fun (_, o, _, _) -> float_of_int o.P.batch) ok));
        set "serve.gen_lag_ms"
          (Array.fold_left (fun a r -> Float.max a ((r.sent_at -. r.due) *. 1000.0)) 0.0 reqs);
        set "protocol.decode_us"
          (us_per_call P.read_request (Array.to_list (Array.map (fun r -> r.line) reqs)));
        set "protocol.encode_us"
          (us_per_call P.write (List.map (fun (_, o, _, _) -> P.Result o) ok));
        (* the daemon writes its per-request trace when it drains *)
        match count_slices (Filename.concat trace_dir "serve-trace.json") with
        | Error e -> fail ("serve trace unreadable: " ^ e)
        | Ok slices ->
            set "serve.trace_slices" (float_of_int slices);
            if slices < 3 * List.length ok then
              fail (Printf.sprintf "serve trace has %d slices for %d requests" slices (List.length ok))
      end
