(* Host-speed calibration.  The hosts this benchmark runs on are shared
   virtual machines whose effective speed drifts by up to 2x within
   seconds, beyond the CPU time the host steals, which CPU-time
   measurement already leaves out.  A fixed unit of work that shares no code with the program
   under test is timed next to every measurement, and host times are
   reported at the nominal speed, at which the unit takes [nominal_s].
   Two units track different kinds of work. *)

type t = { work : unit -> unit; nominal_s : float }

(* Random read-modify-writes over an 8 MB table: what the simulator's
   heap traffic looks like to the memory system. *)
let table = Array.make (1 lsl 20) 0

let memory =
  {
    work =
      (fun () ->
        let x = ref 1 in
        for i = 1 to 400_000 do
          x := ((!x * 25214903917) + 11) land 0x3FFFFFFF;
          let j = !x land ((1 lsl 20) - 1) in
          table.(j) <- table.(j) + i
        done);
    nominal_s = 0.0044;
  }

(* Short-lived small blocks: what building a workload's graph and
   state, and the tree-walking stepper, look like to the allocator.  The
   lists are short, so a minor collection promotes almost nothing, and
   the unit leaves the process's peak resident set as it was. *)
let rec pairs n acc = if n = 0 then acc else pairs (n - 1) ((n, n + 1) :: acc)

let allocation =
  {
    work =
      (fun () ->
        let s = ref 0 in
        for _ = 1 to 4000 do
          List.iter (fun (x, y) -> s := !s + x + y) (pairs 100 [])
        done;
        ignore (Sys.opaque_identity !s));
    nominal_s = 0.0036;
  }

(* The nominal times are close to each unit's time on a quiet 2-core
   Xeon VM.  Only the ratio between runs matters, so they are fixed
   constants, not settings. *)

(* The unit's CPU time right now (see {!Spans}): the median of three. *)
let measure u =
  let once () =
    let t0 = Sys.time () in
    u.work ();
    Sys.time () -. t0
  in
  Outcome.median (List.init 3 (fun _ -> once ()))

(* Scales host seconds measured while the unit took [unit_s] to the
   nominal speed. *)
let speed u unit_s = u.nominal_s /. unit_s

(* [timed u f] runs [f] between two calibrations with [u] and returns
   its result with the factor that scales its host time to the nominal
   speed. *)
let timed u f =
  let before = measure u in
  let v = f () in
  let after = measure u in
  (v, speed u ((before +. after) /. 2.0))
