(* What one benchmark run reports: values for the named metrics that
   BENCHMARK.json declares, plus the attempted / failed tally behind the
   verdict. *)

type t = {
  values : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
}

let create () = { values = Hashtbl.create 64; attempted = 0; failed = 0; failures = [] }

let set t name value = Hashtbl.replace t.values name value

let get t name = Hashtbl.find_opt t.values name

let bindings t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.values [])

let attempt t = t.attempted <- t.attempted + 1

let fail t msg =
  t.failed <- t.failed + 1;
  t.failures <- msg :: t.failures

let fail_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.failed = 0 && t.attempted > 0

(* A metric the run did not set is a layer the workload never reaches;
   it reads 0.  Every digit is printed, as measured: %.17g round-trips
   a double exactly. *)
let to_json_line t catalog =
  let metric (name, unit) =
    let v = Option.value ~default:0.0 (get t name) in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed
    (String.concat ", " (List.map metric catalog))

(* Metrics must be finite numbers to be valid JSON; a non-finite value
   is a measurement failure. *)
let check_finite t catalog =
  List.iter
    (fun (name, _) ->
      match get t name with
      | Some v when not (Float.is_finite v) ->
          set t name 0.0;
          fail t (Printf.sprintf "metric %s is not finite" name)
      | _ -> ())
    catalog

(* --- sample statistics --- *)

let percentile xs p =
  match xs with
  | [] -> 0.0
  | xs -> Agp_util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0

let mean xs =
  match xs with
  | [] -> 0.0
  | xs -> Agp_util.Stats.mean (Array.of_list xs)

(* [VmHWM] of a live process ("self" or a pid), in MB: its peak
   resident set so far. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
            | Some kb -> Some (float_of_int kb /. 1024.0)
            | None -> scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
