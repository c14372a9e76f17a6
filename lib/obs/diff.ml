module Table = Agp_util.Table

type direction =
  | Lower_better
  | Higher_better
  | Informational

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Keyed by naming convention: report emitters use these tokens
   consistently, and anything unrecognized only informs, never gates. *)
(* higher_tokens is matched first, so "cycles_per_sec" wins over the
   "cycles" lower-token it contains: sim_cycles_per_sec is a throughput
   ratchet, raw cycle counts still gate downward. *)
let higher_tokens =
  [ "utilization"; "hit_rate"; "busy"; "speedup"; "rps"; "throughput"; "cycles_per_sec" ]

let lower_tokens =
  [
    "cycles"; "seconds"; "stall"; "squash"; "abort"; "retried"; "wait"; "miss";
    "bytes_over_link"; "p50"; "p90"; "p99"; "latency"; "idle"; "queue-full"; "queue_full"; "redo";
    "shed"; "minor_words";
  ]

let direction_of key =
  let k = String.lowercase_ascii key in
  if List.exists (fun tok -> contains ~sub:tok k) higher_tokens then Higher_better
  else if List.exists (fun tok -> contains ~sub:tok k) lower_tokens then Lower_better
  else Informational

type status =
  | Unchanged
  | Changed
  | Regressed
  | Improved
  | Added
  | Removed

let status_name = function
  | Unchanged -> "unchanged"
  | Changed -> "changed"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Added -> "added"
  | Removed -> "removed"

type entry = {
  key : string;
  baseline : float option;
  current : float option;
  rel_change : float option;
  status : status;
}

type result = {
  entries : entry list;
  regressions : int;
  improvements : int;
  changes : int;
}

let compare ?(threshold = 0.05) a b =
  if threshold < 0.0 then invalid_arg "Diff.compare: negative threshold";
  let fa = Report.flatten a and fb = Report.flatten b in
  let tb = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) fb;
  let seen = Hashtbl.create 64 in
  let matched =
    List.map
      (fun (k, va) ->
        Hashtbl.replace seen k ();
        match Hashtbl.find_opt tb k with
        | None -> { key = k; baseline = Some va; current = None; rel_change = None; status = Removed }
        | Some vb ->
            let rel =
              if va = vb then 0.0
              else (vb -. va) /. Float.max (Float.abs va) 1e-12
            in
            let status =
              if Float.abs rel <= threshold then Unchanged
              else
                match direction_of k with
                | Informational -> Changed
                | Lower_better -> if rel > 0.0 then Regressed else Improved
                | Higher_better -> if rel < 0.0 then Regressed else Improved
            in
            { key = k; baseline = Some va; current = Some vb; rel_change = Some rel; status })
      fa
  in
  let added =
    List.filter_map
      (fun (k, vb) ->
        if Hashtbl.mem seen k then None
        else Some { key = k; baseline = None; current = Some vb; rel_change = None; status = Added })
      fb
  in
  let entries = matched @ added in
  let count st = List.length (List.filter (fun e -> e.status = st) entries) in
  {
    entries;
    regressions = count Regressed;
    improvements = count Improved;
    changes = count Changed + count Added + count Removed;
  }

let regressed r = r.regressions > 0

let fnum = Printf.sprintf "%g"

let render ?(all = false) r =
  let buf = Buffer.create 512 in
  let interesting = List.filter (fun e -> e.status <> Unchanged) r.entries in
  let shown = if all then r.entries else interesting in
  if shown = [] then Buffer.add_string buf "reports identical within threshold\n"
  else begin
    let t = Table.create [ "metric"; "baseline"; "current"; "change"; "status" ] in
    List.iter
      (fun e ->
        let cell = function
          | Some v -> fnum v
          | None -> "-"
        in
        let change =
          match e.rel_change with
          | Some rel -> Printf.sprintf "%+.1f%%" (100.0 *. rel)
          | None -> "-"
        in
        Table.add_row t [ e.key; cell e.baseline; cell e.current; change; status_name e.status ])
      shown;
    Buffer.add_string buf (Table.render t);
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf
    (Printf.sprintf "%d metrics compared: %d regressed, %d improved, %d informational changes\n"
       (List.length r.entries) r.regressions r.improvements r.changes);
  Buffer.contents buf

let entry_json e =
  Json.Obj
    [
      ("key", Json.String e.key);
      ( "baseline",
        match e.baseline with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ( "current",
        match e.current with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ( "rel_change",
        match e.rel_change with
        | Some v -> Json.Float v
        | None -> Json.Null );
      ("status", Json.String (status_name e.status));
    ]

let to_json ?(all = false) r =
  let entries = if all then r.entries else List.filter (fun e -> e.status <> Unchanged) r.entries in
  Json.Obj
    [
      ("compared", Json.Int (List.length r.entries));
      ("regressions", Json.Int r.regressions);
      ("improvements", Json.Int r.improvements);
      ("changes", Json.Int r.changes);
      ("entries", Json.List (List.map entry_json entries));
    ]

(* the perf trajectory's throughput leaves *)
let trend_keys =
  [
    "sim_throughput.sim_cycles_per_sec";
    "runtime_throughput.runtime_steps_per_sec";
    "runtime_throughput.ops_per_sec";
  ]

let trend reports =
  let t = Table.create ("report" :: trend_keys) in
  ignore
    (List.fold_left
       (fun prev (name, r) ->
         let flat = Report.flatten r in
         let cell k =
           match (List.assoc_opt k flat, List.assoc_opt k prev) with
           | None, _ -> "-"
           | Some v, Some p when p <> 0.0 ->
               Printf.sprintf "%.0f (%+.1f%%)" v (100.0 *. (v -. p) /. Float.abs p)
           | Some v, _ -> Printf.sprintf "%.0f" v
         in
         Table.add_row t (name :: List.map cell trend_keys);
         flat)
       [] reports);
  Table.render t ^ "\n"
