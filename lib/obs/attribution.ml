module Table = Agp_util.Table

type bucket =
  | Busy
  | Mem_stall
  | Rendezvous_stall
  | Queue_full
  | Squash_waste
  | Idle

let buckets = [ Busy; Mem_stall; Rendezvous_stall; Queue_full; Squash_waste; Idle ]

let n_buckets = List.length buckets

let bucket_index = function
  | Busy -> 0
  | Mem_stall -> 1
  | Rendezvous_stall -> 2
  | Queue_full -> 3
  | Squash_waste -> 4
  | Idle -> 5

let bucket_name = function
  | Busy -> "busy"
  | Mem_stall -> "mem-stall"
  | Rendezvous_stall -> "rdv-stall"
  | Queue_full -> "queue-full"
  | Squash_waste -> "squash-waste"
  | Idle -> "idle"

(* one row of [n_buckets] cells per set, rows in creation order *)
type t = {
  sets : string array;
  cells : int array;
}

let create sets =
  let sets = Array.of_list sets in
  { sets; cells = Array.make (Array.length sets * n_buckets) 0 }

let cell slot b = (slot * n_buckets) + bucket_index b

let charge t ~slot b n =
  if n < 0 then invalid_arg "Attribution.charge: negative amount";
  let i = cell slot b in
  t.cells.(i) <- t.cells.(i) + n

let reclassify t ~slot ~src ~dst n =
  if n < 0 then invalid_arg "Attribution.reclassify: negative amount";
  let si = cell slot src and di = cell slot dst in
  let moved = min n t.cells.(si) in
  t.cells.(si) <- t.cells.(si) - moved;
  t.cells.(di) <- t.cells.(di) + moved;
  moved

let set_total t ~slot =
  let sum = ref 0 in
  for i = slot * n_buckets to ((slot + 1) * n_buckets) - 1 do
    sum := !sum + t.cells.(i)
  done;
  !sum

let total t = Array.fold_left ( + ) 0 t.cells

let bucket_total t b =
  let sum = ref 0 in
  for slot = 0 to Array.length t.sets - 1 do
    sum := !sum + t.cells.(cell slot b)
  done;
  !sum

let get t ~set b =
  let rec find slot =
    if slot = Array.length t.sets then 0
    else if t.sets.(slot) = set then t.cells.(cell slot b)
    else find (slot + 1)
  in
  find 0

let per_set t =
  List.mapi
    (fun slot set -> (set, List.map (fun b -> (b, t.cells.(cell slot b))) buckets))
    (Array.to_list t.sets)

let equal a b = a.sets = b.sets && a.cells = b.cells

type summary = {
  busy_frac : float;
  mem_frac : float;
  rendezvous_frac : float;
  queue_frac : float;
  squash_frac : float;
  idle_frac : float;
}

let summary t =
  let tot = total t in
  let frac b = if tot = 0 then 0.0 else float_of_int (bucket_total t b) /. float_of_int tot in
  {
    busy_frac = frac Busy;
    mem_frac = frac Mem_stall;
    rendezvous_frac = frac Rendezvous_stall;
    queue_frac = frac Queue_full;
    squash_frac = frac Squash_waste;
    idle_frac = frac Idle;
  }

let dominant_stall s =
  List.fold_left
    (fun (bn, bf) (n, f) -> if f > bf then (n, f) else (bn, bf))
    (bucket_name Mem_stall, s.mem_frac)
    [
      (bucket_name Rendezvous_stall, s.rendezvous_frac);
      (bucket_name Queue_full, s.queue_frac);
      (bucket_name Squash_waste, s.squash_frac);
      (bucket_name Idle, s.idle_frac);
    ]

let render t =
  let tbl = Table.create ("task set" :: "pipe-cycles" :: List.map bucket_name buckets) in
  let share n tot =
    if tot = 0 then string_of_int n
    else Printf.sprintf "%d (%.1f%%)" n (100.0 *. float_of_int n /. float_of_int tot)
  in
  List.iteri
    (fun slot (set, bs) ->
      let tot = set_total t ~slot in
      Table.add_row tbl (set :: string_of_int tot :: List.map (fun (_, n) -> share n tot) bs))
    (per_set t);
  let grand = total t in
  Table.add_row tbl
    ("TOTAL" :: string_of_int grand :: List.map (fun b -> share (bucket_total t b) grand) buckets);
  Table.render tbl

let to_json t =
  let s = summary t in
  Json.Obj
    (List.map
       (fun (set, bs) -> (set, Json.Obj (List.map (fun (b, n) -> (bucket_name b, Json.Int n)) bs)))
       (per_set t)
    @ [
        ( "summary",
          Json.Obj
            [
              ("busy_frac", Json.Float s.busy_frac);
              ("mem_stall_frac", Json.Float s.mem_frac);
              ("rdv_stall_frac", Json.Float s.rendezvous_frac);
              ("queue_full_frac", Json.Float s.queue_frac);
              ("squash_frac", Json.Float s.squash_frac);
              ("idle_frac", Json.Float s.idle_frac);
            ] );
      ])
