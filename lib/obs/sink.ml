module Vec = Agp_util.Vec

type ring = {
  cap : int;
  data : (int * Event.t) option array;
  mutable len : int;
  mutable next : int; (* slot the next event lands in *)
  mutable total : int;
}

type tap = {
  f : ts:int -> Event.t -> unit;
  mutable seen : int;
}

type t =
  | Null
  | Ring of ring
  | Collect of (int * Event.t) Vec.t
  | Tap of tap

let null = Null

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  Ring { cap = capacity; data = Array.make capacity None; len = 0; next = 0; total = 0 }

let collect () = Collect (Vec.create ())

let tap f = Tap { f; seen = 0 }

let enabled = function
  | Null -> false
  | Ring _ | Collect _ | Tap _ -> true

let emit t ~ts ev =
  match t with
  | Null -> ()
  | Ring r ->
      r.data.(r.next) <- Some (ts, ev);
      r.next <- (r.next + 1) mod r.cap;
      if r.len < r.cap then r.len <- r.len + 1;
      r.total <- r.total + 1
  | Collect v -> Vec.push v (ts, ev)
  | Tap t ->
      t.seen <- t.seen + 1;
      t.f ~ts ev

let events = function
  | Null | Tap _ -> []
  | Ring r ->
      List.init r.len (fun k ->
          match r.data.((r.next - r.len + k + r.cap) mod r.cap) with
          | Some e -> e
          | None -> assert false)
  | Collect v -> Vec.to_list v

let count = function
  | Null -> 0
  | Ring r -> r.total
  | Collect v -> Vec.length v
  | Tap t -> t.seen

let dropped = function
  | Null | Collect _ | Tap _ -> 0
  | Ring r -> r.total - r.len

let clear = function
  | Null -> ()
  | Ring r ->
      Array.fill r.data 0 r.cap None;
      r.len <- 0;
      r.next <- 0;
      r.total <- 0
  | Collect v -> Vec.clear v
  | Tap t -> t.seen <- 0
