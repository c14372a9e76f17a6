type 'a t = {
  cmp : 'a -> 'a -> int;
  v : 'a Vec.t;
}

let create cmp = { cmp; v = Vec.create () }

let length t = Vec.length t.v

let is_empty t = Vec.is_empty t.v

let swap t i j =
  let a = Vec.get t.v i and b = Vec.get t.v j in
  Vec.set t.v i b;
  Vec.set t.v j a

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (Vec.get t.v i) (Vec.get t.v parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = Vec.length t.v in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && t.cmp (Vec.get t.v l) (Vec.get t.v !smallest) < 0 then smallest := l;
  if r < n && t.cmp (Vec.get t.v r) (Vec.get t.v !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  Vec.push t.v x;
  sift_up t (Vec.length t.v - 1)

let pop t =
  if Vec.is_empty t.v then None
  else begin
    let top = Vec.get t.v 0 in
    let last = Vec.pop t.v in
    if not (Vec.is_empty t.v) then begin
      Vec.set t.v 0 last;
      sift_down t 0
    end;
    Some top
  end

let of_array cmp a =
  let t = { cmp; v = Vec.of_array a } in
  for i = (Array.length a / 2) - 1 downto 0 do
    sift_down t i
  done;
  t

let to_sorted_list t =
  let rec drain acc =
    match pop t with
    | None -> List.rev acc
    | Some x -> drain (x :: acc)
  in
  drain []
