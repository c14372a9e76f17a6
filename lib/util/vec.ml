type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let length t = t.len

let is_empty t = t.len = 0

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let ndata = Array.make ncap x in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let last t =
  if t.len = 0 then invalid_arg "Vec.last: empty";
  t.data.(t.len - 1)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len

let to_list t = Array.to_list (to_array t)

let of_array a = { data = Array.copy a; len = Array.length a }

let sort cmp t =
  let a = to_array t in
  Array.sort cmp a;
  Array.blit a 0 t.data 0 t.len
