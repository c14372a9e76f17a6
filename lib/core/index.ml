type t = int array

let of_array a = Array.copy a

let to_array t = Array.copy t

let compare (a : t) (b : t) =
  let n = min (Array.length a) (Array.length b) in
  let rec loop i =
    if i >= n then Stdlib.compare (Array.length a) (Array.length b)
    else begin
      let c = Stdlib.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
    end
  in
  loop 0

let equal a b = compare a b = 0

let child ~parent ~slot ~stamp =
  let t = Array.make (Array.length parent) 0 in
  Array.blit parent 0 t 0 slot;
  t.(slot) <- stamp;
  t

let slot t i = t.(i)

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (Array.to_list (Array.map string_of_int t)))

let to_string t = Format.asprintf "%a" pp t
