type t = Bytes.t

external get32 : t -> int -> int32 = "%caml_bytes_get32"

external set32 : t -> int -> int32 -> unit = "%caml_bytes_set32"

let fits x = x >= -0x8000_0000 && x <= 0x7FFF_FFFF

let length a = Bytes.length a / 4

let empty = Bytes.empty

let[@inline] check a i = if i < 0 || i >= length a then invalid_arg "index out of bounds"

let check_fits x = if not (fits x) then invalid_arg "Packed: value out of the 32-bit range"

let get a i =
  check a i;
  Int32.to_int (get32 a (4 * i))

let set a i x =
  check a i;
  check_fits x;
  set32 a (4 * i) (Int32.of_int x)

let create n =
  if n < 0 then invalid_arg "Packed.create: negative length";
  Bytes.make (4 * n) '\000'

let of_array xs =
  let a = Bytes.create (4 * Array.length xs) in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    check_fits x;
    set32 a (4 * i) (Int32.of_int x)
  done;
  a

let to_array a = Array.init (length a) (fun i -> Int32.to_int (get32 a (4 * i)))
