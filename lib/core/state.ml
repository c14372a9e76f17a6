module Vec = Agp_util.Vec
module Packed = Agp_util.Packed

type data =
  | Ints of int array
  | Floats of float array
  | Packed of Packed.t

type entry = {
  data : data;
  base : int; (* byte address of element 0 *)
}

type t = {
  arrays : (string, entry) Hashtbl.t;
  order : string Vec.t; (* registration order, for layout and diffing *)
  mutable bytes : int; (* laid out so far: the next array's base *)
  mutable tracing : bool;
  trace : int Vec.t; (* the access stream: [(addr lsl 1) lor write_bit] each *)
}

let create () =
  { arrays = Hashtbl.create 16; order = Vec.create (); bytes = 0; tracing = false;
    trace = Vec.create () }

(* arrays occupy consecutive 8-byte-per-element ranges in registration
   order, whatever their host width *)
let add t name data len =
  if Hashtbl.mem t.arrays name then invalid_arg ("State: duplicate array " ^ name);
  Hashtbl.add t.arrays name { data; base = t.bytes };
  t.bytes <- t.bytes + (8 * len);
  Vec.push t.order name

let add_int_array t name a = add t name (Ints a) (Array.length a)

let add_float_array t name a = add t name (Floats a) (Array.length a)

let add_packed_array t name a = add t name (Packed a) (Packed.length a)

let has_array t name = Hashtbl.mem t.arrays name

let entry t name =
  match Hashtbl.find t.arrays name with
  | e -> e
  | exception Not_found -> invalid_arg ("State: unknown array " ^ name)

let data t name = (entry t name).data

let base t name = (entry t name).base

let check_bounds name len index =
  if index < 0 || index >= len then
    invalid_arg (Printf.sprintf "State: %s[%d] out of bounds (length %d)" name index len)

let read t name index =
  match data t name with
  | Ints a ->
      check_bounds name (Array.length a) index;
      Value.Int a.(index)
  | Floats a ->
      check_bounds name (Array.length a) index;
      Value.Float a.(index)
  | Packed a ->
      check_bounds name (Packed.length a) index;
      Value.Int (Packed.get a index)

let read_only name = invalid_arg ("State: " ^ name ^ " is read-only")

let write t name index v =
  match (data t name, v) with
  | Ints a, Value.Int n ->
      check_bounds name (Array.length a) index;
      a.(index) <- n
  | Floats a, Value.Float x ->
      check_bounds name (Array.length a) index;
      a.(index) <- x
  | Floats a, Value.Int n ->
      check_bounds name (Array.length a) index;
      a.(index) <- float_of_int n
  | Ints _, (Value.Float _ | Value.Bool _) | Floats _, Value.Bool _ ->
      invalid_arg
        (Printf.sprintf "State: type mismatch writing %s to %s" (Value.to_string v) name)
  | Packed _, _ -> read_only name

let touch t name index is_write =
  if t.tracing then
    Vec.push t.trace ((((entry t name).base + (8 * index)) lsl 1) lor if is_write then 1 else 0)

let int_array t name =
  match data t name with
  | Ints a -> a
  | Packed _ -> read_only name
  | Floats _ -> invalid_arg ("State: " ^ name ^ " is not an int array")

let float_array t name =
  match data t name with
  | Floats a -> a
  | Ints _ | Packed _ -> invalid_arg ("State: " ^ name ^ " is not a float array")

let trace_length t = Vec.length t.trace

let trace_addr t i = Vec.get t.trace i asr 1

let trace_is_write t i = Vec.get t.trace i land 1 = 1

let clear_trace t = Vec.clear t.trace

let with_tracing t f =
  let was = t.tracing in
  t.tracing <- true;
  Fun.protect
    ~finally:(fun () ->
      t.tracing <- was;
      clear_trace t)
    f

let snapshot t =
  let s = create () in
  Vec.iter
    (fun name ->
      match data t name with
      | Ints a -> add_int_array s name (Array.copy a)
      | Floats a -> add_float_array s name (Array.copy a)
      | Packed a -> add_packed_array s name a)
    t.order;
  s

let equal_content a b =
  let names t = Vec.to_list t.order in
  names a = names b
  && List.for_all
       (fun name ->
         match (data a name, data b name) with
         | Ints x, Ints y -> x = y
         | Floats x, Floats y -> x = y
         | Packed x, Packed y -> x = y
         | (Ints _ | Floats _ | Packed _), _ -> false)
       (names a)

let diff a b =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let names t = Vec.to_list t.order in
  if names a <> names b then say "array sets differ";
  List.iter
    (fun name ->
      if Hashtbl.mem b.arrays name then begin
        match (data a name, data b name) with
        | Ints x, Ints y ->
            if Array.length x <> Array.length y then say "%s: length differs" name
            else
              Array.iteri (fun i v -> if v <> y.(i) then say "%s[%d]: %d vs %d" name i v y.(i)) x
        | Floats x, Floats y ->
            if Array.length x <> Array.length y then say "%s: length differs" name
            else
              Array.iteri
                (fun i v -> if v <> y.(i) then say "%s[%d]: %g vs %g" name i v y.(i))
                x
        | Packed x, Packed y ->
            if Packed.length x <> Packed.length y then say "%s: length differs" name
            else
              for i = 0 to Packed.length x - 1 do
                let u = Packed.get x i and v = Packed.get y i in
                if u <> v then say "%s[%d]: %d vs %d" name i u v
              done
        | (Ints _ | Floats _ | Packed _), _ -> say "%s: kind differs" name
      end)
    (names a);
  List.rev !out
