module Vec = Agp_util.Vec

type data =
  | Ints of int array
  | Floats of float array

type access = {
  array_name : string;
  index : int;
  is_write : bool;
}

type t = {
  arrays : (string, data) Hashtbl.t;
  order : string Vec.t; (* registration order, for layout and diffing *)
  mutable tracing : bool;
  trace : access Vec.t;
}

let create () =
  { arrays = Hashtbl.create 16; order = Vec.create (); tracing = false; trace = Vec.create () }

let add t name data =
  if Hashtbl.mem t.arrays name then invalid_arg ("State: duplicate array " ^ name);
  Hashtbl.add t.arrays name data;
  Vec.push t.order name

let add_int_array t name a = add t name (Ints a)

let add_float_array t name a = add t name (Floats a)

let has_array t name = Hashtbl.mem t.arrays name

let find t name =
  match Hashtbl.find_opt t.arrays name with
  | Some d -> d
  | None -> invalid_arg ("State: unknown array " ^ name)

let array_length t name =
  match find t name with
  | Ints a -> Array.length a
  | Floats a -> Array.length a

let record t name index is_write =
  if t.tracing then Vec.push t.trace { array_name = name; index; is_write }

let check_bounds name len index =
  if index < 0 || index >= len then
    invalid_arg (Printf.sprintf "State: %s[%d] out of bounds (length %d)" name index len)

let read t name index =
  record t name index false;
  match find t name with
  | Ints a ->
      check_bounds name (Array.length a) index;
      Value.Int a.(index)
  | Floats a ->
      check_bounds name (Array.length a) index;
      Value.Float a.(index)

let write t name index v =
  record t name index true;
  match (find t name, v) with
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

let touch t name index is_write = record t name index is_write

let int_array t name =
  match find t name with
  | Ints a -> a
  | Floats _ -> invalid_arg ("State: " ^ name ^ " is not an int array")

let float_array t name =
  match find t name with
  | Floats a -> a
  | Ints _ -> invalid_arg ("State: " ^ name ^ " is not a float array")

let set_tracing t b = t.tracing <- b

let drain_trace t =
  let out = Vec.to_list t.trace in
  Vec.clear t.trace;
  out

let address_of t name index =
  (* Arrays occupy consecutive 8-byte-per-element ranges in
     registration order. *)
  let base = ref 0 in
  let found = ref None in
  Vec.iter
    (fun n ->
      if !found = None then begin
        if n = name then found := Some !base
        else base := !base + (8 * array_length t n)
      end)
    t.order;
  match !found with
  | Some b -> b + (8 * index)
  | None -> invalid_arg ("State.address_of: unknown array " ^ name)

let snapshot t =
  let s = create () in
  Vec.iter
    (fun name ->
      match find t name with
      | Ints a -> add_int_array s name (Array.copy a)
      | Floats a -> add_float_array s name (Array.copy a))
    t.order;
  s

let equal_content a b =
  let names t = Vec.to_list t.order in
  names a = names b
  && List.for_all
       (fun name ->
         match (find a name, find b name) with
         | Ints x, Ints y -> x = y
         | Floats x, Floats y -> x = y
         | Ints _, Floats _ | Floats _, Ints _ -> false)
       (names a)

let diff a b =
  let out = ref [] in
  let say fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let names t = Vec.to_list t.order in
  if names a <> names b then say "array sets differ";
  List.iter
    (fun name ->
      if Hashtbl.mem b.arrays name then begin
        match (find a name, find b name) with
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
        | Ints _, Floats _ | Floats _, Ints _ -> say "%s: kind differs" name
      end)
    (names a);
  List.rev !out
