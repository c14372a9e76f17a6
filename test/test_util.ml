(* Unit and property tests for the utility substrate. *)

open Agp_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  check Alcotest.bool "split streams differ" true (xa <> xb)

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int_in stays inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let hi = lo + extent in
      let rng = Rng.create seed in
      let x = Rng.int_in rng lo hi in
      x >= lo && x <= hi)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_chance_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Rng.chance rng 0.0)
  done;
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always" true (Rng.chance rng 1.0)
  done

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let x = Rng.float rng 3.0 in
    check Alcotest.bool "in [0,3)" true (x >= 0.0 && x < 3.0)
  done

(* golden/rng.txt pins every stream: the MD5 of the first 16 values of
   each draw, per seed, from a fresh generator, from a [split] child and
   the parent it advanced, and from a [copy] taken after 5 draws.
   Floats are rendered in hex, so the digest is bit-exact. *)

(* cwd is _build/default/test under dune runtest; the repo root when
   launched by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let rng_variants =
  [
    ("create", Rng.create);
    ("split", fun seed -> Rng.split (Rng.create seed));
    ( "split-parent",
      fun seed ->
        let p = Rng.create seed in
        ignore (Rng.split p);
        p );
    ( "copy",
      fun seed ->
        let p = Rng.create seed in
        for _ = 1 to 5 do
          ignore (Rng.bits64 p)
        done;
        Rng.copy p );
  ]

let rng_draws =
  [
    ("bits64", fun g -> Int64.to_string (Rng.bits64 g));
    ("int", fun g -> string_of_int (Rng.int g 1_000_003));
    ("int-wide", fun g -> string_of_int (Rng.int g ((1 lsl 40) + 7)));
    ("int_in", fun g -> string_of_int (Rng.int_in g (-5) 17));
    ("float", fun g -> Printf.sprintf "%h" (Rng.float g 10.0));
    ("chance", fun g -> string_of_bool (Rng.chance g 0.3));
    ("bool", fun g -> string_of_bool (Rng.bool g));
  ]

let rng_digest variant seed draw =
  let g = (List.assoc variant rng_variants) seed in
  let draw = List.assoc draw rng_draws in
  Digest.to_hex (Digest.string (String.concat " " (List.init 16 (fun _ -> draw g))))

let test_rng_golden_streams () =
  match golden_file "rng.txt" with
  | None -> Alcotest.fail "golden/rng.txt not found"
  | Some path ->
      let rows =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      List.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | [ seed; variant; draw; md5 ] ->
              check Alcotest.string l md5 (rng_digest variant (int_of_string seed) draw)
          | _ -> Alcotest.failf "malformed rng digest line %S" l)
        rows;
      check Alcotest.int "every seed x variant x draw pinned"
        (4 * List.length rng_variants * List.length rng_draws)
        (List.length rows)

(* the draws that return an immediate allocate nothing *)
let test_rng_draws_allocate_nothing () =
  let g = Rng.create 42 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int g 1000 + Rng.int_in g 1 10;
    if Rng.chance g 0.3 then incr acc;
    if Rng.bool g then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool "drew something" true (!acc > 0);
  check (Alcotest.float 0.0) "minor words over 40,000 draws" 0.0 words

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 7" 49 (Vec.get v 7);
  check Alcotest.int "last" (99 * 99) (Vec.last v)

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "len after pop" 2 (Vec.length v);
  check Alcotest.int "pop" 2 (Vec.pop v);
  check Alcotest.int "pop" 1 (Vec.pop v);
  check Alcotest.bool "empty" true (Vec.is_empty v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_clear_reuse () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.clear v;
  check Alcotest.bool "empty after clear" true (Vec.is_empty v);
  Vec.push v 2;
  check Alcotest.int "reusable" 2 (Vec.get v 0)

let test_vec_sort () =
  let v = Vec.of_array [| 3; 1; 2 |] in
  Vec.sort compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_array/to_array roundtrip" ~count:200
    QCheck.(array small_int)
    (fun a -> Vec.to_array (Vec.of_array a) = a)

let prop_vec_fold_sum =
  QCheck.Test.make ~name:"vec fold equals array fold" ~count:200
    QCheck.(array small_int)
    (fun a -> Vec.fold ( + ) 0 (Vec.of_array a) = Array.fold_left ( + ) 0 a)

(* --- Heap --- *)

let test_heap_sorts () =
  let h = Heap.of_array compare [| 5; 1; 4; 2; 3 |] in
  check (Alcotest.list Alcotest.int) "sorted drain" [ 1; 2; 3; 4; 5 ] (Heap.to_sorted_list h)

let test_heap_push_pop_interleaved () =
  let h = Heap.create compare in
  Heap.push h 3;
  Heap.push h 1;
  check Alcotest.bool "min" true (Heap.pop h = Some 1);
  Heap.push h 0;
  Heap.push h 2;
  check Alcotest.bool "min" true (Heap.pop h = Some 0);
  check Alcotest.bool "min" true (Heap.pop h = Some 2);
  check Alcotest.bool "min" true (Heap.pop h = Some 3);
  check Alcotest.bool "empty" true (Heap.pop h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create compare in
      List.iter (Heap.push h) xs;
      Heap.to_sorted_list h = List.sort compare xs)

(* --- Union_find --- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  check Alcotest.int "initial sets" 5 (Union_find.count_sets uf);
  check Alcotest.bool "union" true (Union_find.union uf 0 1);
  check Alcotest.bool "redundant union" false (Union_find.union uf 1 0);
  check Alcotest.bool "same" true (Union_find.same uf 0 1);
  check Alcotest.bool "not same" false (Union_find.same uf 0 2);
  check Alcotest.int "sets after union" 4 (Union_find.count_sets uf)

let test_uf_find_trace () =
  let uf = Union_find.create 4 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 1 2);
  let root, trace = Union_find.find_trace uf 2 in
  check Alcotest.int "root" (Union_find.find uf 0) root;
  check Alcotest.bool "trace nonempty" true (List.length trace >= 1)

let prop_uf_transitive =
  QCheck.Test.make ~name:"union-find is transitive" ~count:200
    QCheck.(list (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* Reference: naive component labelling by fixpoint. *)
      let label = Array.init 20 (fun i -> i) in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (a, b) ->
            let m = min label.(a) label.(b) in
            if label.(a) <> m || label.(b) <> m then begin
              label.(a) <- m;
              label.(b) <- m;
              changed := true
            end)
          pairs
      done;
      (* Labels must refine to the same partition as union-find. *)
      let ok = ref true in
      for i = 0 to 19 do
        for j = 0 to 19 do
          let uf_same = Union_find.same uf i j in
          (* naive labels only merge along listed pairs transitively, via
             repeated sweeps; equality of partitions: *)
          let naive_same = label.(i) = label.(j) in
          if uf_same <> naive_same then ok := false
        done
      done;
      !ok)

(* --- Stats --- *)

let feq = Alcotest.float 1e-9

let test_stats_mean () =
  check feq "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check feq "mean empty" 0.0 (Stats.mean [||]);
  check feq "population stddev" (sqrt (8.0 /. 3.0)) (Stats.stddev [| 2.0; 4.0; 6.0 |])

let test_stats_geomean () = check feq "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check feq "p0" 1.0 (Stats.percentile xs 0.0);
  check feq "p50" 3.0 (Stats.percentile xs 50.0);
  check feq "p100" 5.0 (Stats.percentile xs 100.0);
  check feq "p25" 2.0 (Stats.percentile xs 25.0)

let test_stats_percentile_nearest () =
  (* total at any n: 0 for empty, the sample for n=1, max for high p *)
  check feq "empty is 0" 0.0 (Stats.percentile_nearest [||] 50.0);
  check feq "empty p99 is 0" 0.0 (Stats.percentile_nearest [||] 99.0);
  check feq "n=1 p50" 7.0 (Stats.percentile_nearest [| 7.0 |] 50.0);
  check feq "n=1 p99" 7.0 (Stats.percentile_nearest [| 7.0 |] 99.0);
  check feq "n=1 p0" 7.0 (Stats.percentile_nearest [| 7.0 |] 0.0);
  check feq "n=2 p50 is first" 1.0 (Stats.percentile_nearest [| 2.0; 1.0 |] 50.0);
  check feq "n=2 p99 is max" 2.0 (Stats.percentile_nearest [| 2.0; 1.0 |] 99.0);
  check feq "n=2 p0 clamps to min" 1.0 (Stats.percentile_nearest [| 2.0; 1.0 |] 0.0);
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check feq "unsorted input p50" 3.0 (Stats.percentile_nearest xs 50.0);
  check feq "p90 of 5" 5.0 (Stats.percentile_nearest xs 90.0);
  check feq "p100" 5.0 (Stats.percentile_nearest xs 100.0);
  (* the input array is not mutated (sorts a copy) *)
  check Alcotest.bool "input untouched" true (xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |]);
  (match Stats.percentile_nearest xs 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p > 100 accepted");
  match Stats.percentile_nearest xs (-0.5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p < 0 accepted"

(* one sorted copy serves every percentile, and sorting with
   Float.compare reads the same values bit for bit as sorting with the
   polymorphic compare did *)
let test_stats_percentiles_one_sort () =
  let reference ~nearest xs p =
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let n = Array.length sorted in
    if nearest then sorted.(max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) - 1)
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
      if lo = hi then sorted.(lo)
      else
        let frac = rank -. float_of_int lo in
        (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  in
  let st = Random.State.make [| 42 |] in
  for n = 1 to 40 do
    (* integers, repeats and signed zeros, as cycle and ms samples carry *)
    let xs =
      Array.init n (fun i ->
          match i mod 4 with
          | 0 -> float_of_int (Random.State.int st 50)
          | 1 -> Random.State.float st 100.0
          | 2 -> if Random.State.bool st then 0.0 else -0.0
          | _ -> float_of_int (Random.State.int st 5))
    in
    let pct = Stats.percentiles xs and near = Stats.percentiles_nearest xs in
    List.iter
      (fun p ->
        let same what a b =
          check Alcotest.int64 (Printf.sprintf "n=%d %s p%g" n what p) (Int64.bits_of_float a)
            (Int64.bits_of_float b)
        in
        same "interpolated" (reference ~nearest:false xs p) (pct p);
        same "nearest" (reference ~nearest:true xs p) (near p);
        same "percentile" (pct p) (Stats.percentile xs p))
      [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]
  done

(* --- Chart --- *)

let test_sparkline_shape () =
  let s = Chart.sparkline [| 1.0; 2.0; 3.0; 4.0 |] in
  (* four glyphs, three bytes each *)
  check Alcotest.int "four cells" 12 (String.length s);
  check Alcotest.bool "monotone ends" true
    (String.sub s 0 3 = "\xe2\x96\x81" && String.sub s 9 3 = "\xe2\x96\x88")

let test_sparkline_constant_and_empty () =
  check Alcotest.string "empty" "" (Chart.sparkline [||]);
  let s = Chart.sparkline [| 5.0; 5.0 |] in
  check Alcotest.int "two mid cells" 6 (String.length s);
  check Alcotest.string "identical cells" (String.sub s 0 3) (String.sub s 3 3)

let test_chart_series_labels () =
  let out = Chart.series [ ("alpha", [| 1.0; 2.0 |]); ("b", [| 3.0; 1.0 |]) ] in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "two rows" 2 (List.length lines);
  check Alcotest.bool "labels aligned" true
    (String.length (List.nth lines 0) > 0
    && String.sub (List.nth lines 1) 0 5 = "b    ")

(* --- Table --- *)

let test_table_render () =
  let t = Table.create [ "app"; "speedup" ] in
  Table.add_row t [ "bfs"; "1.90x" ];
  Table.add_row t [ "lu" ];
  let s = Table.render t in
  check Alcotest.bool "has header" true (String.length s > 0);
  check Alcotest.bool "contains bfs" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.index_opt l 'b' <> None))

let test_table_too_many_cells () =
  let t = Table.create [ "one" ] in
  Alcotest.check_raises "reject" (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "a"; "b" ])

let test_table_multibyte () =
  (* "—" and "§" are 3 and 2 bytes but one column each: every row of
     the rendered table is the same number of code points wide *)
  let t = Table.create [ "name"; "note" ] in
  Table.add_row t [ "a—b"; "§4.4" ];
  Table.add_row t [ "plain"; "ascii" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  let code_points l =
    String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 l
  in
  check Alcotest.(list int) "rows equally wide" [ 17; 17; 17; 17 ] (List.map code_points lines);
  check Alcotest.string "multibyte row" "| a—b   | §4.4  |" (List.nth lines 2)

let test_table_cells () =
  check Alcotest.string "float cell" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "ratio cell" "1.90x" (Table.cell_ratio 1.9)

let () =
  Alcotest.run "agp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          qtest prop_rng_int_bounds;
          qtest prop_rng_int_in_bounds;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "bounds checks" `Quick test_vec_bounds;
          Alcotest.test_case "clear and reuse" `Quick test_vec_clear_reuse;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          qtest prop_vec_roundtrip;
          qtest prop_vec_fold_sum;
        ] );
      ( "heap",
        [
          Alcotest.test_case "heapify sorts" `Quick test_heap_sorts;
          Alcotest.test_case "interleaved" `Quick test_heap_push_pop_interleaved;
          qtest prop_heap_sorts;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          Alcotest.test_case "find_trace" `Quick test_uf_find_trace;
          qtest prop_uf_transitive;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile nearest-rank" `Quick test_stats_percentile_nearest;
          Alcotest.test_case "percentiles share one sort" `Quick test_stats_percentiles_one_sort;
        ] );
      ( "chart",
        [
          Alcotest.test_case "sparkline shape" `Quick test_sparkline_shape;
          Alcotest.test_case "constant and empty" `Quick test_sparkline_constant_and_empty;
          Alcotest.test_case "series labels" `Quick test_chart_series_labels;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "multibyte cells" `Quick test_table_multibyte;
          Alcotest.test_case "cell formatting" `Quick test_table_cells;
        ] );
    ]
