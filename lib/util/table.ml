type t = {
  headers : string list;
  rows : string list Vec.t;
}

let create headers = { headers; rows = Vec.create () }

let add_row t row =
  let n = List.length t.headers in
  let len = List.length row in
  if len > n then invalid_arg "Table.add_row: too many cells";
  let padded = row @ List.init (n - len) (fun _ -> "") in
  Vec.push t.rows padded

(* display width in UTF-8 code points: every byte but a continuation
   byte (0b10xxxxxx) starts one *)
let length cell =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) cell;
  !n

let widths t =
  let n = List.length t.headers in
  let w = Array.make n 0 in
  let measure row = List.iteri (fun i cell -> w.(i) <- max w.(i) (length cell)) row in
  measure t.headers;
  Vec.iter measure t.rows;
  w

let render_row w row =
  let cells = List.mapi (fun i cell -> cell ^ String.make (w.(i) - length cell) ' ') row in
  "| " ^ String.concat " | " cells ^ " |"

let render t =
  let w = widths t in
  let sep =
    "|" ^ String.concat "|" (Array.to_list (Array.map (fun n -> String.make (n + 2) '-') w)) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row w t.headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Vec.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_row w row))
    t.rows;
  Buffer.contents buf

let print t = print_endline (render t)

let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_ratio x = Printf.sprintf "%.2fx" x
