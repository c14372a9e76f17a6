module Spec = Agp_core.Spec
module Opcode = Agp_core.Opcode
module Vec = Agp_util.Vec

type actor_kind =
  | Entry
  | Compute
  | Load_op of string
  | Store_op of string
  | Spawn of string
  | Spawn_iter of string
  | Rule_alloc of string
  | Rendezvous
  | Event of string
  | Switch
  | Merge
  | Prim_op of string
  | Commit
  | Squash
  | Respawn

type actor = {
  id : int;
  kind : actor_kind;
  set : string;
  label : string;
}

type edge = {
  src : int;
  dst : int;
  branch : bool option;
}

type t = {
  actors : actor array;
  edges : edge list;
}

let expr_label : Spec.expr -> string = function
  | Spec.Const v -> Format.asprintf "%a" Agp_core.Value.pp v
  | Spec.Param i -> "$" ^ string_of_int i
  | Spec.Var v -> v
  | Spec.Binop _ -> "expr"
  | Spec.Not _ -> "!expr"
  | Spec.Neg _ -> "-expr"

(* the label of the actor compiled from a pc's source op; the shared
   commit pc has none *)
let label : Spec.op option -> string = function
  | None -> "commit"
  | Some (Spec.Let (v, e)) -> v ^ " = " ^ expr_label e
  | Some (Spec.Load (v, arr, _)) -> v ^ " <- " ^ arr
  | Some (Spec.Store (arr, _, _)) -> arr ^ " <- store"
  | Some (Spec.Push (target, _)) -> "push " ^ target
  | Some (Spec.Push_iter (target, _, _, _, _)) -> "spawn* " ^ target
  | Some (Spec.Alloc (h, rule, _)) -> h ^ " <- " ^ rule
  | Some (Spec.Await (v, h)) -> v ^ " <- await " ^ h
  | Some (Spec.Emit (l, _)) -> "emit " ^ l
  | Some (Spec.Prim (_, name, _)) -> "prim " ^ name
  | Some (Spec.If _) -> "switch"
  | Some Spec.Abort -> "abort"
  | Some Spec.Retry -> "retry"

let kind (p : Opcode.program) : Opcode.inst -> actor_kind = function
  | I_let _ -> Compute
  | I_load { arr; _ } -> Load_op p.array_names.(arr)
  | I_store { arr; _ } -> Store_op p.array_names.(arr)
  | I_push { set; _ } -> Spawn p.set_names.(set)
  | I_push_iter { set; _ } -> Spawn_iter p.set_names.(set)
  | I_alloc { rule; _ } -> Rule_alloc p.rules.(rule).r_name
  | I_await _ -> Rendezvous
  | I_emit { label; _ } -> Event p.labels.(label)
  | I_if _ -> Switch
  | I_prim { name; _ } -> Prim_op name
  | I_commit -> Commit
  | I_abort -> Squash
  | I_retry -> Respawn

(* the pcs an instruction continues at, the then branch first *)
let next_pcs : Opcode.inst -> (int * bool option) list = function
  | I_let { next; _ } | I_load { next; _ } | I_store { next; _ } | I_push { next; _ }
  | I_push_iter { next; _ } | I_alloc { next; _ } | I_await { next; _ } | I_emit { next; _ }
  | I_prim { next; _ } ->
      [ (next, None) ]
  | I_if { then_pc; else_pc; _ } -> [ (then_pc, Some true); (else_pc, Some false) ]
  | I_commit | I_abort | I_retry -> []

let of_program (p : Opcode.program) =
  let acts = Vec.create () and eds = ref [] in
  let add set kind label ins =
    let id = Vec.length acts in
    Vec.push acts { id; kind; set; label };
    List.iter (fun (src, branch) -> eds := { src; dst = id; branch } :: !eds) ins;
    id
  in
  let n = Array.length p.code in
  Array.iteri
    (fun s entry ->
      let set = p.set_names.(s) in
      (* in-edges per pc reachable from the entry; a pc's out-edges are
         counted when its first in-edge is *)
      let indeg = Array.make n 0 in
      let rec count pc =
        List.iter
          (fun (q, _) ->
            indeg.(q) <- indeg.(q) + 1;
            if indeg.(q) = 1 then count q)
          (next_pcs p.code.(pc))
      in
      count entry;
      (* Depth-first over edges: a pc's actor is made when its last
         in-edge is taken, behind a merge when several edges join there.
         The commit actor waits until the rest of the set is built. *)
      let arrived = Array.make n [] and commit = ref [] in
      let rec walk = function
        | [] -> ()
        | (pc, src, branch) :: rest when List.length arrived.(pc) + 1 < indeg.(pc) ->
            arrived.(pc) <- (src, branch) :: arrived.(pc);
            walk rest
        | (pc, src, branch) :: rest -> (
            let ins =
              match List.rev ((src, branch) :: arrived.(pc)) with
              | [ _ ] as ins -> ins
              | ins -> [ (add set Merge "merge" ins, None) ]
            in
            match p.code.(pc) with
            | I_commit ->
                commit := ins;
                walk rest
            | inst ->
                let a = add set (kind p inst) (label p.source.(pc)) ins in
                walk (List.map (fun (q, branch) -> (q, a, branch)) (next_pcs inst) @ rest))
      in
      walk [ (entry, add set Entry (set ^ " queue") [], None) ];
      if !commit <> [] then ignore (add set Commit (label None) !commit))
    p.entry;
  { actors = Vec.to_array acts; edges = List.rev !eds }

let actors_of_set t set =
  (* actor ids are allocated in pipeline order *)
  List.filter (fun a -> a.set = set) (Array.to_list t.actors)

let is_primitive a =
  match a.kind with
  | Entry | Merge -> false
  | Compute | Load_op _ | Store_op _ | Spawn _ | Spawn_iter _ | Rule_alloc _ | Rendezvous
  | Event _ | Switch | Prim_op _ | Commit | Squash | Respawn ->
      true

let stage_count t set = List.length (List.filter is_primitive (actors_of_set t set))

let depth t set =
  (* edges are listed in the order of their targets' ids, a topological
     order, so one sweep over them computes every longest path *)
  let dist = Array.make (Array.length t.actors) 1 in
  List.iter (fun e -> dist.(e.dst) <- max dist.(e.dst) (dist.(e.src) + 1)) t.edges;
  List.fold_left (fun acc a -> max acc dist.(a.id)) 1 (actors_of_set t set)

let successors t id =
  List.filter_map
    (fun e -> if e.src = id then Some (t.actors.(e.dst), e.branch) else None)
    t.edges

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let sets = List.sort_uniq compare (Array.to_list (Array.map (fun a -> a.set) t.actors)) in
  let rec check_sets = function
    | [] -> Ok ()
    | set :: rest ->
        let actors = actors_of_set t set in
        let entries = List.filter (fun a -> a.kind = Entry) actors in
        if List.length entries <> 1 then err "set %s has %d entries" set (List.length entries)
        else begin
          let bad_actor =
            List.find_opt
              (fun a ->
                match a.kind with
                | Commit | Squash | Respawn -> successors t a.id <> []
                | Switch ->
                    let succ = successors t a.id in
                    not
                      (List.exists (fun (_, br) -> br = Some true) succ
                      && List.exists (fun (_, br) -> br = Some false) succ)
                | Entry | Compute | Load_op _ | Store_op _ | Spawn _ | Spawn_iter _
                | Rule_alloc _ | Event _ | Merge | Prim_op _ | Rendezvous ->
                    (* a rendezvous forwards the resolved boolean; the
                       steering switch follows as its own actor *)
                    successors t a.id = [])
              actors
          in
          match bad_actor with
          | Some a -> err "set %s: actor %d (%s) ill-connected" set a.id a.label
          | None -> check_sets rest
        end
  in
  (* Acyclicity holds by construction (edges go to fresh actors), so
     only connectivity is checked. *)
  check_sets sets

let kind_shape = function
  | Entry -> "house"
  | Compute -> "box"
  | Load_op _ | Store_op _ -> "cylinder"
  | Spawn _ | Spawn_iter _ -> "cds"
  | Rule_alloc _ -> "component"
  | Rendezvous -> "diamond"
  | Event _ -> "rarrow"
  | Switch -> "diamond"
  | Merge -> "invtriangle"
  | Prim_op _ -> "box3d"
  | Commit -> "doublecircle"
  | Squash | Respawn -> "octagon"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph bdfg {\n  rankdir=TB;\n";
  let sets = List.sort_uniq compare (Array.to_list (Array.map (fun a -> a.set) t.actors)) in
  List.iteri
    (fun i set ->
      Buffer.add_string buf (Printf.sprintf "  subgraph cluster_%d {\n    label=%S;\n" i set);
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "    n%d [label=%S shape=%s];\n" a.id a.label (kind_shape a.kind)))
        (actors_of_set t set);
      Buffer.add_string buf "  }\n")
    sets;
  List.iter
    (fun e ->
      let style =
        match e.branch with
        | Some true -> " [label=\"T\"]"
        | Some false -> " [label=\"F\"]"
        | None -> ""
      in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst style))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
