type node_id = int

type node = {
  id : node_id;
  op : Op.t;
  width : Chop_util.Units.bits;
  name : string;
}

(* Builder ids are dense [0..size-1], so nodes and adjacency live in
   arrays indexed by id.  The node lists every BAD stage asks for are
   derived once here rather than on each call. *)
type t = {
  gname : string;
  node_arr : node array;
  succ_arr : node_id list array; (* in edge-insertion order *)
  pred_arr : node_id list array;
  topo : node list; (* topological order, computed at build time *)
  ops : node list; (* computational nodes, topological order *)
  n_ops : int;
  ins : node list;
  outs : node list;
  profile : (string * int) list;
  edge_count : int;
  blocks : string list;
}

type builder = {
  bname : string;
  mutable next : int;
  mutable bnodes : node list; (* reversed *)
  mutable bedges : (node_id * node_id) list; (* reversed *)
}

exception Invalid_graph of string

let builder ?(name = "dfg") () = { bname = name; next = 0; bnodes = []; bedges = [] }

let add_node ?name b ~op ~width =
  if width <= 0 then invalid_arg "Graph.add_node: width must be positive";
  let id = b.next in
  b.next <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "%s%d" (Op.to_string op) id
  in
  b.bnodes <- { id; op; width; name } :: b.bnodes;
  id

let add_edge b ~src ~dst =
  let known id = id >= 0 && id < b.next in
  if not (known src && known dst) then invalid_arg "Graph.add_edge: unknown node";
  b.bedges <- (src, dst) :: b.bedges

(* Kahn's algorithm; raises on cycles.  The ready list is a stack seeded
   in id order, newly ready successors pushed in discovery order. *)
let topological pred_arr succ_arr =
  let indeg = Array.map List.length pred_arr in
  let ready =
    List.filter (fun id -> indeg.(id) = 0) (List.init (Array.length indeg) Fun.id)
  in
  let rec go order = function
    | [] -> order
    | id :: rest ->
        let newly =
          List.fold_left
            (fun newly s ->
              indeg.(s) <- indeg.(s) - 1;
              if indeg.(s) = 0 then s :: newly else newly)
            [] succ_arr.(id)
        in
        go (id :: order) (List.rev_append newly rest)
  in
  let order = List.rev (go [] ready) in
  if List.length order <> Array.length pred_arr then
    raise (Invalid_graph "cycle detected: behavioral DFGs must be acyclic");
  order

let build b =
  let node_arr = Array.of_list (List.rev b.bnodes) in
  let n = Array.length node_arr in
  let succ_arr = Array.make n [] and pred_arr = Array.make n [] in
  (* [bedges] is newest-first, so prepending restores edge-insertion order,
     which carries the operand positions of non-commutative operations
     (Sub, Select, ...) *)
  List.iter
    (fun (src, dst) ->
      succ_arr.(src) <- dst :: succ_arr.(src);
      pred_arr.(dst) <- src :: pred_arr.(dst))
    b.bedges;
  Array.iter
    (fun nd ->
      let indeg = List.length pred_arr.(nd.id) in
      let lo, hi = Op.arity nd.op in
      if indeg < lo || indeg > hi then
        raise
          (Invalid_graph
             (Printf.sprintf "node %s (%s) has %d inputs, expected %d..%d" nd.name
                (Op.to_string nd.op) indeg lo hi)))
    node_arr;
  let topo = List.map (fun id -> node_arr.(id)) (topological pred_arr succ_arr) in
  let ops = List.filter (fun nd -> Op.is_computational nd.op) topo in
  let profile =
    List.map (fun nd -> Op.functional_class nd.op) ops
    |> List.sort String.compare
    |> List.fold_left
         (fun acc cls ->
           match acc with
           | (c, k) :: rest when String.equal c cls -> (c, k + 1) :: rest
           | _ -> (cls, 1) :: acc)
         []
    |> List.rev
  in
  {
    gname = b.bname;
    node_arr;
    succ_arr;
    pred_arr;
    topo;
    ops;
    n_ops = List.length ops;
    ins = List.filter (fun nd -> nd.op = Op.Input) topo;
    outs = List.filter (fun nd -> nd.op = Op.Output) topo;
    profile;
    edge_count = List.length b.bedges;
    blocks =
      List.filter_map (fun nd -> Op.memory_block nd.op) topo
      |> List.sort_uniq String.compare;
  }

let name g = g.gname
let size g = Array.length g.node_arr
let nodes g = g.topo
let mem g id = id >= 0 && id < Array.length g.node_arr
let node g id = if mem g id then g.node_arr.(id) else raise Not_found
let succs g id = if mem g id then g.succ_arr.(id) else []
let preds g id = if mem g id then g.pred_arr.(id) else []

let edges g =
  List.concat_map (fun n -> List.map (fun s -> (n.id, s)) g.succ_arr.(n.id)) g.topo

let edge_count g = g.edge_count
let inputs g = g.ins
let outputs g = g.outs
let operations g = g.ops
let op_count g = g.n_ops
let op_profile g = g.profile
let memory_blocks g = g.blocks

let total_input_bits g = Chop_util.Listx.sum_by (fun n -> n.width) (inputs g)
let total_output_bits g =
  Chop_util.Listx.sum_by
    (fun n ->
      match preds g n.id with
      | [ p ] -> (node g p).width
      | _ -> n.width)
    (outputs g)

let signature g =
  let buf = Buffer.create 256 in
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%d;" n.id (Op.to_string n.op) n.width))
    (nodes g);
  Buffer.add_char buf '|';
  List.iter
    (fun (src, dst) -> Buffer.add_string buf (Printf.sprintf "%d>%d;" src dst))
    (edges g);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let induced g ~name keep =
  List.iter
    (fun id ->
      if not (mem g id) then invalid_arg "Graph.induced: unknown node";
      if not (Op.is_computational (node g id).op) then
        invalid_arg "Graph.induced: boundary nodes cannot be selected")
    keep;
  let kept = Array.make (size g) false in
  List.iter (fun id -> kept.(id) <- true) keep;
  let b = builder ~name () in
  (* original kept node id -> new id *)
  let fresh = Array.make (size g) (-1) in
  List.iter
    (fun n ->
      if kept.(n.id) then
        fresh.(n.id) <- add_node b ~name:n.name ~op:n.op ~width:n.width)
    g.topo;
  let in_map = Hashtbl.create 8 and out_map = Hashtbl.create 8 in
  (* External producers feeding kept nodes become Inputs (one per producer). *)
  List.iter
    (fun n ->
      if kept.(n.id) then
        List.iter
          (fun p ->
            let dst = fresh.(n.id) in
            if kept.(p) then add_edge b ~src:fresh.(p) ~dst
            else
              let src =
                match Hashtbl.find_opt in_map p with
                | Some s -> s
                | None ->
                    let pn = node g p in
                    (* Constants are materialized locally (coefficients do
                       not travel between chips); everything else becomes a
                       boundary input of the partition. *)
                    let op =
                      match pn.op with Op.Const -> Op.Const | _ -> Op.Input
                    in
                    let s = add_node b ~name:("in_" ^ pn.name) ~op ~width:pn.width in
                    Hashtbl.replace in_map p s;
                    s
              in
              add_edge b ~src ~dst)
          g.pred_arr.(n.id))
    g.topo;
  (* Kept producers feeding external consumers (or original outputs) become
     Outputs (one per producer). *)
  List.iter
    (fun n ->
      if kept.(n.id) then
        let escapes = List.exists (fun s -> not kept.(s)) g.succ_arr.(n.id) in
        if escapes && not (Hashtbl.mem out_map n.id) then begin
          let o = add_node b ~name:("out_" ^ n.name) ~op:Op.Output ~width:n.width in
          add_edge b ~src:fresh.(n.id) ~dst:o;
          Hashtbl.replace out_map n.id o
        end)
    g.topo;
  let assoc tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (build b, assoc in_map, assoc out_map)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %s: %d nodes (%d operations)@," g.gname (size g)
    (op_count g);
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "  %s: %d@," cls n)
    (op_profile g);
  Format.fprintf ppf "@]"
