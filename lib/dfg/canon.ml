type t = { digest : string; graph : Graph.t }

(* One cone hash: the node's own shape plus the sorted multiset of its
   neighbours' hashes on one side.  Hex digests are fixed-width, so
   sorting and concatenating them is unambiguous. *)
let cone_hash dir op width neighbour_hashes =
  let hs = List.sort String.compare neighbour_hashes in
  let buf = Buffer.create 128 in
  Buffer.add_char buf dir;
  Buffer.add_string buf (Op.to_string op);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int width);
  Buffer.add_char buf '[';
  List.iter (Buffer.add_string buf) hs;
  Buffer.add_char buf ']';
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest g =
  let nodes = Graph.nodes g in
  (* topological order, per Graph.nodes *)
  let up = Hashtbl.create 64 and down = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      let preds =
        List.map (fun p -> Hashtbl.find up p) (Graph.preds g n.Graph.id)
      in
      Hashtbl.replace up n.Graph.id
        (cone_hash '^' n.Graph.op n.Graph.width preds))
    nodes;
  List.iter
    (fun (n : Graph.node) ->
      let succs =
        List.map (fun s -> Hashtbl.find down s) (Graph.succs g n.Graph.id)
      in
      Hashtbl.replace down n.Graph.id
        (cone_hash 'v' n.Graph.op n.Graph.width succs))
    (List.rev nodes);
  let pairs =
    List.sort String.compare
      (List.map
         (fun (n : Graph.node) ->
           Hashtbl.find up n.Graph.id ^ Hashtbl.find down n.Graph.id)
         nodes)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (List.length nodes));
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int (Graph.edge_count g));
  Buffer.add_char buf '|';
  List.iter (Buffer.add_string buf) pairs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The process-wide sharing table: digest -> canonical value.  Guarded by
   a mutex so sessions running on separate domains intern concurrently;
   entries live for the process (one per distinct structure ever seen). *)
let table : (string, t) Hashtbl.t = Hashtbl.create 64
let table_mu = Mutex.create ()

let of_graph g =
  let d = digest g in
  Mutex.lock table_mu;
  let v =
    match Hashtbl.find_opt table d with
    | Some v -> v
    | None ->
        let v = { digest = d; graph = g } in
        Hashtbl.add table d v;
        v
  in
  Mutex.unlock table_mu;
  v

let equal a b = a == b

let table_length () =
  Mutex.lock table_mu;
  let n = Hashtbl.length table in
  Mutex.unlock table_mu;
  n
