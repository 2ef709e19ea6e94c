type alloc = (string * int) list

let alloc_get alloc cls =
  Option.value ~default:0 (List.assoc_opt cls alloc)

let validate_alloc alloc =
  let classes = List.map fst alloc in
  if List.length (List.sort_uniq String.compare classes) <> List.length classes
  then invalid_arg "Schedule: duplicate class in allocation";
  List.iter
    (fun (cls, n) ->
      if n < 1 then
        invalid_arg (Printf.sprintf "Schedule: allocation %s = %d < 1" cls n))
    alloc

type t = {
  graph : Chop_dfg.Graph.t;
  alloc : alloc;
  order : Chop_dfg.Graph.node_id array;
  starts : int array;
  latencies : int array;
  length : int;
}

let make ?(min_length = 0) ~graph ~alloc ~order ~start ~latency () =
  let n = Chop_dfg.Graph.size graph in
  let starts = Array.make n (-1) and latencies = Array.make n 0 in
  let length = ref min_length in
  Array.iter
    (fun id ->
      if not (Chop_dfg.Graph.mem graph id) || starts.(id) >= 0 then
        invalid_arg (Printf.sprintf "Schedule.make: node %d unknown or repeated" id);
      let st = start id and lat = latency id in
      if st < 0 || lat < 1 then
        invalid_arg
          (Printf.sprintf "Schedule.make: node %d at %d for %d steps" id st lat);
      starts.(id) <- st;
      latencies.(id) <- lat;
      length := max !length (st + lat))
    order;
  if Array.length order <> Chop_dfg.Graph.op_count graph
     || List.exists
          (fun nd -> starts.(nd.Chop_dfg.Graph.id) < 0)
          (Chop_dfg.Graph.operations graph)
  then invalid_arg "Schedule.make: order must cover exactly the operations";
  { graph; alloc; order; starts; latencies; length = !length }

let scheduled s id = id >= 0 && id < Array.length s.starts && s.starts.(id) >= 0
let start s id = if scheduled s id then s.starts.(id) else raise Not_found
let latency s id = if scheduled s id then s.latencies.(id) else raise Not_found

let finish s id = start s id + s.latencies.(id)

let busy_profile s ~cls =
  let profile = Array.make (max 1 s.length) 0 in
  Array.iter
    (fun id ->
      let n = Chop_dfg.Graph.node s.graph id in
      if Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op = cls then
        let last = min (Array.length profile) (s.starts.(id) + s.latencies.(id)) in
        for step = s.starts.(id) to last - 1 do
          profile.(step) <- profile.(step) + 1
        done)
    s.order;
  profile

let check s =
  let g = s.graph in
  let exception Bad of string in
  try
    (* precedence *)
    Array.iter
      (fun id ->
        let st = s.starts.(id) in
        List.iter
          (fun p ->
            if s.starts.(p) >= 0 then
              let pf = finish s p in
              if st < pf then
                raise
                  (Bad
                     (Printf.sprintf "node %d starts at %d before pred %d finishes at %d"
                        id st p pf)))
          (Chop_dfg.Graph.preds g id))
      s.order;
    (* resources *)
    List.iter
      (fun (cls, cap) ->
        Array.iteri
          (fun step busy ->
            if busy > cap then
              raise
                (Bad
                   (Printf.sprintf "class %s uses %d units at step %d (capacity %d)"
                      cls busy step cap)))
          (busy_profile s ~cls))
      s.alloc;
    (* length *)
    Array.iter
      (fun id ->
        if finish s id > s.length then
          raise (Bad (Printf.sprintf "node %d finishes after schedule length" id)))
      s.order;
    Ok ()
  with Bad reason -> Error reason

let pp ppf s =
  Format.fprintf ppf "@[<v>schedule of %s: length %d, alloc [%s]@,"
    (Chop_dfg.Graph.name s.graph) s.length
    (String.concat "; "
       (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) s.alloc));
  List.iter
    (fun id ->
      let n = Chop_dfg.Graph.node s.graph id in
      Format.fprintf ppf "  %s @@ %d (+%d)@," n.Chop_dfg.Graph.name s.starts.(id)
        s.latencies.(id))
    (List.stable_sort
       (fun a b -> Int.compare s.starts.(a) s.starts.(b))
       (Array.to_list s.order));
  Format.fprintf ppf "@]"
