let run ~delay ~budget ~alloc g =
  if budget <= 0. then invalid_arg "Chain_sched.run: non-positive budget";
  Schedule.validate_alloc alloc;
  let ops = Chop_dfg.Graph.operations g in
  List.iter
    (fun n ->
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      if Schedule.alloc_get alloc cls < 1 then
        invalid_arg
          (Printf.sprintf "Chain_sched.run: no units allocated for %s" cls);
      if delay n > budget then
        invalid_arg
          (Printf.sprintf "Chain_sched.run: %s needs %.0f ns but the cycle \
                           offers %.0f"
             n.Chop_dfg.Graph.name (delay n) budget))
    ops;
  let n_nodes = Chop_dfg.Graph.size g in
  (* urgency in combinational ns, to prioritize long chains *)
  let urgency = Array.make n_nodes 0. in
  List.iter
    (fun n ->
      let own =
        if Chop_dfg.Op.is_computational n.Chop_dfg.Graph.op then delay n else 0.
      in
      let downstream =
        List.fold_left
          (fun best s -> Float.max best urgency.(s))
          0. (Chop_dfg.Graph.succs g n.Chop_dfg.Graph.id)
      in
      urgency.(n.Chop_dfg.Graph.id) <- own +. downstream)
    (List.rev (Chop_dfg.Graph.nodes g));
  (* process in topological order, most urgent first within a level *)
  let asap = Array.make n_nodes 0 in
  List.iter (fun (id, s) -> asap.(id) <- s) (Chop_dfg.Analysis.asap g);
  let order =
    List.stable_sort
      (fun a b ->
        Float.compare urgency.(b.Chop_dfg.Graph.id) urgency.(a.Chop_dfg.Graph.id))
      ops
    |> List.stable_sort (fun a b ->
           Int.compare asap.(a.Chop_dfg.Graph.id) asap.(b.Chop_dfg.Graph.id))
  in
  let usage = Hashtbl.create 64 in
  let used cls step =
    Option.value ~default:0 (Hashtbl.find_opt usage (cls, step))
  in
  let starts = Array.make n_nodes 0 and offsets = Array.make n_nodes 0. in
  List.iter
    (fun n ->
      let id = n.Chop_dfg.Graph.id in
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      let cap = Schedule.alloc_get alloc cls in
      let d = delay n in
      (* earliest position given predecessors: chain when the accumulated
         delay fits, otherwise the next step *)
      let step0, offset0 =
        List.fold_left
          (fun (s, off) p ->
            let pn = Chop_dfg.Graph.node g p in
            if not (Chop_dfg.Op.is_computational pn.Chop_dfg.Graph.op) then (s, off)
            else
              let ps = starts.(p) in
              let poff = offsets.(p) in
              let avail = poff +. delay pn in
              let cs, coff =
                if avail +. d <= budget then (ps, avail) else (ps + 1, 0.)
              in
              if cs > s then (cs, coff)
              else if cs = s then (s, Float.max off coff)
              else (s, off))
          (0, 0.) (Chop_dfg.Graph.preds g id)
      in
      let step0, offset0 =
        if offset0 +. d <= budget then (step0, offset0) else (step0 + 1, 0.)
      in
      (* first step with a free unit; leaving the chained step resets the
         offset *)
      let rec place s off =
        if used cls s < cap then (s, off) else place (s + 1) 0.
      in
      let s, off = place step0 offset0 in
      Hashtbl.replace usage (cls, s) (used cls s + 1);
      starts.(id) <- s;
      offsets.(id) <- off)
    order;
  let ids = Array.of_list (List.map (fun n -> n.Chop_dfg.Graph.id) ops) in
  ( Schedule.make ~graph:g ~alloc ~order:ids
      ~start:(fun id -> starts.(id))
      ~latency:(fun _ -> 1)
      (),
    List.map (fun id -> (id, offsets.(id))) (Array.to_list ids) )

let check ~delay ~budget (sched, offsets) =
  let g = sched.Schedule.graph in
  (* offset by node id; the first binding of an id wins, as with an
     association list *)
  let offset = Array.make (Chop_dfg.Graph.size g) Float.nan in
  List.iter
    (fun (id, off) -> if Float.is_nan offset.(id) then offset.(id) <- off)
    offsets;
  let offset id =
    if Float.is_nan offset.(id) then raise Not_found else offset.(id)
  in
  let exception Bad of string in
  try
    (* resources *)
    List.iter
      (fun (cls, cap) ->
        Array.iteri
          (fun step busy ->
            if busy > cap then
              raise
                (Bad (Printf.sprintf "class %s oversubscribed at step %d" cls step)))
          (Schedule.busy_profile sched ~cls))
      sched.Schedule.alloc;
    (* dependences and chain delays *)
    Array.iter
      (fun id ->
        let s = sched.Schedule.starts.(id) in
        let off = offset id in
        let n = Chop_dfg.Graph.node g id in
        if off +. delay n > budget +. 1e-9 then
          raise (Bad (Printf.sprintf "node %d overruns the cycle budget" id));
        List.iter
          (fun p ->
            let pn = Chop_dfg.Graph.node g p in
            if Chop_dfg.Op.is_computational pn.Chop_dfg.Graph.op then begin
              let ps = sched.Schedule.starts.(p) in
              if s < ps then
                raise (Bad (Printf.sprintf "node %d precedes its operand" id));
              if s = ps then begin
                let poff = offset p in
                if off +. 1e-9 < poff +. delay pn then
                  raise
                    (Bad
                       (Printf.sprintf
                          "node %d chains before its operand settles" id))
              end
            end)
          (Chop_dfg.Graph.preds g id))
      sched.Schedule.order;
    Ok ()
  with Bad reason -> Error reason
