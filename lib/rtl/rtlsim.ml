exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

let mask width v = if width >= 62 then v else v land ((1 lsl width) - 1)

let eval_op (n : Chop_dfg.Graph.node) operands (memory : Chop_dfg.Eval.memory_model) =
  let w = n.Chop_dfg.Graph.width in
  match (n.Chop_dfg.Graph.op, operands) with
  | Chop_dfg.Op.Add, [ a; b ] -> mask w (a + b)
  | Chop_dfg.Op.Sub, [ a; b ] -> mask w (a - b)
  | Chop_dfg.Op.Mult, [ a; b ] -> mask w (a * b)
  | Chop_dfg.Op.Div, [ a; b ] -> if b = 0 then 0 else mask w (a / b)
  | Chop_dfg.Op.Compare, [ a; b ] -> if a < b then 1 else 0
  | Chop_dfg.Op.Logic, [ a; b ] -> mask w (a land b)
  | Chop_dfg.Op.Shift, [ a ] -> mask w (a lsl 1)
  | Chop_dfg.Op.Shift, [ a; b ] -> mask w (a lsl (b mod max 1 w))
  | Chop_dfg.Op.Select, [ c; a; b ] -> if c <> 0 then a else b
  | Chop_dfg.Op.Mem_read _, _ ->
      mask w (memory.Chop_dfg.Eval.read (Option.get (Chop_dfg.Op.memory_block n.Chop_dfg.Graph.op)))
  | Chop_dfg.Op.Mem_write _, datum :: _ ->
      let block = Option.get (Chop_dfg.Op.memory_block n.Chop_dfg.Graph.op) in
      memory.Chop_dfg.Eval.writes <- memory.Chop_dfg.Eval.writes @ [ (block, datum) ];
      datum
  | op, args ->
      fail "node %s (%s) has %d operands" n.Chop_dfg.Graph.name
        (Chop_dfg.Op.to_string op) (List.length args)

let run ?(inputs = []) ?(consts = []) ?memory sched =
  let memory =
    match memory with Some m -> m | None -> Chop_dfg.Eval.constant_memory 0
  in
  let g = sched.Chop_sched.Schedule.graph in
  let reg_binding, reg_count = Binding.bind_registers sched in
  let regs = Array.make (max 1 reg_count) 0 in
  let owner = Array.make (max 1 reg_count) (-1) in
  let reg_of = Hashtbl.create 32 in
  List.iter (fun (p, r) -> Hashtbl.replace reg_of p r) reg_binding;
  let write producer v =
    match Hashtbl.find_opt reg_of producer with
    | Some r ->
        regs.(r) <- v;
        owner.(r) <- producer
    | None -> () (* unconsumed value: no storage allocated *)
  in
  let read consumer producer =
    let pn = Chop_dfg.Graph.node g producer in
    match pn.Chop_dfg.Graph.op with
    | Chop_dfg.Op.Const ->
        mask pn.Chop_dfg.Graph.width
          (Option.value ~default:1 (List.assoc_opt pn.Chop_dfg.Graph.name consts))
    | _ -> (
        match Hashtbl.find_opt reg_of producer with
        | None ->
            fail "node %d reads value of %d which has no register" consumer
              producer
        | Some r ->
            if owner.(r) <> producer then
              fail
                "register %d was reused (owner %d) before node %d consumed \
                 the value of %d — broken lifetime binding"
                r owner.(r) consumer producer;
            regs.(r))
  in
  (* preload primary inputs *)
  List.iter
    (fun n ->
      if n.Chop_dfg.Graph.op = Chop_dfg.Op.Input then
        write n.Chop_dfg.Graph.id
          (mask n.Chop_dfg.Graph.width
             (Option.value ~default:0 (List.assoc_opt n.Chop_dfg.Graph.name inputs))))
    (Chop_dfg.Graph.nodes g);
  (* execute step by step: reads happen at an operation's start, its write
     lands at its finish (before the reads of operations starting then) *)
  let by_start = Hashtbl.create 32 and by_finish = Hashtbl.create 32 in
  let pending = Hashtbl.create 32 in
  Array.iter
    (fun id ->
      let s = Chop_sched.Schedule.start sched id in
      Hashtbl.replace by_start s
        (id :: Option.value ~default:[] (Hashtbl.find_opt by_start s));
      let f = Chop_sched.Schedule.finish sched id in
      Hashtbl.replace by_finish f
        (id :: Option.value ~default:[] (Hashtbl.find_opt by_finish f)))
    sched.Chop_sched.Schedule.order;
  for step = 0 to sched.Chop_sched.Schedule.length do
    (* retire: apply the writes of operations finishing here *)
    List.iter
      (fun id ->
        match Hashtbl.find_opt pending id with
        | Some v -> write id v
        | None -> fail "node %d finishes before computing (internal)" id)
      (Option.value ~default:[] (Hashtbl.find_opt by_finish step));
    (* issue: compute operations starting here from current register state *)
    List.iter
      (fun id ->
        let n = Chop_dfg.Graph.node g id in
        let operands = List.map (read id) (Chop_dfg.Graph.preds g id) in
        Hashtbl.replace pending id (eval_op n operands memory))
      (Option.value ~default:[] (Hashtbl.find_opt by_start step))
  done;
  (* primary outputs read their producers' registers *)
  List.filter_map
    (fun n ->
      if n.Chop_dfg.Graph.op = Chop_dfg.Op.Output then
        match Chop_dfg.Graph.preds g n.Chop_dfg.Graph.id with
        | [ p ] -> Some (n.Chop_dfg.Graph.name, read n.Chop_dfg.Graph.id p)
        | _ -> fail "output %s arity (internal)" n.Chop_dfg.Graph.name
      else None)
    (Chop_dfg.Graph.nodes g)
