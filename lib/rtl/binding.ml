type fu_instance = { fu_class : string; fu_index : int }

let bind_functional_units sched =
  let g = sched.Chop_sched.Schedule.graph in
  let starts = sched.Chop_sched.Schedule.starts in
  (* (class, index) -> step the instance becomes free *)
  let free = Hashtbl.create 16 in
  let in_start_order =
    List.stable_sort
      (fun a b -> Int.compare starts.(a) starts.(b))
      (Array.to_list sched.Chop_sched.Schedule.order)
  in
  List.map
    (fun id ->
      let start = starts.(id) in
      let n = Chop_dfg.Graph.node g id in
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      let lat = sched.Chop_sched.Schedule.latencies.(id) in
      let cap = Chop_sched.Schedule.alloc_get sched.Chop_sched.Schedule.alloc cls in
      let rec pick i =
        if i >= cap then
          (* cannot happen on a resource-feasible schedule *)
          invalid_arg
            (Printf.sprintf "Binding: class %s oversubscribed at step %d" cls start)
        else
          let key = (cls, i) in
          let free_at = Option.value ~default:0 (Hashtbl.find_opt free key) in
          if free_at <= start then begin
            Hashtbl.replace free key (start + lat);
            i
          end
          else pick (i + 1)
      in
      (id, { fu_class = cls; fu_index = pick 0 }))
    in_start_order

let value_intervals sched =
  Chop_sched.Lifetime.intervals
    ~output_death:(max 1 sched.Chop_sched.Schedule.length + 1)
    sched

let bind_registers sched =
  let intervals =
    List.sort
      (fun (a : Chop_sched.Lifetime.interval) b ->
        match Int.compare a.birth b.birth with
        | 0 -> Int.compare a.death b.death
        | n -> n)
      (value_intervals sched)
  in
  (* left-edge: registers as bins with the death of their last tenant *)
  let regs = ref [] (* (index, last_death) *) in
  let next = ref 0 in
  let assignment =
    List.map
      (fun (iv : Chop_sched.Lifetime.interval) ->
        let candidate =
          List.find_opt (fun (_, last) -> last <= iv.birth) !regs
        in
        let index =
          match candidate with
          | Some (i, _) ->
              regs := List.map (fun (j, l) -> if j = i then (j, iv.death) else (j, l)) !regs;
              i
          | None ->
              let i = !next in
              incr next;
              regs := (i, iv.death) :: !regs;
              i
        in
        (iv.producer, index))
      intervals
  in
  (assignment, !next)
