type interval = {
  producer : Chop_dfg.Graph.node_id;
  birth : int;
  death : int;
  width : Chop_util.Units.bits;
}

let intervals ?output_death s =
  let g = s.Schedule.graph in
  let output_death =
    match output_death with Some d -> d | None -> max 1 s.Schedule.length
  in
  List.filter_map
    (fun n ->
      let id = n.Chop_dfg.Graph.id in
      let birth =
        match n.Chop_dfg.Graph.op with
        | Chop_dfg.Op.Input -> Some 0
        | Chop_dfg.Op.Const -> None (* constants live in dedicated storage *)
        | _ when s.Schedule.starts.(id) >= 0 ->
            Some (s.Schedule.starts.(id) + s.Schedule.latencies.(id))
        | _ -> None
      in
      match birth with
      | None -> None
      | Some birth ->
          let succs = Chop_dfg.Graph.succs g id in
          let consumers = List.filter (fun c -> s.Schedule.starts.(c) >= 0) succs in
          let feeds_output =
            List.exists
              (fun c -> (Chop_dfg.Graph.node g c).Chop_dfg.Graph.op = Chop_dfg.Op.Output)
              succs
          in
          if consumers = [] && not feeds_output then None
          else
            let death =
              if feeds_output then output_death
              else
                (* one past the latest consuming operation's start *)
                List.fold_left
                  (fun acc c -> max acc (s.Schedule.starts.(c) + 1))
                  birth consumers
            in
            Some
              { producer = id; birth; death = max death (birth + 1);
                width = n.Chop_dfg.Graph.width })
    (Chop_dfg.Graph.nodes g)

type demand = { register_bits : int; peak_values : int }

let analyze ?ii s =
  (match ii with
  | Some ii when ii < 1 -> invalid_arg "Lifetime.analyze: ii < 1"
  | Some _ | None -> ());
  let horizon = max 1 s.Schedule.length in
  (* steps fold onto [slots] slots; an [ii] at or beyond the horizon folds
     nothing *)
  let slots = match ii with Some ii when ii < horizon -> ii | _ -> horizon in
  (* difference arrays over the slots, plus whole wraps of the fold, which
     add to every slot alike *)
  let dbits = Array.make (slots + 1) 0 and dvals = Array.make (slots + 1) 0 in
  let wrap_bits = ref 0 and wrap_vals = ref 0 in
  let add lo hi w =
    dbits.(lo) <- dbits.(lo) + w;
    dbits.(hi) <- dbits.(hi) - w;
    dvals.(lo) <- dvals.(lo) + 1;
    dvals.(hi) <- dvals.(hi) - 1
  in
  List.iter
    (fun iv ->
      let lo = iv.birth and hi = min iv.death horizon in
      if lo < hi then begin
        let len = hi - lo in
        wrap_bits := !wrap_bits + (len / slots * iv.width);
        wrap_vals := !wrap_vals + (len / slots);
        let first = lo mod slots and rem = len mod slots in
        if first + rem <= slots then add first (first + rem) iv.width
        else begin
          add first slots iv.width;
          add 0 (first + rem - slots) iv.width
        end
      end)
    (intervals s);
  (* the first slot of peak usage gives the value count *)
  let bits = ref !wrap_bits and vals = ref !wrap_vals in
  let register_bits = ref 0 and peak_values = ref 0 in
  for slot = 0 to slots - 1 do
    bits := !bits + dbits.(slot);
    vals := !vals + dvals.(slot);
    if !bits > !register_bits then begin
      register_bits := !bits;
      peak_values := !vals
    end
  done;
  { register_bits = !register_bits; peak_values = !peak_values }
