module IntMap = Map.Make (Int)

let default_latency _ = 1

(* Mobility window per computational node under partial fixing:
   [asap, alap] recomputed from fixed starts. *)
let windows g ~latency ~length fixed =
  let lat id =
    let n = Chop_dfg.Graph.node g id in
    if Chop_dfg.Op.is_computational n.Chop_dfg.Graph.op then
      max 1 (latency n)
    else 0
  in
  let order = Chop_dfg.Analysis.topological_order g in
  let asap =
    List.fold_left
      (fun acc id ->
        let lower =
          List.fold_left
            (fun lo p -> max lo (IntMap.find p acc + lat p))
            0 (Chop_dfg.Graph.preds g id)
        in
        let lower =
          match IntMap.find_opt id fixed with Some s -> s | None -> lower
        in
        IntMap.add id lower acc)
      IntMap.empty order
  in
  let alap =
    List.fold_left
      (fun acc id ->
        let upper =
          List.fold_left
            (fun hi s -> min hi (IntMap.find s acc))
            length (Chop_dfg.Graph.succs g id)
        in
        let start = upper - lat id in
        let start =
          match IntMap.find_opt id fixed with Some s -> min s start | None -> start
        in
        IntMap.add id start acc)
      IntMap.empty
      (List.rev order)
  in
  (asap, alap)

(* Distribution graphs: expected concurrency per (class, step), assuming a
   uniform distribution of each unfixed operation over its window. *)
let distribution g ~latency ~length (asap, alap) =
  let dg = Hashtbl.create 16 in
  let bump cls step p =
    let key = (cls, step) in
    Hashtbl.replace dg key (p +. Option.value ~default:0. (Hashtbl.find_opt dg key))
  in
  List.iter
    (fun n ->
      let id = n.Chop_dfg.Graph.id in
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      let lat = max 1 (latency n) in
      let lo = IntMap.find id asap and hi = IntMap.find id alap in
      let hi = max lo hi in
      let p = 1. /. float_of_int (hi - lo + 1) in
      for start = lo to hi do
        for step = start to min (length - 1) (start + lat - 1) do
          bump cls step p
        done
      done)
    (Chop_dfg.Graph.operations g);
  dg

let run ?(latency = default_latency) ~length g =
  let cp = Chop_dfg.Analysis.critical_path ~latency g in
  if length < cp then
    invalid_arg
      (Printf.sprintf "Force_directed.run: length %d below critical path %d"
         length cp);
  let ops = Chop_dfg.Graph.operations g in
  let fixed = ref IntMap.empty in
  let lat n = max 1 (latency n) in
  let remaining = ref (List.map (fun n -> n.Chop_dfg.Graph.id) ops) in
  (* An operation whose slack window has collapsed ([alap <= asap], which
     happens under a tight length once neighbours are fixed) has exactly
     one legal start: its ASAP step.  Fixing it there is not a heuristic
     choice, and doing it eagerly keeps the force-selection loop below
     from ever facing a pass where every remaining window is degenerate —
     the state that used to trip the internal "no candidate" failure.
     The placement is identical to what force selection would pick
     (p = 1 at the single slot either way), so schedules are unchanged. *)
  let fix_at_asap asap ids =
    List.iter (fun id -> fixed := IntMap.add id (IntMap.find id asap) !fixed) ids
  in
  while !remaining <> [] do
    let asap, alap = windows g ~latency ~length !fixed in
    let zero_width, mobile =
      List.partition
        (fun id -> IntMap.find id alap <= IntMap.find id asap)
        !remaining
    in
    if zero_width <> [] then begin
      fix_at_asap asap zero_width;
      remaining := mobile
    end
    else begin
    let dg = distribution g ~latency ~length (asap, alap) in
    (* choose the (op, step) with minimal self force among ops with the
       smallest mobility window (ties broken by id for determinism) *)
    let best = ref None in
    List.iter
      (fun id ->
        let n = Chop_dfg.Graph.node g id in
        let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
        let lo = IntMap.find id asap and hi = max (IntMap.find id asap) (IntMap.find id alap) in
        let window = float_of_int (hi - lo + 1) in
        let avg cls step =
          Option.value ~default:0. (Hashtbl.find_opt dg (cls, step))
        in
        for start = lo to hi do
          (* self force: deviation of this placement's distribution from
             the average over the window *)
          let force = ref 0. in
          for step = start to start + lat n - 1 do
            let d = avg cls (min step (length - 1)) in
            (* placing here adds (1 - 1/window) at [step] *)
            force := !force +. (d *. (1. -. (1. /. window)))
          done;
          (* subtract the expected contribution elsewhere in the window *)
          for other = lo to hi do
            if other <> start then
              for step = other to other + lat n - 1 do
                let d = avg cls (min step (length - 1)) in
                force := !force -. (d /. window)
              done
          done;
          match !best with
          | Some (f, _, _) when f <= !force -> ()
          | _ -> best := Some (!force, id, start)
        done)
      !remaining;
    match !best with
    | None ->
        (* defensive: cannot happen now that degenerate windows are fixed
           eagerly above, but if selection ever yields nothing, an ASAP
           placement is always legal — never fail the whole schedule *)
        fix_at_asap asap !remaining;
        remaining := []
    | Some (_, id, start) ->
        fixed := IntMap.add id start !fixed;
        remaining := List.filter (fun x -> x <> id) !remaining
    end
  done;
  let start id = IntMap.find id !fixed in
  (* implied allocation: per-class peak concurrency *)
  let peak = Hashtbl.create 8 in
  let usage = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      let s = start n.Chop_dfg.Graph.id in
      for step = s to s + lat n - 1 do
        let key = (cls, step) in
        let u = 1 + Option.value ~default:0 (Hashtbl.find_opt usage key) in
        Hashtbl.replace usage key u;
        Hashtbl.replace peak cls
          (max u (Option.value ~default:0 (Hashtbl.find_opt peak cls)))
      done)
    ops;
  let alloc =
    Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) peak []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Schedule.make ~min_length:length ~graph:g ~alloc
    ~order:(Array.of_list (List.map (fun n -> n.Chop_dfg.Graph.id) ops))
    ~start
    ~latency:(fun id -> lat (Chop_dfg.Graph.node g id))
    ()

let min_units ?(latency = default_latency) ~length g =
  (run ~latency ~length g).Schedule.alloc
