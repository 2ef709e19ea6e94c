(* The scheduler is the innermost loop of BAD prediction: one [run] per
   candidate allocation per partition, thousands per exploration.  All
   per-node state lives in dense arrays indexed by node id (builder ids
   are dense 0..size-1).

   The issue order is observable through [Schedule.t.order], so every
   ordering decision replicates the original list-based semantics exactly:

   - the ready set behaves as a stack (newly ready operations are
     considered first among equals);
   - each step stable-sorts it by decreasing urgency and issues in that
     order while units are free; the operations left over are pushed back
     in sorted order, so the next step sees them reversed;
   - retirements are processed newest-issued-first, matching the order a
     prepend-built in-flight list yields.

   Sorting the whole ready set every step costs O(ready) per step, and a
   wide graph keeps hundreds of operations ready for hundreds of steps.
   Two facts remove that cost.  First, units are per class, so a step
   issues, for each class [c], the first [free c] class-[c] operations of
   the sorted order, whatever the other classes hold.  Second, the order
   only ever changes at its ends: each step reverses every run of equal
   urgency and puts the newly ready in front of their run.  So each
   (class, urgency) run is a deque of ids ordered by a per-urgency
   coordinate, and one global flag says which end of every run is
   currently its front.  A step pops the fronts of each class's most
   urgent runs (kept per class in a set of urgencies) and sorts only the
   operations it issued, by urgency and coordinate, to recover their
   interleaving.  Cost: O(log ready) per operation plus O(classes + units
   in flight) per step. *)

module IntSet = Set.Make (Int)

exception No_progress of { graph : string; ops : int; bound : int }

let () =
  Printexc.register_printer (function
    | No_progress { graph; ops; bound } ->
        Some
          (Printf.sprintf
             "List_sched.No_progress(graph %S, %d ops, %d iterations)" graph
             ops bound)
    | _ -> None)

let run ~latency ~alloc g =
  Schedule.validate_alloc alloc;
  let ops = Chop_dfg.Graph.operations g in
  List.iter
    (fun n ->
      let cls = Chop_dfg.Op.functional_class n.Chop_dfg.Graph.op in
      if Schedule.alloc_get alloc cls < 1 then
        invalid_arg (Printf.sprintf "List_sched.run: no units allocated for %s" cls);
      if latency n < 1 then
        invalid_arg
          (Printf.sprintf "List_sched.run: latency of %s must be >= 1"
             n.Chop_dfg.Graph.name))
    ops;
  let n = Chop_dfg.Graph.size g in
  let op_count = List.length ops in
  let classes = Array.of_list (List.map fst alloc) in
  let free = Array.of_list (List.map snd alloc) in
  let class_index cls =
    let rec go i =
      if i >= Array.length classes then
        invalid_arg ("List_sched.run: no units allocated for " ^ cls)
      else if String.equal classes.(i) cls then i
      else go (i + 1)
    in
    go 0
  in
  (* per-node state; [cls_idx]/[pending] stay -1 on boundary nodes *)
  let lat = Array.make (max 1 n) 0 in
  let cls_idx = Array.make (max 1 n) (-1) in
  let pending = Array.make (max 1 n) (-1) in
  let urg = Array.make (max 1 n) 0 in
  List.iter
    (fun nd ->
      let id = nd.Chop_dfg.Graph.id in
      lat.(id) <- latency nd;
      cls_idx.(id) <- class_index (Chop_dfg.Op.functional_class nd.Chop_dfg.Graph.op);
      pending.(id) <-
        List.fold_left
          (fun acc p ->
            if
              Chop_dfg.Op.is_computational
                (Chop_dfg.Graph.node g p).Chop_dfg.Graph.op
            then acc + 1
            else acc)
          0
          (Chop_dfg.Graph.preds g id))
    ops;
  (* urgency: longest latency chain to any sink, inclusive (Sehwa's
     measure); a sweep over reverse topological order *)
  List.iter
    (fun nd ->
      let id = nd.Chop_dfg.Graph.id in
      let downstream =
        List.fold_left
          (fun best s -> max best urg.(s))
          0
          (Chop_dfg.Graph.succs g id)
      in
      urg.(id) <- lat.(id) + downstream)
    (List.rev (Chop_dfg.Graph.nodes g));
  (* deque storage: key (class, urgency) owns 2 x (its op count) slots
     of [buf], starting from the middle, enough for any mix of front and
     back insertions *)
  let n_cls = Array.length classes in
  let width = 1 + Array.fold_left max 0 urg in
  let key id = (cls_idx.(id) * width) + urg.(id) in
  let per_key = Array.make (n_cls * width) 0 in
  List.iter
    (fun nd ->
      let id = nd.Chop_dfg.Graph.id in
      per_key.(key id) <- per_key.(key id) + 1)
    ops;
  let head = Array.make (n_cls * width) 0 in
  let tail = Array.make (n_cls * width) 0 in
  let base = ref 0 in
  Array.iteri
    (fun k count ->
      head.(k) <- !base + count;
      tail.(k) <- !base + count;
      base := !base + (2 * count))
    per_key;
  let buf = Array.make (max 1 !base) 0 in
  (* position of each ready op within its urgency run, shared by all
     classes; new coordinates go below [lo] or at [hi] *)
  let coord = Array.make (max 1 n) 0 in
  let lo = Array.make width 0 and hi = Array.make width 0 in
  (* per class: the urgencies of its non-empty runs *)
  let runs = Array.make n_cls IntSet.empty in
  (* the front of every run is its low-coordinate end when [forward] *)
  let forward = ref false in
  let fresh = Array.make (max 1 n) 0 and fresh_n = ref 0 in
  let push_ready id =
    fresh.(!fresh_n) <- id;
    incr fresh_n
  in
  List.iter
    (fun nd -> if pending.(nd.Chop_dfg.Graph.id) = 0 then push_ready nd.Chop_dfg.Graph.id)
    ops;
  (* operations issued in the current step *)
  let batch = Array.make (max 1 op_count) 0 in
  (* operations in flight: finish step + id, newest at the highest index *)
  let fin_step = Array.make (max 1 op_count) 0 in
  let fin_id = Array.make (max 1 op_count) 0 in
  let fin_n = ref 0 in
  let issued = Array.make op_count 0 in
  let start_at = Array.make (max 1 n) 0 in
  let issued_n = ref 0 in
  let step = ref 0 in
  (* Each iteration either issues an operation or fast-forwards [step] to
     the next retirement, so a terminating run takes at most on the order
     of the fully serialized schedule length (op_count x max latency)
     iterations.  The guard is scaled to that bound — a fixed constant
     both under-protects huge graphs and fires spuriously on them — and
     raises a typed exception naming the (sub)graph, which carries the
     partition label for induced partition subgraphs. *)
  let max_lat = Array.fold_left max 1 lat in
  let bound = 64 + (4 * op_count * max_lat) in
  let guard = ref 0 in
  while !issued_n < op_count do
    incr guard;
    if !guard > bound then
      raise (No_progress { graph = Chop_dfg.Graph.name g; ops = op_count; bound });
    (* retire, newest-issued-first *)
    if !fin_n > 0 then begin
      for i = !fin_n - 1 downto 0 do
        if fin_step.(i) <= !step then begin
          let id = fin_id.(i) in
          free.(cls_idx.(id)) <- free.(cls_idx.(id)) + 1;
          List.iter
            (fun s ->
              if pending.(s) >= 0 then begin
                pending.(s) <- pending.(s) - 1;
                if pending.(s) = 0 then push_ready s
              end)
            (Chop_dfg.Graph.succs g id)
        end
      done;
      (* compact the survivors in place, preserving their order *)
      let w = ref 0 in
      for i = 0 to !fin_n - 1 do
        if fin_step.(i) > !step then begin
          fin_step.(!w) <- fin_step.(i);
          fin_id.(!w) <- fin_id.(i);
          incr w
        end
      done;
      fin_n := !w
    end;
    (* every run reverses; then the newly ready, newest first, go in front
       of their run: pushing them oldest first at the front end does that *)
    forward := not !forward;
    for i = 0 to !fresh_n - 1 do
      let id = fresh.(i) in
      let u = urg.(id) and k = key id in
      if !forward then begin
        lo.(u) <- lo.(u) - 1;
        coord.(id) <- lo.(u);
        head.(k) <- head.(k) - 1;
        buf.(head.(k)) <- id
      end
      else begin
        coord.(id) <- hi.(u);
        hi.(u) <- hi.(u) + 1;
        buf.(tail.(k)) <- id;
        tail.(k) <- tail.(k) + 1
      end;
      runs.(cls_idx.(id)) <- IntSet.add u runs.(cls_idx.(id))
    done;
    fresh_n := 0;
    (* per class, take the fronts of the most urgent runs while units are
       free *)
    let nb = ref 0 in
    for c = 0 to n_cls - 1 do
      while free.(c) > 0 && not (IntSet.is_empty runs.(c)) do
        let u = IntSet.max_elt runs.(c) in
        let k = (c * width) + u in
        let id =
          if !forward then begin
            head.(k) <- head.(k) + 1;
            buf.(head.(k) - 1)
          end
          else begin
            tail.(k) <- tail.(k) - 1;
            buf.(tail.(k))
          end
        in
        if head.(k) = tail.(k) then runs.(c) <- IntSet.remove u runs.(c);
        free.(c) <- free.(c) - 1;
        batch.(!nb) <- id;
        incr nb
      done
    done;
    (* issue order: decreasing urgency, then front to back within a run *)
    let before a b =
      urg.(a) > urg.(b)
      || urg.(a) = urg.(b)
         && if !forward then coord.(a) < coord.(b) else coord.(a) > coord.(b)
    in
    for i = 1 to !nb - 1 do
      let v = batch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && before v batch.(!j) do
        batch.(!j + 1) <- batch.(!j);
        decr j
      done;
      batch.(!j + 1) <- v
    done;
    for i = 0 to !nb - 1 do
      let id = batch.(i) in
      issued.(!issued_n) <- id;
      incr issued_n;
      start_at.(id) <- !step;
      fin_step.(!fin_n) <- !step + lat.(id);
      fin_id.(!fin_n) <- id;
      incr fin_n
    done;
    incr step;
    (* fast-forward to the next retirement when nothing can issue *)
    if !issued_n < op_count && !fin_n > 0 then begin
      let next = ref max_int in
      for i = 0 to !fin_n - 1 do
        if fin_step.(i) < !next then next := fin_step.(i)
      done;
      if !next > !step then step := !next
    end
  done;
  Schedule.make ~graph:g ~alloc ~order:issued
    ~start:(fun id -> start_at.(id))
    ~latency:(fun id -> lat.(id))
    ()

let minimal_alloc g =
  Chop_dfg.Graph.op_profile g |> List.map (fun (cls, _) -> (cls, 1))

let maximal_useful_alloc ?latency g =
  let profile =
    match latency with
    | Some latency -> Chop_dfg.Analysis.max_width_profile ~latency g
    | None -> Chop_dfg.Analysis.max_width_profile g
  in
  profile
