(* Output checkers.  Every checker compares the program's output with a
   computation made apart from the program, or with a property the method
   must have; none compares against a stored copy of earlier output.  Each
   returns the list of violations it found, empty when the output passes.
   The checkers take plain views of the outputs so that the tests in
   test_checks.ml can plant wrong outputs and confirm each one is caught. *)

module G = Chop_dfg.Graph

let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt

(* ---- BAD predictions (large-graphs) ---- *)

type pred_view = {
  latency : int;  (** latency_dp *)
  ii : int;  (** ii_dp *)
  alloc : (string * int) list;
  area : float * float * float;  (** low, likely, high *)
  cp : int;  (** critical path under the prediction's own latency function *)
  work : (string * int) list;
      (** per functional class: data-path cycles of unit occupancy the
          graph demands under the same latency function *)
}

let view_prediction cfg g (p : Chop_bad.Prediction.t) =
  let lat n =
    if Chop_dfg.Op.is_computational n.G.op then
      Chop_bad.Predictor.latency_function cfg
        ~module_set:p.Chop_bad.Prediction.module_set n
    else 0
  in
  let work = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let c = Chop_dfg.Op.functional_class n.G.op in
      Hashtbl.replace work c
        (lat n + Option.value ~default:0 (Hashtbl.find_opt work c)))
    (G.operations g);
  let a = p.Chop_bad.Prediction.area in
  {
    latency = p.Chop_bad.Prediction.timing.Chop_bad.Prediction.latency_dp;
    ii = p.Chop_bad.Prediction.timing.Chop_bad.Prediction.ii_dp;
    alloc = p.Chop_bad.Prediction.alloc;
    area = Chop_util.Triplet.(a.low, a.likely, a.high);
    cp = Chop_dfg.Analysis.critical_path ~latency:lat g;
    work = List.sort compare (Hashtbl.fold (fun c w acc -> (c, w) :: acc) work []);
  }

let ceil_div a b = (a + b - 1) / b

let check_prediction v =
  let lo, li, hi = v.area in
  List.concat
    [
      (if v.latency < v.cp then fail "latency %d below critical path %d" v.latency v.cp
       else []);
      (if v.ii > v.latency then fail "II %d above latency %d" v.ii v.latency else []);
      (if v.ii < 1 then fail "II %d below 1" v.ii else []);
      (if not (lo <= li && li <= hi) then
         fail "area triplet out of order: %g %g %g" lo li hi
       else []);
      List.concat_map
        (fun (cls, w) ->
          match List.assoc_opt cls v.alloc with
          | None | Some 0 -> fail "class %s has work but no units" cls
          | Some units ->
              let bound = ceil_div w units in
              (if v.latency < bound then
                 fail "latency %d below %s resource bound %d" v.latency cls bound
               else [])
              @
              if v.ii < bound then fail "II %d below %s resource bound %d" v.ii cls bound
              else [])
        v.work;
    ]

let canon_stable ~digest ~renumbered_digest =
  if digest <> renumbered_digest then
    fail "Canon.digest changed under renumbering: %s vs %s" digest renumbered_digest
  else []

(* ---- searches (paper-sweep) ---- *)

let best (o : Chop.Search.outcome) =
  match o.Chop.Search.feasible with
  | [] -> None
  | s :: _ -> Some (Chop.Search.Row.of_system s)

let same_best ~e ~b =
  if e <> b then fail "enumeration and branch-and-bound disagree on the best design"
  else []

let iter_not_faster ~e ~i =
  match (e, i) with
  | _, None -> []
  | None, Some _ -> fail "iterative found a design enumeration did not"
  | Some e, Some i ->
      if i.Chop.Search.Row.perf_ns < e.Chop.Search.Row.perf_ns then
        fail "iterative best %.3f ns faster than enumeration best %.3f ns"
          i.Chop.Search.Row.perf_ns e.Chop.Search.Row.perf_ns
      else []

let identical ~what a b = if a <> b then fail "%s differ" what else []

(* A feasible design must meet the performance constraint and fit every
   chip's package pins. *)
type design_view = { perf : float; pins : (string * int * int) list  (** chip, used, package *) }

let view_system (s : Chop.Integration.system) =
  {
    perf = s.Chop.Integration.perf_ns;
    pins =
      List.map
        (fun (r : Chop.Integration.chip_report) ->
          ( r.Chop.Integration.instance.Chop.Spec.chip_name,
            r.Chop.Integration.signal_pins,
            r.Chop.Integration.instance.Chop.Spec.package.Chop_tech.Chip.pins ))
        s.Chop.Integration.chip_reports;
  }

let feasible_meets ~perf_constraint designs =
  List.concat_map
    (fun d ->
      (if d.perf > perf_constraint then
         fail "feasible design at %.1f ns misses the %.1f ns constraint" d.perf
           perf_constraint
       else [])
      @ List.concat_map
          (fun (chip, used, pins) ->
            if used > pins then fail "chip %s bonds %d of %d pins" chip used pins
            else [])
          d.pins)
    designs

(* ---- automatic partitioning (auto-refine) ---- *)

(* Every computational operation lies in exactly one partition. *)
let covers_once ~ops ~parts =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m -> Hashtbl.replace seen m (1 + Option.value ~default:0 (Hashtbl.find_opt seen m)))
    (List.concat parts);
  List.concat_map
    (fun op ->
      match Hashtbl.find_opt seen op with
      | Some 1 -> []
      | None -> fail "operation %d in no partition" op
      | Some n -> fail "operation %d in %d partitions" op n)
    ops
  @ Hashtbl.fold
      (fun m _ acc -> if List.mem m ops then acc else fail "unknown member %d" m @ acc)
      seen []

let stimuli ~seed g =
  let st = Random.State.make [| seed |] in
  List.map (fun n -> (n.G.name, Random.State.int st 1_000_000)) (G.inputs g)

let same_function ~whole ~partitioned =
  if whole <> partitioned then fail "partitioned evaluation differs from the whole graph"
  else []

(* The score the refinement optimises: feasible ranks above infeasible, then
   lower performance, then lower likely area. *)
type score = { feasible : bool; perf : float; area : float }

let score_of (r : Chop.Explore.report) =
  match r.Chop.Explore.outcome.Chop.Search.feasible with
  | [] -> { feasible = false; perf = infinity; area = infinity }
  | s :: _ ->
      let o = Chop.Integration.objectives s in
      { feasible = true; perf = o.(0); area = o.(2) }

let better_or_equal a b =
  match (a.feasible, b.feasible) with
  | true, false -> true
  | false, true -> false
  | _ -> a.perf < b.perf || (a.perf = b.perf && a.area <= b.area)

let not_worse ~result ~seed =
  if not (better_or_equal result seed) then
    fail "result (%b, %.1f ns, %.0f) worse than its seed (%b, %.1f ns, %.0f)"
      result.feasible result.perf result.area seed.feasible seed.perf seed.area
  else []

(* ---- the service (traced-run probe) ---- *)

let response_matches ~what ~expected (resp : Chop_util.Json.t) =
  match Chop_server.Protocol.response_ok resp with
  | Some true -> (
      match Chop_server.Protocol.response_text resp with
      | Some t when t = expected -> []
      | Some _ -> fail "%s: text differs from the in-process rendering" what
      | None -> fail "%s: response has no text" what)
  | _ -> fail "%s: response not ok: %s" what (Chop_util.Json.print resp)
