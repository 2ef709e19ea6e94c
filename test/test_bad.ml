(* Tests for chop_bad: data-path estimation, controller prediction,
   allocation enumeration, feasibility criteria and the BAD predictor. *)

open Chop_bad

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ar () = Chop_dfg.Benchmarks.ar_lattice_filter ()

let clocks1 = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:10 ~transfer_ratio:1
let clocks2 = Chop_tech.Clocking.make ~main:300. ~datapath_ratio:1 ~transfer_ratio:1

let cfg1 () =
  Predictor.config ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
    ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()

let cfg2 () =
  Predictor.config ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks2
    ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle) ()

let chip_area =
  Chop_tech.Chip.usable_area Chop_tech.Mosis.package_84 ~signal_pins:42

let criteria1 = Feasibility.criteria ~perf:30000. ~delay:30000. ()

let mset names =
  List.map (fun name -> Chop_tech.Component.find Chop_tech.Mosis.experiment_library ~name) names

(* ------------------------------------------------------------------ *)
(* Datapath *)

let sched alloc =
  Chop_sched.List_sched.run ~latency:(fun _ -> 1) ~alloc (ar ())

let test_datapath_estimate_positive () =
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 2); ("mult", 2) ]) in
  Alcotest.(check bool) "registers" true (est.Datapath.register_bits > 0);
  Alcotest.(check bool) "muxes" true (est.Datapath.mux_count > 0);
  Alcotest.(check bool) "nets" true (est.Datapath.nets > 0);
  Alcotest.(check (float 1e-6)) "fu area = 2 adders + 2 mults"
    ((2. *. 2880.) +. (2. *. 9800.)) est.Datapath.fu_area

let test_datapath_sharing_increases_muxes () =
  let shared = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 1); ("mult", 1) ]) in
  let parallel = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 12); ("mult", 16) ]) in
  Alcotest.(check bool) "more sharing, more muxes" true
    (shared.Datapath.mux_count > parallel.Datapath.mux_count)

let test_datapath_mux_select_delay () =
  let shared = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 1); ("mult", 1) ]) in
  Alcotest.(check bool) "tree delay present" true (shared.Datapath.mux_select_delay > 0.)

let test_datapath_register_area_consistent () =
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) (sched [ ("add", 2); ("mult", 2) ]) in
  Alcotest.(check (float 1e-6)) "31 mil^2 per bit"
    (float_of_int est.Datapath.register_bits *. 31.) est.Datapath.register_area

(* ------------------------------------------------------------------ *)
(* Control *)

let test_control_shape_states () =
  let s = sched [ ("add", 2); ("mult", 2) ] in
  let est = Datapath.estimate ~module_set:(mset [ "add2"; "mul2" ]) s in
  let seq = Control.shape ~sched:s ~est ~ii:4 ~pipelined:false in
  let pipe = Control.shape ~sched:s ~est ~ii:4 ~pipelined:true in
  (* a pipelined controller wraps at the initiation interval *)
  Alcotest.(check bool) "pipelined has fewer terms" true
    (pipe.Chop_tech.Pla.product_terms < seq.Chop_tech.Pla.product_terms);
  Alcotest.(check bool) "area positive" true (Control.area seq > 0.);
  Alcotest.(check bool) "delay positive" true (Control.delay seq > 0.)

(* ------------------------------------------------------------------ *)
(* Alloc_enum *)

let test_alloc_enum_box () =
  let allocs = Alloc_enum.enumerate ~cap:8 ~latency:(fun _ -> 1) ~memport_units:[] (ar ()) in
  (* add 1..3, mult 1..4 on the AR lattice *)
  Alcotest.(check int) "12 allocations" 12 (List.length allocs);
  List.iter (fun a -> Chop_sched.Schedule.validate_alloc a) allocs

let test_alloc_enum_cap () =
  let allocs = Alloc_enum.enumerate ~cap:2 ~latency:(fun _ -> 1) ~memport_units:[] (ar ()) in
  Alcotest.(check int) "capped to 2x2" 4 (List.length allocs);
  List.iter
    (fun a -> List.iter (fun (_, n) -> Alcotest.(check bool) "within cap" true (n <= 2)) a)
    allocs

let test_alloc_enum_memport () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let units = [ ("memport:A", 2); ("memport:B", 1) ] in
  let allocs = Alloc_enum.enumerate ~cap:4 ~latency:(fun _ -> 1) ~memport_units:units g in
  List.iter
    (fun a ->
      Alcotest.(check int) "port A fixed" 2 (Chop_sched.Schedule.alloc_get a "memport:A");
      Alcotest.(check int) "port B fixed" 1 (Chop_sched.Schedule.alloc_get a "memport:B"))
    allocs;
  match Alloc_enum.enumerate ~cap:4 ~latency:(fun _ -> 1) ~memport_units:[] g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing port declaration accepted for memory graph"

(* ------------------------------------------------------------------ *)
(* Feasibility *)

let test_criteria_defaults () =
  let c = Feasibility.criteria ~perf:1000. ~delay:2000. () in
  Alcotest.(check (float 1e-9)) "perf prob" 1.0 c.Feasibility.perf_prob;
  Alcotest.(check (float 1e-9)) "delay prob" 0.8 c.Feasibility.delay_prob;
  Alcotest.(check bool) "no power budget" true (c.Feasibility.power_budget = None)

let test_criteria_validates () =
  (match Feasibility.criteria ~perf:0. ~delay:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "perf 0 accepted");
  match Feasibility.criteria ~perf_prob:1.5 ~perf:1. ~delay:1. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "prob > 1 accepted"

let test_check_area () =
  let c = criteria1 in
  let small = Chop_util.Triplet.spread 100. in
  Alcotest.(check bool) "fits" true
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ small ]));
  let big = Chop_util.Triplet.spread 2000. in
  Alcotest.(check bool) "overflows" false
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ big ]))

let test_check_area_at_prob_boundary () =
  (* area_prob = 1.0 demands the upper bound fits *)
  let c = criteria1 in
  let t = Chop_util.Triplet.make ~low:500. ~likely:800. ~high:1100. in
  Alcotest.(check bool) "high > available fails" false
    (Feasibility.is_feasible (Feasibility.check_area c ~available:1000. [ t ]));
  let relaxed = Feasibility.criteria ~area_prob:0.5 ~perf:1. ~delay:1. () in
  Alcotest.(check bool) "relaxed passes" true
    (Feasibility.is_feasible (Feasibility.check_area relaxed ~available:1000. [ t ]))

let test_check_perf_delay_power () =
  let c = criteria1 in
  Alcotest.(check bool) "perf ok" true
    (Feasibility.is_feasible (Feasibility.check_perf c 30000.));
  Alcotest.(check bool) "perf bad" false
    (Feasibility.is_feasible (Feasibility.check_perf c 30001.));
  Alcotest.(check bool) "delay ok at 0.8" true
    (Feasibility.is_feasible
       (Feasibility.check_delay c (Chop_util.Triplet.make ~low:29000. ~likely:29500. ~high:30100.)));
  Alcotest.(check bool) "power unconstrained" true
    (Feasibility.is_feasible (Feasibility.check_power c 1e9));
  let pc = Feasibility.criteria ~power_budget:10. ~perf:1. ~delay:1. () in
  Alcotest.(check bool) "power bad" false
    (Feasibility.is_feasible (Feasibility.check_power pc 11.))

(* ------------------------------------------------------------------ *)
(* Predictor *)

let test_predict_counts_exp1 () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  (* 9 module sets x 12 allocations x styles: a few hundred predictions *)
  Alcotest.(check bool) "hundreds of predictions" true
    (List.length preds > 100 && List.length preds < 1000)

let test_predict_multicycle_finer () =
  let p1 = List.length (Predictor.predict (cfg1 ()) ~label:"P1" (ar ())) in
  let p2 = List.length (Predictor.predict (cfg2 ()) ~label:"P1" (ar ())) in
  Alcotest.(check bool) "multi-cycle explores more" true (p2 > p1)

let test_predict_empty_graph () =
  let b = Chop_dfg.Graph.builder () in
  let i = Chop_dfg.Graph.add_node b ~op:Chop_dfg.Op.Input ~width:8 in
  ignore i;
  let g = Chop_dfg.Graph.build b in
  Alcotest.(check int) "no ops, no predictions" 0
    (List.length (Predictor.predict (cfg1 ()) ~label:"X" g))

let test_predict_uncovered_library () =
  let cfg =
    Predictor.config ~library:[ Chop_tech.Mosis.register_cell ] ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  Alcotest.(check int) "no coverage, no predictions" 0
    (List.length (Predictor.predict cfg ~label:"X" (ar ())))

let test_predict_undeclared_memory_rejected () =
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  match Predictor.predict (cfg1 ()) ~label:"X" g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared memory accepted"

let test_predict_with_memories () =
  let m name =
    Chop_tech.Memory.make ~name ~words:64 ~word_width:16 ~ports:1 ~access:120.
      ~placement:(Chop_tech.Memory.On_chip 4000.)
  in
  let cfg =
    Predictor.config ~memories:[ m "A"; m "B" ]
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks2
      ~style:(Chop_tech.Style.both Chop_tech.Style.Multi_cycle) ()
  in
  let g = Chop_dfg.Benchmarks.memory_pipeline ~blocks:("A", "B") () in
  let preds = Predictor.predict cfg ~label:"M" g in
  Alcotest.(check bool) "predictions exist" true (List.length preds > 0);
  let p = List.hd preds in
  Alcotest.(check bool) "memory bandwidth recorded" true
    (List.mem_assoc "A" p.Prediction.mem_bandwidth
    && List.mem_assoc "B" p.Prediction.mem_bandwidth)

let test_predictions_internally_consistent () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "ii <= latency" true
        (p.Prediction.timing.ii_dp <= p.Prediction.timing.latency_dp);
      Alcotest.(check bool) "clock >= main" true
        (p.Prediction.timing.clock_main >= 300.);
      Alcotest.(check bool) "area ordered" true
        Chop_util.Triplet.(p.Prediction.area.low <= p.Prediction.area.high);
      Alcotest.(check bool) "positive area" true
        Chop_util.Triplet.(p.Prediction.area.low > 0.);
      match p.Prediction.style with
      | Chop_tech.Style.Pipelined ->
          Alcotest.(check bool) "pipelined beats restart" true
            (p.Prediction.timing.ii_dp < p.Prediction.timing.latency_dp)
      | Chop_tech.Style.Non_pipelined ->
          Alcotest.(check int) "nonpipelined ii = latency"
            p.Prediction.timing.latency_dp p.Prediction.timing.ii_dp)
    preds

(* Prediction pins: a digest of the whole predict output for one random
   DAG, recorded from the list-based scheduler, so any drift in
   tie-breaking or in a BAD stage fails here.  The digest covers each
   prediction's style, module set, allocation, timing, area triplet,
   register bits and mux count, in output order. *)
let prediction_digest preds =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (p : Prediction.t) ->
      let t = p.Prediction.timing and a = p.Prediction.area in
      Printf.bprintf buf "%s|%s|%s|%d|%d|%d|%.17g|%.17g|%.17g|%.17g|%.17g|%d|%d\n"
        (match p.Prediction.style with
        | Chop_tech.Style.Pipelined -> "p"
        | Chop_tech.Style.Non_pipelined -> "n")
        (String.concat ","
           (List.map (fun c -> c.Chop_tech.Component.cname) p.Prediction.module_set))
        (String.concat ","
           (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) p.Prediction.alloc))
        t.Prediction.ii_dp t.Prediction.latency_dp t.Prediction.stages
        t.Prediction.clock_main t.Prediction.overhead a.Chop_util.Triplet.low
        a.Chop_util.Triplet.likely a.Chop_util.Triplet.high
        p.Prediction.register_bits p.Prediction.mux_count)
    preds;
  Printf.sprintf "%d:%s" (List.length preds)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_predictions_pinned () =
  List.iter
    (fun (ops, style, cfg, expected) ->
      let g = Chop_dfg.Benchmarks.random_dag ~ops ~seed:7 () in
      Alcotest.(check string)
        (Printf.sprintf "%d ops, %s" ops style)
        expected
        (prediction_digest (Predictor.predict (cfg ()) ~label:"P1" g)))
    [
      (100, "single-cycle", cfg1, "576:6fc9c06e13ff058dc6c6e84314e84627");
      (100, "multi-cycle", cfg2, "465:cd5dea1bfb626b173b21013292a23ce1");
      (300, "single-cycle", cfg1, "576:14e5852bc7d81e423e3ad693212945ae");
      (300, "multi-cycle", cfg2, "576:43d955ad2a0fc9c4ca17af859411a65a");
    ]

let test_single_cycle_clock_stretches () =
  (* a mul3-based single-cycle design cannot run at the nominal clock:
     7370 ns exceeds the 3000 ns data-path cycle *)
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let mul3_preds =
    List.filter
      (fun p ->
        List.exists
          (fun c -> c.Chop_tech.Component.cname = "mul3")
          p.Prediction.module_set)
      preds
  in
  Alcotest.(check bool) "mul3 predictions exist" true (mul3_preds <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool) "stretched clock" true
        (p.Prediction.timing.clock_main > 700.))
    mul3_preds

let test_prune_keeps_feasible_frontier () =
  let cfg = cfg1 () in
  let preds = Predictor.predict cfg ~label:"P1" (ar ()) in
  let kept = Predictor.prune cfg ~criteria:criteria1 ~chip_area preds in
  Alcotest.(check bool) "something survives" true (List.length kept > 0);
  Alcotest.(check bool) "prune shrinks" true (List.length kept < List.length preds);
  List.iter
    (fun p ->
      Alcotest.(check bool) "survivor is feasible" true
        (Feasibility.is_feasible
           (Feasibility.partition_level criteria1 ~clocks:clocks1 ~chip_area p)))
    kept

let test_testability_overhead_grows_area () =
  let plain = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let cfg_t =
    Predictor.config ~testability_overhead:0.15
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let scanned = Predictor.predict cfg_t ~label:"P1" (ar ()) in
  let mean_area ps =
    Chop_util.Listx.sum_byf (fun p -> Chop_util.Triplet.mean p.Prediction.area) ps
    /. float_of_int (List.length ps)
  in
  Alcotest.(check bool) "scan costs ~15% area" true
    (mean_area scanned > 1.1 *. mean_area plain)

let test_describe_mentions_decisions () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let text = Prediction.describe clocks1 (List.hd preds) in
  Alcotest.(check bool) "mentions style" true
    (contains text "design style");
  Alcotest.(check bool) "mentions registers" true
    (contains text "registers");
  Alcotest.(check bool) "mentions multiplexers" true
    (contains text "multiplexers")

let test_compare_speed_orders () =
  let preds = Predictor.predict (cfg1 ()) ~label:"P1" (ar ()) in
  let sorted = List.sort Prediction.compare_speed preds in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Prediction.timing.ii_dp <= b.Prediction.timing.ii_dp && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "ascending ii" true (monotone sorted)

let test_force_directed_scheduler_option () =
  let cfg =
    Predictor.config ~scheduler:Predictor.Force_directed
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let preds = Predictor.predict cfg ~label:"P1" (ar ()) in
  Alcotest.(check bool) "fds path produces predictions" true (List.length preds > 50);
  (* every prediction remains internally consistent *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "ii <= latency" true
        (p.Prediction.timing.ii_dp <= p.Prediction.timing.latency_dp))
    preds

let test_chaining_improves_single_cycle () =
  let plain = cfg1 () in
  let chained =
    Chop_bad.Predictor.config ~chaining:true
      ~library:Chop_tech.Mosis.experiment_library ~clocks:clocks1
      ~style:(Chop_tech.Style.both Chop_tech.Style.Single_cycle) ()
  in
  let best cfg =
    Chop_bad.Predictor.predict cfg ~label:"P1" (ar ())
    |> List.fold_left
         (fun acc p -> min acc p.Chop_bad.Prediction.timing.Chop_bad.Prediction.latency_dp)
         max_int
  in
  Alcotest.(check bool) "chaining reaches shorter latencies" true
    (best chained < best plain)

(* ------------------------------------------------------------------ *)
(* Software model *)

let cpu ?(name = "cpu") ?(issue = 4) ?(mem = 4096.) () =
  Chop_model_sw.Processor.make ~name ~issue_slots:issue ~cycle_ns:300.
    ~code_bytes_per_op:4 ~data_bytes_per_value:2 ~memory_budget_bytes:mem
    ~bus_bits:16

let test_sw_predict_one_per_width () =
  let preds =
    Chop_model_sw.Sw_predict.predict (cpu ()) ~clocks:clocks2 ~label:"S" (ar ())
  in
  Alcotest.(check int) "one prediction per issue width" 4 (List.length preds);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "issue width recorded" (i + 1)
        (List.assoc "issue" p.Prediction.alloc);
      Alcotest.(check int) "sequential execution: ii = latency"
        p.Prediction.timing.latency_dp p.Prediction.timing.ii_dp;
      Alcotest.(check (float 1e-9)) "system clock untouched" 300.
        p.Prediction.timing.clock_main;
      Alcotest.(check bool) "footprint is exact" true
        Chop_util.Triplet.(p.Prediction.area.low = p.Prediction.area.high))
    preds

let test_sw_wider_issue_shortens_schedule () =
  let preds =
    Chop_model_sw.Sw_predict.predict (cpu ()) ~clocks:clocks2 ~label:"S" (ar ())
  in
  let iis = List.map (fun p -> p.Prediction.timing.ii_dp) preds in
  let rec weakly_dec = function
    | a :: (b :: _ as rest) -> a >= b && weakly_dec rest
    | _ -> true
  in
  Alcotest.(check bool) "cycle count weakly decreases with width" true
    (weakly_dec iis);
  Alcotest.(check bool) "width 4 strictly beats width 1" true
    (List.nth iis 3 < List.hd iis)

let test_sw_footprint_is_code_plus_data () =
  let p = cpu () in
  let sub = ar () in
  List.iteri
    (fun i pr ->
      let cycles = pr.Prediction.timing.ii_dp in
      let code, data =
        Chop_model_sw.Sw_predict.footprint_bytes p ~issue:(i + 1) ~cycles sub
      in
      Alcotest.(check (float 1e-9)) "area triplet carries code+data bytes"
        (float_of_int (code + data))
        pr.Prediction.area.Chop_util.Triplet.likely;
      Alcotest.(check int) "register bits mirror the data bytes" (data * 8)
        pr.Prediction.register_bits)
    (Chop_model_sw.Sw_predict.predict p ~clocks:clocks2 ~label:"S" sub)

let test_sw_budget_screens_footprint () =
  let model mem = Chop.Model.Software (cpu ~mem ()) in
  let cfg = cfg2 () in
  let preds = Chop.Model.predict (model 4096.) cfg ~label:"S" (ar ()) in
  Alcotest.(check bool) "predictions exist" true (preds <> []);
  Alcotest.(check bool) "a roomy budget keeps an implementation" true
    (Chop.Model.prune (model 4096.) cfg ~criteria:criteria1 ~capacity:4096.
       preds
    <> []);
  Alcotest.(check int) "a 32-byte budget keeps none" 0
    (List.length
       (Chop.Model.prune (model 32.) cfg ~criteria:criteria1 ~capacity:32.
          preds))

let test_cache_keys_disjoint_across_models () =
  let sub = ar () in
  let cfg = cfg1 () in
  let id model =
    Chop.Pred_cache.Key.raw_id (Chop.Pred_cache.Key.raw ~sub ~cfg ~model)
  in
  let hw = id Chop.Model.Hardware in
  let sw = id (Chop.Model.Software (cpu ())) in
  Alcotest.(check bool) "hardware and software keys never collide" true
    (hw <> sw);
  Alcotest.(check bool) "processor parameters are cache identity" true
    (sw <> id (Chop.Model.Software (cpu ~issue:2 ())));
  Alcotest.(check string) "equal processors, equal keys" sw
    (id (Chop.Model.Software (cpu ())));
  (* content addressing holds within each model: a renumbered isomorphic
     graph probes the same entry *)
  let renum = Chop_dfg.Transform.renumber sub in
  let id' model =
    Chop.Pred_cache.Key.raw_id
      (Chop.Pred_cache.Key.raw ~sub:renum ~cfg ~model)
  in
  Alcotest.(check string) "hw key is structural" hw (id' Chop.Model.Hardware);
  Alcotest.(check string) "sw key is structural" sw
    (id' (Chop.Model.Software (cpu ())))

let predictor_deterministic =
  QCheck.Test.make ~name:"predictor is deterministic" ~count:5
    QCheck.(0 -- 3)
    (fun k ->
      let g =
        if k = 0 then ar () else Chop_dfg.Benchmarks.fir_filter ~taps:(4 + k) ()
      in
      let a = Predictor.predict (cfg1 ()) ~label:"X" g in
      let b = Predictor.predict (cfg1 ()) ~label:"X" g in
      List.length a = List.length b)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chop_bad"
    [
      ( "datapath",
        [
          tc "estimate positive" `Quick test_datapath_estimate_positive;
          tc "sharing increases muxes" `Quick test_datapath_sharing_increases_muxes;
          tc "mux select delay" `Quick test_datapath_mux_select_delay;
          tc "register area" `Quick test_datapath_register_area_consistent;
        ] );
      ("control", [ tc "shape" `Quick test_control_shape_states ]);
      ( "alloc_enum",
        [
          tc "box" `Quick test_alloc_enum_box;
          tc "cap" `Quick test_alloc_enum_cap;
          tc "memport" `Quick test_alloc_enum_memport;
        ] );
      ( "feasibility",
        [
          tc "defaults" `Quick test_criteria_defaults;
          tc "validates" `Quick test_criteria_validates;
          tc "check area" `Quick test_check_area;
          tc "area probability boundary" `Quick test_check_area_at_prob_boundary;
          tc "perf/delay/power" `Quick test_check_perf_delay_power;
        ] );
      ( "predictor",
        [
          tc "counts (exp 1)" `Quick test_predict_counts_exp1;
          tc "multi-cycle finer" `Quick test_predict_multicycle_finer;
          tc "empty graph" `Quick test_predict_empty_graph;
          tc "uncovered library" `Quick test_predict_uncovered_library;
          tc "undeclared memory" `Quick test_predict_undeclared_memory_rejected;
          tc "with memories" `Quick test_predict_with_memories;
          tc "internally consistent" `Quick test_predictions_internally_consistent;
          tc "single-cycle clock stretch" `Quick test_single_cycle_clock_stretches;
          tc "pinned digests" `Quick test_predictions_pinned;
          tc "prune" `Quick test_prune_keeps_feasible_frontier;
          tc "testability overhead" `Quick test_testability_overhead_grows_area;
          tc "describe" `Quick test_describe_mentions_decisions;
          tc "compare_speed" `Quick test_compare_speed_orders;
          tc "force-directed scheduler" `Quick test_force_directed_scheduler_option;
          tc "chaining improves single-cycle" `Quick test_chaining_improves_single_cycle;
          QCheck_alcotest.to_alcotest predictor_deterministic;
        ] );
      ( "software model",
        [
          tc "one prediction per issue width" `Quick
            test_sw_predict_one_per_width;
          tc "wider issue shortens schedule" `Quick
            test_sw_wider_issue_shortens_schedule;
          tc "footprint is code+data" `Quick test_sw_footprint_is_code_plus_data;
          tc "budget screens footprint" `Quick test_sw_budget_screens_footprint;
          tc "cache keys disjoint across models" `Quick
            test_cache_keys_disjoint_across_models;
        ] );
    ]
