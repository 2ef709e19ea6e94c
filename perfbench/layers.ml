(* Layer replays for the traced run.  Each function calls one layer's public
   entry points on the same inputs the workload just used, each call inside
   its own span, so the per-layer numbers come from the benchmark's own
   spans rather than from the program's reports.  None of this runs in an
   untraced run. *)

module T = Trace
module E = Chop.Explore
module P = Chop_dfg.Partition

(* The prediction pipeline of Predictor.predict (list-based scheduling, no
   chaining), one stage per span: allocation enumeration, list scheduling,
   register lifetimes, data-path estimate, controller and the pipelined
   II search.  Graphs with memory operations are left out. *)
let bad_stages (cfg : Chop_bad.Predictor.config) g =
  let single =
    cfg.Chop_bad.Predictor.style.Chop_tech.Style.op_timing
    = Chop_tech.Style.Single_cycle
  in
  if cfg.Chop_bad.Predictor.scheduler = Chop_bad.Predictor.List_based
     && (not (cfg.Chop_bad.Predictor.chaining && single))
     && Chop_dfg.Graph.memory_blocks g = []
  then
    List.iter
      (fun mset ->
        let latency = Chop_bad.Predictor.latency_function cfg ~module_set:mset in
        let allocs =
          T.span "bad.alloc_enum" (fun () ->
              Chop_bad.Alloc_enum.enumerate ~cap:cfg.Chop_bad.Predictor.alloc_cap
                ~latency ~memport_units:[] g)
        in
        List.iter
          (fun alloc ->
            let sched =
              T.span "sched.list_sched" (fun () ->
                  Chop_sched.List_sched.run ~latency ~alloc g)
            in
            let length = sched.Chop_sched.Schedule.length in
            ignore (T.span "sched.lifetime" (fun () -> Chop_sched.Lifetime.analyze sched));
            let est =
              T.span "bad.datapath" (fun () ->
                  Chop_bad.Datapath.estimate ~module_set:mset sched)
            in
            ignore
              (T.span "bad.control" (fun () ->
                   Chop_bad.Control.shape ~sched ~est ~ii:length ~pipelined:false));
            if
              List.mem Chop_tech.Style.Pipelined
                cfg.Chop_bad.Predictor.style.Chop_tech.Style.pipelinings
            then ignore (T.span "sched.min_ii" (fun () -> Chop_sched.Pipeline.min_ii sched)))
          allocs)
      (Chop_tech.Component.module_sets cfg.Chop_bad.Predictor.library g)

(* Per partition: subgraph extraction, canonical digest, a cache lookup and,
   with [predict], the prediction itself (BAD stages for hardware
   partitions, the software model for processor-bound ones).  Returns the
   number of predictions made. *)
let partitions ~predict (spec : Chop.Spec.t) cache =
  List.fold_left
    (fun n part ->
      let label = part.P.label in
      let sub =
        T.span "dfg.subgraph" (fun () -> P.subgraph spec.Chop.Spec.partitioning part)
      in
      ignore (T.span "dfg.canon_digest" (fun () -> Chop_dfg.Canon.digest sub));
      let cfg = E.predictor_config spec ~label in
      let model = Chop.Model.of_spec spec ~label in
      let key = Chop.Pred_cache.Key.raw ~sub ~cfg ~model in
      ignore (T.span "cache.lookup" (fun () -> Chop.Pred_cache.find_raw cache key));
      if not predict then n
      else if Chop.Model.name model = "hw" then begin
        let preds =
          T.span "bad.predict" (fun () -> Chop_bad.Predictor.predict cfg ~label sub)
        in
        let criteria = spec.Chop.Spec.criteria in
        let chip_area = E.partition_chip_area spec ~label in
        ignore
          (T.span "bad.prune" (fun () ->
               Chop_bad.Predictor.prune cfg ~criteria ~chip_area preds));
        bad_stages cfg sub;
        n + List.length preds
      end
      else
        n
        + List.length
            (T.span "model_sw.predict" (fun () -> Chop.Model.predict model cfg ~label sub)))
    0 spec.Chop.Spec.partitioning.P.parts

(* The search layer on the session's own prediction lists (pre-pruned as
   the session would for the exhaustive heuristics), then the integration
   layer on up to 16 of the designs the search integrated. *)
let search (session : E.Session.t) =
  let config = E.Session.config session in
  let spec = E.Session.spec session in
  let preds, _ = E.Session.predictions session in
  let ctx = T.span "integration.context" (fun () -> Chop.Integration.context spec) in
  let keep_all = config.E.Config.keep_all in
  let pre () = fst (Chop.Prune.per_partition ~clocks:spec.Chop.Spec.clocks preds) in
  let outcome =
    match config.E.Config.heuristic with
    | E.Enumeration ->
        let p = pre () in
        T.span "search.enum" (fun () -> Chop.Enum_heuristic.run ~keep_all ctx p)
    | E.Branch_bound ->
        let p = pre () in
        T.span "search.bb" (fun () -> Chop.Bb_heuristic.run ~keep_all ctx p)
    | E.Iterative ->
        T.span "search.iter" (fun () -> Chop.Iter_heuristic.run ~keep_all ctx preds)
  in
  let systems =
    List.filteri (fun i _ -> i < 16)
      (outcome.Chop.Search.explored @ outcome.Chop.Search.feasible)
  in
  let cache = Chop.Integration.cache ctx in
  List.iter
    (fun (s : Chop.Integration.system) ->
      let comb = s.Chop.Integration.combination in
      ignore (T.span "integration.quick_check" (fun () -> Chop.Integration.quick_check cache comb));
      ignore (T.span "integration.integrate" (fun () -> Chop.Integration.integrate ctx comb)))
    systems

(* Counters of one explore, read from the in-process report. *)
let count_report (r : E.report) =
  let st = r.E.outcome.Chop.Search.stats in
  let m = r.E.metrics in
  T.count "search.trials" (float st.Chop.Search.implementation_trials);
  T.count "search.integrations" (float st.Chop.Search.integrations);
  T.count "search.integrations_avoided" (float st.Chop.Search.integrations_avoided);
  T.count "prune.pruned_impls" (float m.E.Metrics.pruned_impls);
  T.count "cache.hits" (float r.E.cache_hits);
  T.count "cache.misses" (float r.E.cache_misses);
  T.count "cache.structural_hits" (float m.E.Metrics.cache_structural_hits)
