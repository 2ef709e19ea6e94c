(* The per-layer metrics of the traced run.

   Time metrics are the mean self time per call of one span name.  They come
   from the workload's own spans when the workload calls that layer; for a
   layer the workload never calls, a small fixed probe calls it so that every
   traced run reports every metric (the trace file marks probe spans).
   Count metrics come from the workload only, per round, and are 0 for a
   layer the workload does not use. *)

module T = Trace
module E = Chop.Explore

type source =
  | Span of string * float  (** span name, seconds -> unit factor *)
  | Count of string  (** counter, per round *)
  | Derived  (** computed below *)

let table =
  [
    ("dfg.canon_digest_us", "us", Span ("dfg.canon_digest", 1e6));
    ("dfg.subgraph_us", "us", Span ("dfg.subgraph", 1e6));
    ("sched.list_sched_us", "us", Span ("sched.list_sched", 1e6));
    ("sched.min_ii_us", "us", Span ("sched.min_ii", 1e6));
    ("sched.lifetime_us", "us", Span ("sched.lifetime", 1e6));
    ("bad.predict_ms.ops60", "ms", Derived);
    ("bad.predict_ms.ops120", "ms", Derived);
    ("bad.predict_ms.ops240", "ms", Derived);
    ("bad.predict_ratio_240_60", "ratio", Derived);
    ("bad.alloc_enum_us", "us", Span ("bad.alloc_enum", 1e6));
    ("bad.datapath_us", "us", Span ("bad.datapath", 1e6));
    ("bad.control_us", "us", Span ("bad.control", 1e6));
    ("bad.prune_us", "us", Span ("bad.prune", 1e6));
    ("bad.predictions", "count", Count "bad.predictions");
    ("model_sw.predict_us", "us", Span ("model_sw.predict", 1e6));
    ("cache.hits", "count", Count "cache.hits");
    ("cache.misses", "count", Count "cache.misses");
    ("cache.structural_hits", "count", Count "cache.structural_hits");
    ("cache.hit_ratio", "ratio", Derived);
    ("cache.lookup_us", "us", Span ("cache.lookup", 1e6));
    ("prune.pruned_impls", "count", Count "prune.pruned_impls");
    ("search.trials", "count", Count "search.trials");
    ("search.integrations", "count", Count "search.integrations");
    ("search.integrations_avoided", "count", Count "search.integrations_avoided");
    ("search.enum_ms", "ms", Span ("search.enum", 1e3));
    ("search.bb_ms", "ms", Span ("search.bb", 1e3));
    ("search.iter_ms", "ms", Span ("search.iter", 1e3));
    ("integration.context_us", "us", Span ("integration.context", 1e6));
    ("integration.integrate_us", "us", Span ("integration.integrate", 1e6));
    ("integration.quick_check_us", "us", Span ("integration.quick_check", 1e6));
    ("session.edit_us", "us", Span ("session.edit", 1e6));
    ("session.run_ms", "ms", Span ("session.run", 1e3));
    ("session.repredicted", "count", Count "session.repredicted");
    ("auto.refine_s", "s", Span ("auto.refine", 1.));
    ("auto.moves_tried", "count", Count "auto.moves_tried");
    ("auto.moves_accepted", "count", Count "auto.moves_accepted");
    ("auto.speculative_runs", "count", Count "auto.speculative_runs");
    ("auto.batch_rounds", "count", Count "auto.batch_rounds");
    ("auto.spec_parallelism", "ratio", Derived);
    ("protocol.codec_us", "us", Span ("protocol.codec", 1e6));
    ("ops.render_us", "us", Span ("ops.render", 1e6));
    ("server.handle_ms", "ms", Span ("server.handle", 1e3));
    ("server.rtt_ms", "ms", Span ("server.rtt", 1e3));
    ("gateway.forward_ms", "ms", Derived);
  ]

let dag_spec ops =
  Chop_server.Ops.build_spec
    ~graph:(Chop_dfg.Benchmarks.random_dag ~ops ~seed:7 ())
    ~partitions:1 ~package:Large_graphs.die ~perf:300000. ~delay:600000.
    ~multicycle:false ~strategy:Chop_baseline.Autopart.Levels ()

(* BAD's cost as the graph grows: one prediction of one whole random DAG
   (seed 7, single-cycle) at 60, 120 and 240 operations, in milliseconds. *)
let bad_scaling () =
  List.map
    (fun ops ->
      let spec = dag_spec ops in
      let label = "P1" in
      let cfg = E.predictor_config spec ~label in
      let t0 = Unix.gettimeofday () in
      ignore (Chop_bad.Predictor.predict cfg ~label spec.Chop.Spec.graph);
      (ops, 1000. *. (Unix.gettimeofday () -. t0)))
    [ 60; 120; 240 ]

(* Probes, each covering a group of spans. *)
let probe_bad () =
  ignore
    (Layers.partitions ~predict:true (dag_spec 60) (Chop.Pred_cache.create ()))

let probe_search () =
  let spec = Common.spec ~name:"ewf" ~k:2 ~multicycle:true (Common.graph "ewf") in
  List.iter
    (fun h ->
      let config = Common.config ~keep_all:true ~heuristic:h (Chop.Pred_cache.create ()) in
      E.with_session config spec (fun s ->
          ignore (T.span "session.run" (fun () -> E.Session.run s));
          Layers.search s))
    [ E.Enumeration; E.Branch_bound; E.Iterative ]

let probe_edit () =
  let spec = Common.spec ~name:"ar" ~k:2 ~multicycle:false (Common.graph "ar") in
  let config = Common.config ~heuristic:E.Iterative (Chop.Pred_cache.create ()) in
  E.with_session config spec (fun s ->
      ignore (E.Session.run s);
      let op = (List.hd (Chop_dfg.Graph.operations spec.Chop.Spec.graph)).Chop_dfg.Graph.id in
      ignore
        (T.span "session.edit" (fun () ->
             E.Session.edit s [ Chop.Spec.Move_op { op; to_partition = "P2" } ])))

let probe_model_sw () =
  let name = "pcm_pwm" in
  let impls = [ ("P1", "cpu") ] in
  let spec =
    Chop_server.Ops.build_spec
      ~processors:(Chop_server.Ops.processors_for ~benchmark:name ~impls)
      ~impls ~graph:(Common.graph name) ~partitions:2
      ~package:Chop_tech.Mosis.package_84 ~perf:30000. ~delay:30000.
      ~multicycle:true ~strategy:(Chop_baseline.Autopart.Min_cut 1) ()
  in
  ignore (Layers.partitions ~predict:true spec (Chop.Pred_cache.create ()))

let probe_auto () =
  let spec =
    Common.spec ~strategy:(Chop_baseline.Autopart.Min_cut 1) ~perf:6000. ~name:"diffeq"
      ~k:2 ~multicycle:false (Common.graph "diffeq")
  in
  let config = Common.config ~heuristic:E.Iterative (Chop.Pred_cache.create ()) in
  ignore (T.span "auto.refine" (fun () -> Chop_auto.run ~seed:1 ~config spec))

let probes ~serve =
  [
    ( [ "dfg.canon_digest"; "dfg.subgraph"; "cache.lookup"; "bad.alloc_enum";
        "sched.list_sched"; "sched.min_ii"; "sched.lifetime"; "bad.datapath";
        "bad.control"; "bad.prune" ],
      probe_bad );
    ( [ "search.enum"; "search.bb"; "search.iter"; "integration.context";
        "integration.integrate"; "integration.quick_check"; "session.run" ],
      probe_search );
    ([ "session.edit" ], probe_edit);
    ([ "model_sw.predict" ], probe_model_sw);
    ([ "auto.refine" ], probe_auto);
    ([ "protocol.codec"; "ops.render"; "server.handle"; "server.rtt"; "gateway.rtt" ], serve);
  ]

let calls spans ~probe name =
  List.length (List.filter (fun s -> s.T.name = name && s.T.probe = probe) spans)

(* Runs the probes for layers the workload left without spans, then
   computes every metric of [table].  [serve] probes the service layers. *)
let compute ~rounds ~serve =
  let workload_spans = T.all_spans () in
  T.probing := true;
  List.iter
    (fun (names, probe) ->
      if List.exists (fun n -> calls workload_spans ~probe:false n = 0) names then probe ())
    (probes ~serve);
  let scaling = bad_scaling () in
  T.probing := false;
  let spans = T.all_spans () in
  let workload = T.by_name (List.filter (fun s -> not s.T.probe) spans) in
  let probed = T.by_name (List.filter (fun s -> s.T.probe) spans) in
  let mean name =
    match Hashtbl.find_opt workload name with
    | Some (n, tot) -> tot /. float n
    | None -> (
        match Hashtbl.find_opt probed name with
        | Some (n, tot) -> tot /. float n
        | None -> nan)
  in
  let per_round name = T.counter name /. float rounds in
  let derived = function
    | "bad.predict_ms.ops60" -> List.assoc 60 scaling
    | "bad.predict_ms.ops120" -> List.assoc 120 scaling
    | "bad.predict_ms.ops240" -> List.assoc 240 scaling
    | "bad.predict_ratio_240_60" -> List.assoc 240 scaling /. List.assoc 60 scaling
    | "cache.hit_ratio" ->
        let h = T.counter "cache.hits" and m = T.counter "cache.misses" in
        if h +. m = 0. then 0. else h /. (h +. m)
    | "auto.spec_parallelism" ->
        let w = T.counter "auto.spec_wall_s" in
        if w = 0. then 0. else T.counter "auto.spec_busy_s" /. w
    | "gateway.forward_ms" -> 1000. *. (mean "gateway.rtt" -. mean "server.rtt")
    | n -> invalid_arg n
  in
  List.map
    (fun (name, unit, src) ->
      let v =
        match src with
        | Span (s, k) -> k *. mean s
        | Count c -> per_round c
        | Derived -> derived name
      in
      (name, v, unit))
    table
