(* large-graphs: cold explores of random DAGs of 120 and 240 operations,
   each whole and split in two, in the single-cycle and the multi-cycle
   style.  The seed renumbers the nodes of each graph (Transform.renumber):
   every run explores the same behaviours, each time built in another
   order; fresh random structures per seed moved the explore cost by
   +-15 % between seeds, more than the bounds allow.  Every explore uses the iterative heuristic, a fresh
   prediction cache and one job, so BAD prediction and scheduling do almost
   all the work.  The die is enlarged so these graphs have feasible designs
   at all, which gives the run a design quality to report. *)

module E = Chop.Explore
module T = Trace
open Common

let die =
  Chop_tech.Chip.make ~name:"die1500" ~width:1500. ~height:1500. ~pins:84
    ~pad_delay:25. ~pad_area:297.60

let sizes = [ 120; 240 ]
let shapes = [ (1, false); (2, false); (1, true); (2, true) ]

type case = { graph : Chop_dfg.Graph.t; spec : Chop.Spec.t }

let cases ~seed =
  List.concat_map
    (fun (i, ops) ->
      let graph =
        Chop_dfg.Transform.renumber ~seed
          (Chop_dfg.Benchmarks.random_dag ~ops ~seed:(7 + i) ())
      in
      List.map
        (fun (k, multicycle) ->
          {
            graph;
            spec =
              Chop_server.Ops.build_spec ~graph ~partitions:k ~package:die
                ~perf:300000. ~delay:600000. ~multicycle
                ~strategy:Chop_baseline.Autopart.Levels ();
          })
        shapes)
    (List.mapi (fun i ops -> (i, ops)) sizes)

let check_case c cache =
  let spec = c.spec in
  List.concat_map
    (fun part ->
      let label = part.Chop_dfg.Partition.label in
      let sub = Chop_dfg.Partition.subgraph spec.Chop.Spec.partitioning part in
      let cfg = E.predictor_config spec ~label in
      let model = Chop.Model.of_spec spec ~label in
      match Chop.Pred_cache.find_raw cache (Chop.Pred_cache.Key.raw ~sub ~cfg ~model) with
      | None -> [ "no cached predictions for " ^ label ]
      | Some [] -> [ "BAD returned no predictions for " ^ label ]
      | Some preds ->
          List.concat_map
            (fun p -> Checks.check_prediction (Checks.view_prediction cfg sub p))
            preds)
    spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts

let run ~seed ~seconds ~trace =
  let setup_s, cases = setup_median ~k:5 (fun () -> cases ~seed) in
  let violations = ref [] and quality = ref 0. in
  let round _ =
    quality := 0.;
    List.map
      (fun c ->
        let cache = Chop.Pred_cache.create () in
        let config = config ~heuristic:E.Iterative cache in
        let r, dt =
          timed (fun () ->
              let s = E.Session.create config c.spec in
              let r = T.span "session.run" (fun () -> E.Session.run s) in
              E.Session.close s;
              r)
        in
        if trace then begin
          Layers.count_report r;
          T.count "bad.predictions"
            (float (Layers.partitions ~predict:true c.spec cache));
          E.with_session config c.spec (fun s -> Layers.search s)
        end;
        violations := check_case c cache @ !violations;
        quality := !quality +. best_quality r;
        dt)
      cases
  in
  let rounds, lats = measure ~seconds round in
  let rss = peak_rss_mb "self" in
  let violations =
    !violations
    @ List.concat_map
        (fun g ->
          Checks.canon_stable ~digest:(Chop_dfg.Canon.digest g)
            ~renumbered_digest:
              (Chop_dfg.Canon.digest (Chop_dfg.Transform.renumber ~seed:(seed + 1) g)))
        (List.filteri (fun i _ -> i mod List.length shapes = 0)
           (List.map (fun c -> c.graph) cases))
  in
  let quality = !quality in
  ( rounds,
    {
      attempted = List.length lats;
      failed = 0;
      violations;
      e2e =
        [
          ("setup_s", setup_s);
          ("ops_per_s", throughput lats);
          ("op_p50_ms", 1000. *. median lats);
          ("peak_rss_mb", rss);
          ("design_area_perf", quality);
        ];
    } )
