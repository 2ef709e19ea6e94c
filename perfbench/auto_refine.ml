(* auto-refine: the automatic partitioner (Chop_auto.run, refinement seed 1)
   from a min-cut seed partition on seven cases, at two jobs with a fresh
   prediction cache per run.  The work is refinement: many small session
   edits and re-runs on speculative forks, cache reuse across them, and the
   software model on pcm_pwm. *)

module E = Chop.Explore
module T = Trace
open Common

(* name, partitions, perf ns, delay ns, multi-cycle *)
let table =
  [
    ("ar", 3, 30000., 30000., false);
    ("ewf", 3, 30000., 30000., true);
    ("fir8", 2, 6000., 30000., false);
    ("fir16", 2, 30000., 30000., false);
    ("diffeq", 2, 6000., 30000., false);
    ("dct8", 4, 30000., 30000., false);
    ("pcm_pwm", 2, 30000., 30000., true);
  ]

type case = { name : string; spec : Chop.Spec.t }

let cases ~seed =
  shuffle ~seed
    (List.map
       (fun (name, k, perf, delay, multicycle) ->
         {
           name;
           spec =
             spec ~strategy:(Chop_baseline.Autopart.Min_cut 1) ~perf ~delay ~name ~k
               ~multicycle (graph name);
         })
       table)

let auto ~pool c =
  let config = config ~jobs:(Chop_util.Pool.jobs pool) ~heuristic:E.Iterative (Chop.Pred_cache.create ()) in
  Chop_auto.run ~seed:1 ~pool ~config c.spec

let check c (o : Chop_auto.outcome) (o1 : Chop_auto.outcome) =
  let g = c.spec.Chop.Spec.graph in
  let pg = o.Chop_auto.spec.Chop.Spec.partitioning in
  let ops = List.map (fun n -> n.Chop_dfg.Graph.id) (Chop_dfg.Graph.operations g) in
  let parts = List.map (fun p -> p.Chop_dfg.Partition.members) pg.Chop_dfg.Partition.parts in
  let semantics =
    List.concat_map
      (fun s ->
        let inputs = Checks.stimuli ~seed:s g in
        Checks.same_function ~whole:(Chop_dfg.Eval.run ~inputs g)
          ~partitioned:(Chop_dfg.Eval.run_partitioned ~inputs pg))
      [ 1; 2; 3 ]
  in
  let render o = Chop_server.Ops.render_auto c.spec o in
  List.map (fun v -> c.name ^ ": " ^ v)
    (Checks.covers_once ~ops ~parts
    @ semantics
    @ Checks.not_worse
        ~result:(Checks.score_of o.Chop_auto.report)
        ~seed:(Checks.score_of o.Chop_auto.seed_report)
    @ Checks.identical ~what:"auto results at jobs 2 and 1" (render o) (render o1))

(* Traced replays on the final partitioning: prediction (BAD stages or the
   software model), search and integration, then one session edit and the
   re-run after it. *)
let replay (o : Chop_auto.outcome) =
  let spec = o.Chop_auto.spec in
  let cache = Chop.Pred_cache.create () in
  let config = config ~heuristic:E.Iterative cache in
  T.count "bad.predictions" (float (Layers.partitions ~predict:true spec cache));
  E.with_session config spec (fun s ->
      ignore (T.span "session.run" (fun () -> E.Session.run s));
      Layers.search s;
      let g = spec.Chop.Spec.graph in
      let labels = List.map (fun p -> p.Chop_dfg.Partition.label) spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts in
      let rec try_moves = function
        | [] -> ()
        | (op, dst) :: rest -> (
            match
              T.span "session.edit" (fun () ->
                  E.Session.edit s [ Chop.Spec.Move_op { op; to_partition = dst } ])
            with
            | Ok dirty ->
                T.count "session.repredicted" (float (List.length dirty.Chop.Spec.repredict));
                ignore (T.span "session.run" (fun () -> E.Session.run s))
            | Error _ -> try_moves rest)
      in
      try_moves
        (List.concat_map
           (fun n -> List.map (fun l -> (n.Chop_dfg.Graph.id, l)) labels)
           (Chop_dfg.Graph.operations g)))

(* One operation is one pass: Chop_auto.run on each of the seven cases, at
   one job.  A median over single runs would fall between two cases of
   very different cost and flip from run to run.  Each case is timed on its
   own (see Common.timed): a pass is too long for the samples around it to
   follow the host.  At two jobs the work itself changes between runs
   (which of two racing speculative probes fills the cache decides the
   hit/miss split), which spread the pass time by 17-25 % between runs of
   one seed; the two-job run is made once per case after measuring, where
   it must agree with the one-job result. *)
let run ~seed ~seconds ~trace =
  let setup_s, cases = setup_median (fun () -> cases ~seed) in
  let last = ref [] in
  let round _ =
    let timed_cases =
      List.map
        (fun c ->
          Gc.compact ();
          let o, dt =
            timed (fun () ->
                T.span "auto.refine" (fun () -> auto ~pool:Chop_util.Pool.sequential c))
          in
          ((c, o), dt))
        cases
    in
    let outcomes = List.map fst timed_cases in
    if trace then
      List.iter
        (fun (_, (o : Chop_auto.outcome)) ->
          T.count "auto.moves_tried" (float o.Chop_auto.moves_tried);
          T.count "auto.moves_accepted" (float o.Chop_auto.moves_accepted);
          T.count "auto.speculative_runs" (float o.Chop_auto.speculative_runs);
          T.count "auto.batch_rounds" (float o.Chop_auto.batch_rounds);
          T.count "cache.hits" (float o.Chop_auto.cache_hits);
          T.count "cache.misses" (float o.Chop_auto.cache_misses);
          T.count "cache.structural_hits" (float o.Chop_auto.cache_structural_hits);
          let st = o.Chop_auto.report.E.outcome.Chop.Search.stats in
          T.count "search.trials" (float st.Chop.Search.implementation_trials);
          T.count "search.integrations" (float st.Chop.Search.integrations);
          replay o)
        outcomes;
    last := outcomes;
    [ List.fold_left (fun acc (_, dt) -> acc +. dt) 0. timed_cases ]
  in
  let rounds, lats = measure ~seconds round in
  let rss = peak_rss_mb "self" in
  (* created after measuring, so that no idle helper domain takes part in
     the timed one-job runs *)
  let pool = Chop_util.Pool.create ~jobs:2 () in
  let violations =
    List.concat_map
      (fun (c, o) ->
        let o2 = auto ~pool c in
        T.count "auto.spec_busy_s" o2.Chop_auto.spec_busy_seconds;
        T.count "auto.spec_wall_s" o2.Chop_auto.spec_wall_seconds;
        check c o2 o)
      !last
  in
  Chop_util.Pool.shutdown pool;
  let quality =
    List.fold_left (fun acc (_, o) -> acc +. best_quality o.Chop_auto.report) 0. !last
  in
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
