(* paper-sweep: the built-in graphs x 2-4 partitions x single/multi-cycle,
   each explored with keep-all by enumeration (at one and at two jobs),
   branch-and-bound and the iterative heuristic.  The prediction cache is
   warmed during set-up, so search, integration, pruning and cache lookup
   do the work and BAD does none: a BAD optimisation should not move this
   workload. *)

module E = Chop.Explore
module T = Trace
open Common

type case = { spec : Chop.Spec.t }

let specs () =
  List.concat_map
    (fun (name, _) ->
      List.concat_map
        (fun k ->
          List.map
            (fun multicycle -> { spec = spec ~name ~k ~multicycle (graph name) })
            [ false; true ])
        [ 2; 3; 4 ])
    Chop_server.Ops.benchmarks

(* heuristic, jobs *)
let runs = [ (E.Enumeration, 1); (E.Branch_bound, 1); (E.Iterative, 1); (E.Enumeration, 2) ]

type setup = { cases : case list; cache : Chop.Pred_cache.t }

let setup ~seed () =
  let cases = shuffle ~seed (specs ()) in
  let cache = Chop.Pred_cache.create () in
  List.iter
    (fun c ->
      ignore
        (E.with_session
           (config ~keep_all:true ~heuristic:E.Iterative cache)
           c.spec E.Session.predictions))
    cases;
  { cases; cache }

(* What the checks need from one explore; the report itself is dropped
   at once, so that its keep-all design lists do not stay on the heap. *)
type summary = {
  best : Chop.Search.Row.t option;
  rendering : Digest.t;
  designs : Checks.design_view list;
  quality : float;
}

let summarise spec (r : E.report) =
  {
    best = best_row r;
    rendering =
      Digest.string
        (Chop_server.Ops.render_explore spec ~keep_all:true ~csv:false ~verbose:false r);
    designs = List.map Checks.view_system r.E.outcome.Chop.Search.feasible;
    quality = best_quality r;
  }

let check c summaries =
  let find h j = List.assoc (h, j) summaries in
  let e1 = find E.Enumeration 1 and e2 = find E.Enumeration 2 in
  let b = find E.Branch_bound 1 and i = find E.Iterative 1 in
  let perf_constraint =
    c.spec.Chop.Spec.criteria.Chop_bad.Feasibility.perf_constraint
  in
  Checks.same_best ~e:e1.best ~b:b.best
  @ Checks.iter_not_faster ~e:e1.best ~i:i.best
  @ Checks.identical ~what:"enumeration renderings at jobs 1 and 2" e1.rendering
      e2.rendering
  @ List.concat_map (fun (_, s) -> Checks.feasible_meets ~perf_constraint s.designs) summaries

let run ~seed ~seconds ~trace =
  let setup_s, st = setup_median (setup ~seed) in
  let violations = ref [] and quality = ref 0. in
  let round _ =
    quality := 0.;
    List.concat_map
      (fun c ->
        let reports =
          List.map
            (fun (h, jobs) ->
              let config = config ~keep_all:true ~jobs ~heuristic:h st.cache in
              (* a two-job session spawns its helper domain and joins it
                 at close, as `chop explore -j 2` does *)
              let (s, r), dt =
                timed ~domains:jobs (fun () ->
                    let s = E.Session.create config c.spec in
                    (s, T.span "session.run" (fun () -> E.Session.run s)))
              in
              if trace then begin
                Layers.count_report r;
                if jobs = 1 then Layers.search s
              end;
              E.Session.close s;
              let summary = summarise c.spec r in
              (* start the next explore from a small heap, as a fresh
                 `chop explore` process would *)
              Gc.compact ();
              ((h, jobs), summary, dt))
            runs
        in
        if trace then ignore (Layers.partitions ~predict:false c.spec st.cache);
        let summaries = List.map (fun (k, r, _) -> (k, r)) reports in
        violations := check c summaries @ !violations;
        quality := !quality +. (List.assoc (E.Enumeration, 1) summaries).quality;
        List.map (fun (_, _, dt) -> dt) reports)
      st.cases
  in
  let rounds, lats = measure ~seconds round in
  let rss = peak_rss_mb "self" in
  let quality = !quality in
  ( rounds,
    {
      attempted = List.length lats;
      failed = 0;
      violations = !violations;
      e2e =
        [
          ("setup_s", setup_s);
          ("ops_per_s", throughput lats);
          ("op_p50_ms", 1000. *. median lats);
          ("peak_rss_mb", rss);
          ("design_area_perf", quality);
        ];
    } )
