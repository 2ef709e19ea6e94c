(* Tests of the output checkers: each checker must pass a real output and
   reject a planted wrong one, so that no check passes vacuously. *)

open Perfbench
module J = Chop_util.Json

let failures = ref 0

let expect name ~ok violations =
  let passed = violations = [] in
  if passed <> ok then begin
    incr failures;
    Printf.printf "FAIL %s: expected %s, got %s\n" name
      (if ok then "no violation" else "a violation")
      (if passed then "none" else String.concat "; " violations)
  end
  else Printf.printf "ok   %s\n" name

let accepts name v = expect name ~ok:true v
let rejects name v = expect name ~ok:false v

(* A real prediction of one partition of ar at two partitions. *)
let spec = Common.spec ~name:"ar" ~k:2 ~multicycle:true (Common.graph "ar")

let part = List.hd spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts
let label = part.Chop_dfg.Partition.label
let sub = Chop_dfg.Partition.subgraph spec.Chop.Spec.partitioning part
let cfg = Chop.Explore.predictor_config spec ~label
let preds = Chop_bad.Predictor.predict cfg ~label sub

let test_predictions () =
  let views = List.map (Checks.view_prediction cfg sub) preds in
  accepts "BAD: real predictions" (List.concat_map Checks.check_prediction views);
  let v = List.hd views in
  rejects "BAD: latency below the critical path"
    (Checks.check_prediction { v with latency = v.Checks.cp - 1; ii = 1 });
  rejects "BAD: II above latency"
    (Checks.check_prediction { v with ii = v.Checks.latency + 1 });
  rejects "BAD: area triplet out of order"
    (Checks.check_prediction { v with area = (3., 2., 1.) });
  (* a class with more work than its units can do within the latency *)
  let cls, w = List.hd v.Checks.work in
  rejects "BAD: below the resource bound"
    (Checks.check_prediction
       { v with alloc = [ (cls, 1) ]; work = [ (cls, w + v.Checks.latency) ] });
  rejects "BAD: class without units" (Checks.check_prediction { v with alloc = [] })

let test_canon () =
  let g = spec.Chop.Spec.graph in
  let d = Chop_dfg.Canon.digest g in
  accepts "Canon: renumbered digest"
    (Checks.canon_stable ~digest:d
       ~renumbered_digest:(Chop_dfg.Canon.digest (Chop_dfg.Transform.renumber ~seed:3 g)));
  rejects "Canon: digest changed" (Checks.canon_stable ~digest:d ~renumbered_digest:"x")

let explore h =
  Chop.Explore.with_session
    (Common.config ~keep_all:true ~heuristic:h (Chop.Pred_cache.create ()))
    spec Chop.Explore.Session.run

let test_searches () =
  let e = explore Chop.Explore.Enumeration and i = explore Chop.Explore.Iterative in
  let be = Common.best_row e and bi = Common.best_row i in
  let row = Option.get be in
  let other = { row with Chop.Search.Row.perf_ns = row.Chop.Search.Row.perf_ns /. 2. } in
  accepts "E/B: same best" (Checks.same_best ~e:be ~b:be);
  rejects "E/B: different best" (Checks.same_best ~e:be ~b:(Some other));
  accepts "I: not faster than E" (Checks.iter_not_faster ~e:be ~i:bi);
  rejects "I: faster than E" (Checks.iter_not_faster ~e:be ~i:(Some other));
  rejects "I: feasible where E is not" (Checks.iter_not_faster ~e:None ~i:bi);
  accepts "renderings: identical" (Checks.identical ~what:"x" "a" "a");
  rejects "renderings: differ" (Checks.identical ~what:"x" "a" "b");
  let designs = List.map Checks.view_system e.Chop.Explore.outcome.Chop.Search.feasible in
  let perf_constraint = spec.Chop.Spec.criteria.Chop_bad.Feasibility.perf_constraint in
  accepts "designs: real feasible designs" (Checks.feasible_meets ~perf_constraint designs);
  let d = List.hd designs in
  rejects "designs: too slow"
    (Checks.feasible_meets ~perf_constraint [ { d with perf = perf_constraint +. 1. } ]);
  rejects "designs: too many pins"
    (Checks.feasible_meets ~perf_constraint
       [ { d with pins = [ ("chip1", 85, 84) ] } ])

let test_auto () =
  let g = spec.Chop.Spec.graph in
  let ops = List.map (fun n -> n.Chop_dfg.Graph.id) (Chop_dfg.Graph.operations g) in
  let parts =
    List.map (fun p -> p.Chop_dfg.Partition.members) spec.Chop.Spec.partitioning.Chop_dfg.Partition.parts
  in
  accepts "cover: real partitioning" (Checks.covers_once ~ops ~parts);
  rejects "cover: operation missing" (Checks.covers_once ~ops ~parts:(List.tl parts));
  rejects "cover: operation twice" (Checks.covers_once ~ops ~parts:(List.hd parts :: parts));
  rejects "cover: unknown member" (Checks.covers_once ~ops ~parts:([ -1 ] :: parts));
  let inputs = Checks.stimuli ~seed:1 g in
  let whole = Chop_dfg.Eval.run ~inputs g in
  accepts "function: partitioned evaluation"
    (Checks.same_function ~whole
       ~partitioned:(Chop_dfg.Eval.run_partitioned ~inputs spec.Chop.Spec.partitioning));
  rejects "function: different outputs"
    (Checks.same_function ~whole ~partitioned:(List.map (fun (n, v) -> (n, v + 1)) whole));
  let s = { Checks.feasible = true; perf = 100.; area = 10. } in
  accepts "score: equal to the seed" (Checks.not_worse ~result:s ~seed:s);
  accepts "score: faster than the seed" (Checks.not_worse ~result:{ s with perf = 90. } ~seed:s);
  rejects "score: infeasible against a feasible seed"
    (Checks.not_worse ~result:{ s with feasible = false } ~seed:s);
  rejects "score: slower" (Checks.not_worse ~result:{ s with perf = 110. } ~seed:s);
  rejects "score: same speed, larger" (Checks.not_worse ~result:{ s with area = 11. } ~seed:s)

let test_responses () =
  let ok text =
    Chop_server.Protocol.ok_response ~id:"r" ~op:Chop_server.Protocol.Explore
      [ ("text", J.String text) ]
  in
  let err =
    Chop_server.Protocol.error_response ~id:"r" ~code:Chop_server.Protocol.Internal "boom"
  in
  accepts "response: expected text" (Checks.response_matches ~what:"x" ~expected:"t" (ok "t"));
  rejects "response: other text" (Checks.response_matches ~what:"x" ~expected:"t" (ok "u"));
  rejects "response: error" (Checks.response_matches ~what:"x" ~expected:"t" err);
  rejects "response: no text"
    (Checks.response_matches ~what:"x" ~expected:"t"
       (Chop_server.Protocol.ok_response ~id:"r" ~op:Chop_server.Protocol.Explore []))

let () =
  test_predictions ();
  test_canon ();
  test_searches ();
  test_auto ();
  test_responses ();
  if !failures > 0 then begin
    Printf.printf "%d checker test(s) failed\n" !failures;
    exit 1
  end
