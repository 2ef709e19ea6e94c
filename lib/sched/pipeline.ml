(* Busy profiles are built once per schedule, one per allocated class with
   its capacity; each probed II only folds them. *)
let profiles s =
  List.map (fun (cls, cap) -> (cap, Schedule.busy_profile s ~cls)) s.Schedule.alloc

let fits profiles ~ii =
  let folded = Array.make ii 0 in
  List.for_all
    (fun (cap, profile) ->
      Array.fill folded 0 ii 0;
      Array.iteri
        (fun step busy -> folded.(step mod ii) <- folded.(step mod ii) + busy)
        profile;
      Array.for_all (fun busy -> busy <= cap) folded)
    profiles

let feasible_ii s ~ii =
  if ii < 1 then invalid_arg "Pipeline.feasible_ii: ii < 1";
  ii >= s.Schedule.length || fits (profiles s) ~ii

let min_ii s =
  let profiles = profiles s in
  let lower_bound =
    List.fold_left
      (fun acc (cap, profile) ->
        let work = Array.fold_left ( + ) 0 profile in
        max acc (Chop_util.Units.ceil_div work cap))
      1 profiles
  in
  let rec search ii =
    if ii >= s.Schedule.length || fits profiles ~ii then ii else search (ii + 1)
  in
  search (max 1 lower_bound)

let stage_count s ~ii =
  if ii < 1 then invalid_arg "Pipeline.stage_count: ii < 1";
  if s.Schedule.length = 0 then 1
  else Chop_util.Units.ceil_div s.Schedule.length ii
