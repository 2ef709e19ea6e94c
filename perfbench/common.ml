(* Shared pieces of the workloads: the measuring loop, statistics, memory
   and the shape of a workload's result. *)

let now = Unix.gettimeofday

type result = {
  attempted : int;
  failed : int;
  violations : string list;  (** failed output checks; empty when correct *)
  e2e : (string * float) list;  (** end-to-end metric name -> value *)
}

(* ---- host-speed calibration ----

   The small virtual hosts this benchmark runs on change speed by 20-40 %
   within seconds (on a 2-vCPU VM, a fixed allocation-heavy loop ran 70 to
   123 rounds a second over 90 s of continuous work).  Raw wall-clock times
   there spread too much between runs to compare two commits.  So every
   measured interval is bracketed by samples of a fixed reference
   computation that uses nothing of the program, and reported as
   interval x reference_s / (mean of the two samples): the time the
   interval would take on a host where the reference takes reference_s.
   The reference allocates, sorts and hashes like the program does, which
   is what makes it track the program's slow-downs (a floating-point loop
   did not). *)

let kernel () =
  let l = List.init 3000 (fun i -> (i * 7919) land 65535) in
  let h = Hashtbl.create 1024 in
  List.iteri (fun i x -> Hashtbl.replace h x i) (List.sort compare l);
  Hashtbl.length h

let reference_s = 0.001

(* Median of five timings of the kernel, after one untimed run that warms
   the caches the operation before it evicted.  With [domains] > 1 the
   same is done at once on that many domains, spawned for the sample, and
   the slowest median is kept: for operations that use several CPUs.  No
   domain is left running between samples, so none takes part in the
   collections of the operations measured. *)
let sample ?(domains = 1) () =
  let one () =
    ignore (Sys.opaque_identity (kernel ()));
    let times =
      List.init 5 (fun _ ->
          let t0 = now () in
          ignore (Sys.opaque_identity (kernel ()));
          now () -. t0)
    in
    List.nth (List.sort compare times) 2
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn one) in
  let mine = one () in
  List.fold_left (fun acc d -> Float.max acc (Domain.join d)) mine others

(* The last sample: taken at, on how many domains, seconds.  The next
   interval reuses it as its "before" sample when it is recent. *)
let last_sample = ref (0., 0, nan)

let fresh_sample ~domains =
  let at, d, s = !last_sample in
  if Float.is_nan s || d <> domains || now () -. at > 0.2 then sample ~domains ()
  else s

(* Raw wall time spent inside [timed] intervals, for the run-length rule. *)
let busy = ref 0.

(* Runs [f], returning its result and its calibrated duration in seconds.
   [domains] as for [sample]. *)
let timed ?(domains = 1) f =
  let before = fresh_sample ~domains in
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  busy := !busy +. dt;
  let after = sample ~domains () in
  last_sample := (now (), domains, after);
  (v, dt *. reference_s /. ((before +. after) /. 2.))

(* Median of [k] timed set-ups, each starting from nothing the previous one
   built; the value of the last one is kept for the measured phase. *)
let setup_median ?(k = 3) f =
  let times = ref [] in
  let rec go i =
    let v, dt = timed f in
    times := dt :: !times;
    if i + 1 = k then v else go (i + 1)
  in
  let v = go 0 in
  (List.nth (List.sort compare !times) (k / 2), v)

(* Runs whole rounds of the same operations for about [seconds] of
   operation time: the number of rounds is the one whose total comes
   closest to [seconds], and at least one.  [round i] runs round [i] and
   returns the calibrated latency of every operation it ran (see [timed]);
   work a round does between operations (output checks) is not measured.
   Returns the number of rounds and the operation latencies. *)
let measure ~seconds round =
  let start = !busy in
  let rec go n acc =
    let acc = List.rev_append (round n) acc in
    let spent = !busy -. start in
    if spent +. (spent /. float (n + 1) /. 2.) >= seconds then (n + 1, acc)
    else go (n + 1) acc
  in
  go 0 []

(* Operations per second of (calibrated) operation time, for workloads that
   run one operation at a time. *)
let throughput lats = float (List.length lats) /. List.fold_left ( +. ) 0. lats

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let w = rank -. float_of_int lo in
    (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)

let median xs = percentile 0.5 xs

(* Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* A deterministic shuffle driven by the workload seed. *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let graph name =
  match Chop_server.Ops.graph_of_name name with
  | Ok g -> g
  | Error m -> failwith m

let spec ?(strategy = Chop_baseline.Autopart.Levels) ?(perf = 30000.)
    ?(delay = 30000.) ~name ~k ~multicycle g =
  Chop_server.Ops.build_spec
    ~processors:(Chop_server.Ops.processors_for ~benchmark:name ~impls:[])
    ~graph:g ~partitions:k ~package:Chop_tech.Mosis.package_84 ~perf ~delay
    ~multicycle ~strategy ()

let config ?(keep_all = false) ?(jobs = 1) ~heuristic cache =
  Chop.Explore.Config.make ~heuristic ~keep_all ~jobs
    ~cache:(Chop.Explore.Config.Custom cache) ()

let best_row (r : Chop.Explore.report) = Checks.best r.Chop.Explore.outcome

(* The area-time product of the best design: likely area times performance
   (initiation interval in ns); 0 when nothing is feasible.  Summed over a
   workload's cases, it moves when a change buys speed with worse designs. *)
let best_quality (r : Chop.Explore.report) =
  match best_row r with
  | None -> 0.
  | Some row -> row.Chop.Search.Row.area_likely *. row.Chop.Search.Row.perf_ns
