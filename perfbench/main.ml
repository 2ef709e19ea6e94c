(* The benchmark program: runs one workload for about --seconds and
   prints, as the last line of standard output, one JSON object with
   correct/attempted/failed and the metrics (end-to-end with --trace 0,
   per-layer with --trace 1).  Usually started through perfbench/run.py,
   which builds it and the chop binary first. *)

open Perfbench
module J = Chop_util.Json

let usage =
  "main.exe --workload large-graphs|paper-sweep|auto-refine --seed N --seconds S \
   --trace 0|1 --chop PATH"

let e2e_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("peak_rss_mb", "MiB");
    ("design_area_perf", "mil2.ns");
  ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let chop = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--chop", Arg.Set_string chop, "PATH the chop binary (service probe)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !chop = "" || not (Sys.file_exists !chop) then begin
    prerr_endline "perfbench: --chop must name the built chop binary";
    exit 2
  end;
  (* stop child processes and remove their sockets on every exit path *)
  at_exit Service.stop_all;
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  let traced = !trace = 1 in
  if traced then Trace.enable ();
  let seed = !seed and seconds = !seconds in
  let rounds, (r : Common.result) =
    match !workload with
    | "large-graphs" -> Large_graphs.run ~seed ~seconds ~trace:traced
    | "paper-sweep" -> Paper_sweep.run ~seed ~seconds ~trace:traced
    | "auto-refine" -> Auto_refine.run ~seed ~seconds ~trace:traced
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n%s\n" w usage;
        exit 2
  in
  let metrics =
    if traced then begin
      let m = Layer_metrics.compute ~rounds ~serve:(Service.probe ~chop:!chop) in
      let dir = Service.tmp_root in
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
      let file = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" !workload seed) in
      let oc = open_out file in
      output_string oc
        (J.print
           (J.Object
              [
                ("workload", J.String !workload);
                ("seed", J.Int seed);
                ("rounds", J.Int rounds);
                ("metrics", J.Object (List.map (fun (n, v, _) -> (n, J.Float v)) m));
                (* the end-to-end figures of this traced run, to set against
                   an untraced run's for the tracing overhead *)
                ( "end_to_end",
                  J.Object (List.map (fun (n, v) -> (n, J.Float v)) r.Common.e2e) );
                ("spans", Trace.to_json (Trace.all_spans ()));
              ]));
      close_out oc;
      Printf.eprintf "perfbench: trace written to %s\n" file;
      m
    end
    else List.map (fun (n, u) -> (n, List.assoc n r.Common.e2e, u)) e2e_units
  in
  List.iteri
    (fun i v -> if i < 20 then prerr_endline ("perfbench: check failed: " ^ v))
    r.Common.violations;
  let correct = r.Common.violations = [] in
  print_endline
    (J.print
       (J.Object
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int r.Common.attempted);
            ("failed", J.Int r.Common.failed);
            ( "metrics",
              J.Object
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Object [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
