(* Cycle-count prediction for the software model.

   The partition's data-flow subgraph is list-scheduled onto a W-wide
   issue window for every W in 1..issue_slots, reusing the same
   resource-constrained scheduler as the hardware BAD path: each
   functional class (including per-block memory ports) gets W units, so
   the schedule length is the cycle count of a W-issue VLIW-style
   executable.  One prediction per issue width gives the feasibility
   screens a real speed/footprint trade-off:

   - time: [length] processor cycles, quantized to whole data-path cycles
     so the system-level initiation-interval algebra (main cycles x main
     clock) holds unchanged; the partition never stretches the system
     clock ([clock_main] = main);
   - space: code is [length x W x code_bytes_per_op] (wider words issue in
     fewer cycles but every slot occupies word space, nops included) plus
     [data_bytes_per_value] per value-producing node.  The total lands in
     the prediction's [area] triplet, so the generic area screen checks
     it against the processor's memory budget with no special casing. *)

let op_cycles (n : Chop_dfg.Graph.node) =
  match n.Chop_dfg.Graph.op with
  | Chop_dfg.Op.Mult -> 2
  | Chop_dfg.Op.Div -> 8
  | Chop_dfg.Op.Mem_read _ | Chop_dfg.Op.Mem_write _ -> 2
  | _ -> 1

(* watts are not the software model's constraint, but the power screen
   still applies: charge a nominal per-slot figure so a power budget can
   steer issue width *)
let power_per_slot = 5.

let footprint_bytes (p : Processor.t) ~issue ~cycles sub =
  let values =
    List.length (Chop_dfg.Graph.nodes sub)
    - List.length (Chop_dfg.Graph.outputs sub)
  in
  let code = p.Processor.code_bytes_per_op * issue * cycles in
  let data = p.Processor.data_bytes_per_value * values in
  (code, data)

let predict (p : Processor.t) ~clocks ~label sub =
  let ops = Chop_dfg.Graph.op_count sub in
  if ops = 0 then []
  else begin
    (* a processor cycle costs a whole number of data-path cycles; a CPU
       faster than the data-path clock is quantized up to it *)
    let dp_cycle = Chop_tech.Clocking.datapath_cycle clocks in
    let proc_dp =
      max 1 (Chop_util.Units.ceil_div_ns p.Processor.cycle_ns dp_cycle)
    in
    let profile = Chop_dfg.Graph.op_profile sub in
    List.init p.Processor.issue_slots (fun i ->
        let issue = i + 1 in
        let alloc = List.map (fun (cls, _) -> (cls, issue)) profile in
        let sched = Chop_sched.List_sched.run ~latency:op_cycles ~alloc sub in
        let cycles = sched.Chop_sched.Schedule.length in
        let code, data = footprint_bytes p ~issue ~cycles sub in
        let bytes = float_of_int (code + data) in
        let dp = cycles * proc_dp in
        {
          Chop_bad.Prediction.partition_label = label;
          style = Chop_tech.Style.Non_pipelined;
          module_set =
            [
              Chop_tech.Component.make ~name:p.Processor.pname
                ~cls:"processor" ~width:p.Processor.bus_bits ~area:1.
                ~delay:p.Processor.cycle_ns ();
            ];
          alloc = [ ("issue", issue) ];
          timing =
            {
              Chop_bad.Prediction.ii_dp = dp;
              latency_dp = dp;
              stages = 1;
              clock_main = clocks.Chop_tech.Clocking.main;
              overhead = 0.;
            };
          area = Chop_util.Triplet.exact bytes;
          breakdown =
            {
              Chop_bad.Prediction.functional_units = float_of_int code;
              registers = float_of_int data;
              multiplexers = 0.;
              controller = 0.;
              wiring = Chop_util.Triplet.zero;
            };
          register_bits = data * 8;
          mux_count = 0;
          controller_shape =
            { Chop_tech.Pla.inputs = 0; outputs = 0; product_terms = 0 };
          mem_bandwidth = Chop_bad.Predictor.mem_bandwidth sched;
          power = power_per_slot *. float_of_int issue;
        })
  end
