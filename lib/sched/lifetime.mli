(** Value-lifetime analysis for register prediction.

    A value is live from the step its producer finishes until the last step
    a consumer starts; primary-input values are live from step 0, values
    feeding primary outputs stay live until the schedule ends.  Register
    demand is the peak number of live bits.  For pipelined designs the
    lifetimes are folded modulo the initiation interval, since [stage_count]
    problem instances are simultaneously in flight. *)

type interval = {
  producer : Chop_dfg.Graph.node_id;
  birth : int;  (** step the value becomes available *)
  death : int;  (** exclusive: last step the value is needed *)
  width : Chop_util.Units.bits;
}

val intervals : ?output_death:int -> Schedule.t -> interval list
(** The lifetime of every value that must be stored, in topological order
    of the producers: operation results with consumers or feeding outputs,
    and primary-input values.  Constants are excluded (they live in
    dedicated storage).  A value feeding a primary output dies at
    [output_death] (default [max 1 s.length]); every interval lasts at
    least one step.  O(nodes + edges). *)

type demand = {
  register_bits : int;  (** peak live bits = predicted data-path register bits *)
  peak_values : int;  (** number of values live at the peak step *)
}

val analyze : ?ii:int -> Schedule.t -> demand
(** [ii] folds lifetimes for a pipelined design; omit it for non-pipelined.
    O(values + length): per-step usage is filled from difference arrays.
    @raise Invalid_argument when [ii < 1]. *)
