(** Resource binding: mapping scheduled operations onto functional-unit
    instances and values onto registers.

    The paper's "immediate task is to synthesize and layout some partitioned
    designs" (section 5) — binding is the first synthesis step after
    scheduling, and the resulting structure is what BAD's register and
    multiplexer predictions approximate. *)

type fu_instance = { fu_class : string; fu_index : int }
(** The [fu_index]-th unit of a functional class. *)

val bind_functional_units :
  Chop_sched.Schedule.t -> (Chop_dfg.Graph.node_id * fu_instance) list
(** Greedy earliest-free binding: operations are visited in start order and
    assigned the lowest-indexed instance of their class that is free for
    the operation's whole occupancy.  Never exceeds the schedule's
    allocation (guaranteed by the schedule's resource feasibility). *)

val value_intervals : Chop_sched.Schedule.t -> Chop_sched.Lifetime.interval list
(** {!Chop_sched.Lifetime.intervals}, with values feeding primary outputs
    held one step past the schedule's end, into the output register. *)

val bind_registers :
  Chop_sched.Schedule.t -> (Chop_dfg.Graph.node_id * int) list * int
(** Left-edge register allocation over {!value_intervals}: returns the
    producer-to-register assignment and the number of (word) registers
    used.  Two values share a register only when their lifetimes are
    disjoint. *)
