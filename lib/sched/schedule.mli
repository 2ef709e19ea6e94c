(** Operation schedules.

    A schedule assigns each computational node of a DFG a start step (in
    data-path cycles) under a functional-unit allocation: a number of unit
    instances per functional class. *)

type alloc = (string * int) list
(** Functional-unit allocation: [(class, instances)], each count >= 1,
    classes unique. *)

val alloc_get : alloc -> string -> int
(** Instances allocated to a class; 0 when absent. *)

val validate_alloc : alloc -> unit
(** @raise Invalid_argument on duplicate classes or non-positive counts. *)

type t = private {
  graph : Chop_dfg.Graph.t;
  alloc : alloc;
  order : Chop_dfg.Graph.node_id array;
      (** every computational node once, in the order the scheduler issued
          it; binding and simulation break start-step ties by this order *)
  starts : int array;
      (** start step by node id ({!Chop_dfg.Graph.size} entries); [-1] on
          boundary nodes *)
  latencies : int array;
      (** steps each node occupies, by node id; [0] on boundary nodes *)
  length : int;  (** schedule length: max finish step *)
}
(** Dense, node-indexed representation: {!start}, {!latency} and
    {!finish} are array reads.  Built only through {!make}; the arrays are
    read-only by convention. *)

val make :
  ?min_length:int ->
  graph:Chop_dfg.Graph.t ->
  alloc:alloc ->
  order:Chop_dfg.Graph.node_id array ->
  start:(Chop_dfg.Graph.node_id -> int) ->
  latency:(Chop_dfg.Graph.node_id -> int) ->
  unit ->
  t
(** [make ~graph ~alloc ~order ~start ~latency ()] records [start id] and
    [latency id] for each node of [order].  The length is the latest
    finish, raised to [min_length] when given (a fixed-length schedule
    that leaves its last steps idle).  No precedence or resource check is
    made; see {!check}.
    @raise Invalid_argument unless [order] lists every computational node
    of [graph] exactly once, with [start >= 0] and [latency >= 1]. *)

val start : t -> Chop_dfg.Graph.node_id -> int
(** @raise Not_found for nodes without a start (boundary nodes). *)

val latency : t -> Chop_dfg.Graph.node_id -> int
(** @raise Not_found for boundary nodes. *)

val finish : t -> Chop_dfg.Graph.node_id -> int
(** [start + latency]. *)

val check : t -> (unit, string) result
(** Verifies precedence (every operation starts no earlier than each
    predecessor's finish) and per-step resource usage within the
    allocation.  Returns [Error reason] on the first violation. *)

val busy_profile : t -> cls:string -> int array
(** [busy_profile s ~cls].(step) = units of [cls] busy at [step]; the
    array has [max 1 s.length] entries.  O(operations + busy steps). *)

val pp : Format.formatter -> t -> unit
