(* An in-memory span and counter recorder for the traced run.

   Spans are recorded from the benchmark's own code, around its calls into
   each layer of the program; nothing inside the program is instrumented.
   Recording is single-threaded: the traced run drives every layer from the
   main thread.  When tracing is off, [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, 0 at top level *)
  start : float;  (** seconds since the recorder was enabled *)
  stop : float;
  probe : bool;  (** recorded by a layer probe, not by the workload *)
}

let enabled = ref false

(* Set while a layer probe runs (see Layer_metrics). *)
let probing = ref false
let origin = ref 0.
let next_id = ref 1
let stack = ref []
let spans = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let now () = Unix.gettimeofday ()

let enable () =
  enabled := true;
  origin := now ()

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now () -. !origin in
    let close () =
      stack := List.tl !stack;
      spans :=
        { id; name; parent; start; stop = now () -. !origin; probe = !probing }
        :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0. (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0. (Hashtbl.find_opt counters name)
let all_spans () = List.rev !spans

(* Self time of every span: its duration minus the time its direct children
   cover.  Children never overlap (recording is single-threaded). *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        s.stop -. s.start
        -. Option.value ~default:0. (Hashtbl.find_opt child s.id) ))
    spans

(* (calls, total self seconds) per span name, over the given spans. *)
let by_name spans =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, tot = Option.value ~default:(0, 0.) (Hashtbl.find_opt t s.name) in
      Hashtbl.replace t s.name (n + 1, tot +. self))
    (self_times spans);
  t

let to_json spans =
  let module J = Chop_util.Json in
  J.Array
    (List.map
       (fun s ->
         J.Object
           [
             ("id", J.Int s.id);
             ("name", J.String s.name);
             ("parent", J.Int s.parent);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
             ("probe", J.Bool s.probe);
           ])
       spans)
