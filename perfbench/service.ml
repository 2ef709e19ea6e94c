(* The service layers for the traced run: `chop gateway` fronting two
   `chop serve` backends (one scheduler thread and one job each), every one
   its own process, and the in-process pipeline behind them.  The probe
   times the codec, the in-process request pipeline, a direct round trip to
   a backend and the same request through the gateway on twelve warm
   explore keys, and checks each served text against the in-process
   rendering of the same parameters. *)

module E = Chop.Explore
module P = Chop_server.Protocol
module J = Chop_util.Json
module T = Trace
open Common

(* ---- processes and sockets ---- *)

(* Socket paths are relative to the working directory (the checkout), so
   they stay far below the sun_path limit however deep the checkout is. *)
let tmp_root = ".perfbench"

type cluster = { dir : string; backends : string list; gateway : string; pids : int list }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let live : cluster list ref = ref []

let stop c =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) c.pids;
  List.iter
    (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    c.pids;
  rm_rf c.dir;
  live := List.filter (fun c' -> c' != c) !live

let stop_all () = List.iter stop !live

let connect_retry sock =
  let rec go n =
    match Chop_server.Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 500

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn chop args =
  Unix.create_process chop (Array.of_list (chop :: args)) (Lazy.force devnull)
    (Lazy.force devnull) Unix.stderr

let start ~chop =
  if not (Sys.file_exists tmp_root) then Unix.mkdir tmp_root 0o700;
  let dir = Filename.concat tmp_root (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let sock n = Filename.concat dir n in
  let backends = [ sock "b0.sock"; sock "b1.sock" ] in
  let c = { dir; backends; gateway = sock "gw.sock"; pids = [] } in
  live := c :: !live;
  let pids =
    List.map
      (fun b -> spawn chop [ "serve"; "--socket"; b; "-c"; "1"; "-j"; "1"; "--quiet" ])
      backends
  in
  let c = { c with pids } in
  live := c :: List.tl !live;
  List.iter (fun b -> Chop_server.Client.close (connect_retry b)) backends;
  let gw =
    spawn chop
      ([ "gateway"; "--socket"; c.gateway; "--quiet" ]
      @ List.concat_map (fun b -> [ "-b"; b ]) backends)
  in
  let c = { c with pids = gw :: pids } in
  live := c :: List.tl !live;
  Chop_server.Client.close (connect_retry c.gateway);
  c

(* ---- requests ---- *)

let read_params =
  List.concat_map
    (fun b ->
      List.map (fun k -> { P.default_params with P.benchmark = b; partitions = k }) [ 2; 3 ])
    [ "ar"; "ewf"; "fir8"; "fir16"; "diffeq"; "dct8" ]

let request ~id op params = J.print (P.request_to_json { P.id; op; deadline_ms = None; params })

(* One request and its response; a transport failure becomes an error
   response. *)
let rpc conn line =
  match
    Chop_server.Client.send_line conn line;
    Chop_server.Client.recv conn
  with
  | Ok (Some j) -> j
  | Ok None -> P.error_response ~id:"-" ~code:P.Internal "connection closed"
  | Error m -> P.error_response ~id:"-" ~code:P.Internal m
  | exception (Unix.Unix_error _ | Sys_error _ as e) ->
      P.error_response ~id:"-" ~code:P.Internal (Printexc.to_string e)

(* The in-process rendering of an explore of [spec] in a fresh session. *)
let reference spec =
  let config = config ~heuristic:E.Iterative (Chop.Pred_cache.create ()) in
  let r = E.with_session config spec E.Session.run in
  T.span "ops.render" (fun () ->
      Chop_server.Ops.render_explore spec ~keep_all:false ~csv:false ~verbose:false r)

(* Sequential, single-threaded: the codec, the in-process pipeline, a direct
   round trip to a backend and the same request through the gateway, each
   timed on a warm engine. *)
let layer_pass c lines =
  let server =
    Chop_server.Server.create
      {
        Chop_server.Server.default_config with
        socket_path = None;
        concurrency = 1;
        jobs = 1;
        log = None;
        handle_signals = false;
      }
  in
  let direct = List.map connect_retry c.backends in
  let gw = connect_retry c.gateway in
  List.iter
    (fun line ->
      ignore
        (T.span "protocol.codec" (fun () ->
             J.print (P.request_to_json (Result.get_ok (P.parse_request line)))));
      ignore (Chop_server.Server.handle_line server line);
      ignore (T.span "server.handle" (fun () -> Chop_server.Server.handle_line server line));
      (* warm the key on both backends, then time the round trips *)
      List.iter (fun d -> ignore (rpc d line)) direct;
      ignore (T.span "server.rtt" (fun () -> rpc (List.hd direct) line));
      ignore (T.span "gateway.rtt" (fun () -> rpc gw line)))
    lines;
  List.iter Chop_server.Client.close (gw :: direct)

let read_lines () = List.mapi (fun i p -> request ~id:(Printf.sprintf "w%d" i) P.Explore p) read_params

(* Starts its own gateway and backends, measures [layer_pass] on the twelve
   keys, then checks every explore text the backends serve against the
   in-process rendering.
   @raise Failure when a served text differs. *)
let probe ~chop () =
  let c = start ~chop in
  Fun.protect
    ~finally:(fun () -> stop c)
    (fun () ->
      let lines = read_lines () in
      layer_pass c lines;
      let gw = connect_retry c.gateway in
      let violations =
        List.concat
          (List.map2
             (fun params line ->
               let spec = Result.get_ok (Chop_server.Ops.spec_of_params params) in
               Checks.response_matches ~what:"explore" ~expected:(reference spec)
                 (rpc gw line))
             read_params lines)
      in
      Chop_server.Client.close gw;
      if violations <> [] then failwith (String.concat "; " violations))
