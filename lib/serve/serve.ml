(* The slocal serve daemon core: a JSONL request loop over a
   Unix-domain socket, one Telemetry.with_request window per work
   request (DESIGN.md §9). *)

open Slocal_formalism
module Json = Slocal_obs.Json
module Ledger = Slocal_obs.Ledger
module Telemetry = Slocal_obs.Telemetry
module Openmetrics = Slocal_obs.Openmetrics
module Solver = Slocal_model.Solver
module Framework = Supported_local.Framework
module Chk = Slocal_analysis.Check
module Diagnostic = Slocal_analysis.Diagnostic
module Spec = Slocal_analysis.Spec

(* serve.requests/serve.errors tick inside the request window (so they
   take part in the per-request sum invariant); serve.connections,
   serve.heartbeats and serve.control tick between windows and are the
   documented out-of-window carve-out of the stats op's check. *)
let c_requests = Telemetry.counter "serve.requests"
let c_errors = Telemetry.counter "serve.errors"
let c_connections = Telemetry.counter "serve.connections"
let c_heartbeats = Telemetry.counter "serve.heartbeats"
let c_control = Telemetry.counter "serve.control"

let out_of_window = [ "serve.connections"; "serve.heartbeats"; "serve.control" ]

(* Spec parsing is shared with the one-shot CLI ({!Slocal_analysis.Spec}),
   so the daemon and the CLI accept identical specs; a bad spec fails
   the request. *)
let spec_or_fail parse spec =
  match parse spec with
  | Ok v -> v
  | Error d -> invalid_arg (Format.asprintf "%a" Diagnostic.pp d)

let parse_problem_spec = spec_or_fail Spec.problem
let parse_graph_spec = spec_or_fail Spec.graph

let kernel_name = function
  | Re_step.Fast -> "fast"
  | Re_step.Reference -> "reference"

(* ------------------------------------------------------------------ *)
(* Daemon state. *)

type config = {
  record : string option;
  request_ledger : string option;
  heartbeat : out_channel option;
  heartbeat_interval_ns : int64;
}

let default_config =
  {
    record = None;
    request_ledger = None;
    heartbeat = None;
    heartbeat_interval_ns = 500_000_000L;
  }

(* staticcheck: per-call one state per daemon run, owned by the single
   serving domain; requests are handled sequentially *)
type state = {
  cfg : config;
  started_ns : int64;
  baseline : (string * int) list;
  capture : out_channel option;
  mutable served : int;
  mutable errors : int;
  mutable auto_id : int;
  mutable stop : bool;
  mutable totals : (string * int) list;
  mutable hb_last : int64;
}

let create ?(config = default_config) () =
  let started = Telemetry.now_ns () in
  {
    cfg = config;
    started_ns = started;
    baseline = Telemetry.snapshot ();
    capture =
      Option.map
        (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
        config.record;
    served = 0;
    errors = 0;
    auto_id = 0;
    stop = false;
    totals = [];
    (* Back-dated so the first heartbeat opportunity emits. *)
    hb_last = Int64.sub started config.heartbeat_interval_ns;
  }

let served st = st.served
let errored st = st.errors
let stopped st = st.stop
let request_totals st = st.totals

let close st =
  match st.capture with
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
  | None -> ()

let merge_counters totals deltas =
  List.fold_left
    (fun acc (nm, v) ->
      let cur = Option.value ~default:0 (List.assoc_opt nm acc) in
      (nm, cur + v) :: List.remove_assoc nm acc)
    totals deltas
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Request fields. *)

let member_string req k = Option.bind (Json.member k req) Json.as_string
let member_int req k = Option.bind (Json.member k req) Json.as_int

let require_string req k =
  match member_string req k with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "missing field %S" k)

let opt_int_json = function Some v -> Json.Int v | None -> Json.Null

let need_problem problems req =
  let p = parse_problem_spec (require_string req "problem") in
  problems := (p.Problem.name, Problem.canonical_hash p) :: !problems;
  p

let with_kernel req kernel_used f =
  match member_string req "kernel" with
  | None ->
      kernel_used := Some (kernel_name (Re_step.current_kernel ()));
      f ()
  | Some k ->
      let k' =
        match k with
        | "fast" -> Re_step.Fast
        | "reference" -> Re_step.Reference
        | s -> invalid_arg (Printf.sprintf "unknown kernel %S" s)
      in
      let prev = Re_step.current_kernel () in
      Re_step.set_kernel k';
      kernel_used := Some k;
      Fun.protect ~finally:(fun () -> Re_step.set_kernel prev) f

(* ------------------------------------------------------------------ *)
(* Work ops: one Telemetry.with_request window each. *)

let outcome_name = function
  | Solver.Solution _ -> "solution"
  | Solver.No_solution -> "no_solution"
  | Solver.Budget_exceeded -> "budget_exceeded"

let certificate_name = function
  | Framework.Unsolvable_by_search -> "unsolvable-by-search"
  | Framework.Solvable _ -> "solvable"
  | Framework.Undecided -> "undecided"

let is_work_op = function
  | "re" | "sequence" | "solve" | "audit" -> true
  | _ -> false

let run_op ~problems ~kernel_used req op =
  let budget = member_int req "budget" in
  match op with
  | "re" ->
      with_kernel req kernel_used @@ fun () ->
      let steps = max 1 (Option.value ~default:1 (member_int req "steps")) in
      let p = ref (need_problem problems req) in
      for _ = 1 to steps do
        p := Re_step.re !p
      done;
      let q = !p in
      let base =
        [
          ("steps", Json.Int steps);
          ("labels", Json.Int (Alphabet.size q.Problem.alphabet));
          ("white_configs", Json.Int (Constr.size q.Problem.white));
          ("black_configs", Json.Int (Constr.size q.Problem.black));
          ("hash", Json.Int (Problem.canonical_hash q));
          ("fixed_point", Json.Bool (Re_step.is_fixed_point q));
        ]
      in
      let text =
        match Option.bind (Json.member "text" req) Json.as_bool with
        | Some true -> [ ("text", Json.String (Problem.to_string q)) ]
        | _ -> []
      in
      Json.Obj (base @ text)
  | "sequence" ->
      with_kernel req kernel_used @@ fun () ->
      let steps = max 0 (Option.value ~default:1 (member_int req "steps")) in
      let p = need_problem problems req in
      let seq = Sequence.iterate_re p ~steps in
      let verdict = Sequence.is_lower_bound_sequence ?max_nodes:budget seq in
      Json.Obj
        [
          ("length", Json.Int (List.length seq));
          ( "hashes",
            Json.List
              (List.map (fun q -> Json.Int (Problem.canonical_hash q)) seq) );
          ( "lower_bound",
            match verdict with Some b -> Json.Bool b | None -> Json.Null );
        ]
  | "solve" ->
      let p = need_problem problems req in
      let g = parse_graph_spec (require_string req "graph") in
      let outcome, s = Solver.solve_stats ?max_nodes:budget g p in
      Json.Obj
        [
          ("outcome", Json.String (outcome_name outcome));
          ("nodes", Json.Int s.Solver.nodes);
          ("backtracks", Json.Int s.Solver.backtracks);
          ("budget_exhausted", Json.Bool s.Solver.budget_exhausted);
        ]
  | "audit" ->
      let p = need_problem problems req in
      let g = parse_graph_spec (require_string req "graph") in
      let k = max 1 (Option.value ~default:1 (member_int req "k")) in
      let r = Framework.analyze ?max_nodes:budget g ~last_problem:p ~k in
      let diags = Chk.audit ~support:g ~last_problem:p ~k r in
      Json.Obj
        [
          ("support_nodes", Json.Int r.Framework.support_nodes);
          ("girth", opt_int_json r.Framework.girth);
          ("certificate", Json.String (certificate_name r.Framework.certificate));
          ("det_rounds", opt_int_json r.Framework.det_rounds);
          ("diagnostics", Json.Int (List.length diags));
          ("exit_code", Json.Int (Diagnostic.exit_code diags));
        ]
  | op -> invalid_arg (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* Control ops: outside any request window, so [stats] reads the
   registry at a quiescent point. *)

let stats_json st =
  Telemetry.sample_gc ();
  let since =
    List.filter_map
      (fun (nm, kind, v) ->
        match kind with
        | Telemetry.Counter ->
            let d = v - Option.value ~default:0 (List.assoc_opt nm st.baseline) in
            if d = 0 then None else Some (nm, d)
        | Telemetry.Gauge -> None)
      (Telemetry.kinds_snapshot ())
  in
  (* The sum invariant: every counter attributed to a request window
     matches the registry's movement since daemon start, and every
     counter that moved without attribution is one of the daemon's own
     out-of-window counters. *)
  let check_sum =
    List.for_all
      (fun (nm, v) ->
        Option.value ~default:0 (List.assoc_opt nm since) = v)
      st.totals
    && List.for_all
         (fun (nm, d) ->
           d = Option.value ~default:0 (List.assoc_opt nm st.totals)
           || List.mem nm out_of_window)
         since
  in
  let hits = Telemetry.value (Telemetry.counter "re.cache_hits") in
  let misses = Telemetry.value (Telemetry.counter "re.cache_misses") in
  let obj kvs = Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) kvs) in
  Json.Obj
    [
      ( "uptime_ns",
        Json.Int (Int64.to_int (Int64.sub (Telemetry.now_ns ()) st.started_ns))
      );
      ("served", Json.Int st.served);
      ("errors", Json.Int st.errors);
      ("cache", Json.Obj [ ("hits", Json.Int hits); ("misses", Json.Int misses) ]);
      ("request_totals", obj st.totals);
      ("counters_since_start", obj since);
      ("check_sum", Json.Bool check_sum);
    ]

let control_op st op =
  match op with
  | "stats" -> stats_json st
  | "metrics" ->
      Json.Obj
        [
          ("content_type", Json.String "application/openmetrics-text");
          ("text", Json.String (Openmetrics.render ()));
        ]
  | "shutdown" ->
      st.stop <- true;
      Json.Obj [ ("stopping", Json.Bool true); ("served", Json.Int st.served) ]
  | "" -> invalid_arg "missing field \"op\""
  | op -> invalid_arg (Printf.sprintf "unknown op %S" op)

(* ------------------------------------------------------------------ *)
(* One request. *)

let capture_schema_version = "slocal.capture/1"

let write_capture st req rr =
  match st.capture with
  | None -> ()
  | Some oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String capture_schema_version);
                ("request", req);
                ("summary", Ledger.request_to_json rr);
              ]));
      output_char oc '\n';
      flush oc

let handle_request st req =
  let id =
    match member_string req "id" with
    | Some s -> s
    | None ->
        st.auto_id <- st.auto_id + 1;
        Printf.sprintf "r%d" st.auto_id
  in
  let op = Option.value ~default:"" (member_string req "op") in
  st.served <- st.served + 1;
  if is_work_op op then begin
    let problems = ref [] and kernel_used = ref None in
    let body, summary =
      Telemetry.with_request ~id (fun () ->
          Telemetry.incr c_requests;
          match run_op ~problems ~kernel_used req op with
          | j -> Ok j
          | exception e ->
              Telemetry.incr c_errors;
              Error (Printexc.to_string e))
    in
    (match body with Error _ -> st.errors <- st.errors + 1 | Ok _ -> ());
    let cdelta nm =
      Option.value ~default:0
        (List.assoc_opt nm summary.Telemetry.rq_counters)
    in
    let rr =
      {
        Ledger.rr_id = id;
        rr_op = op;
        rr_problems = List.rev !problems;
        rr_kernel = !kernel_used;
        rr_wall_ns = Int64.to_int summary.Telemetry.rq_wall_ns;
        rr_alloc_b = summary.Telemetry.rq_alloc_b;
        rr_cache_hits = cdelta "re.cache_hits";
        rr_cache_misses = cdelta "re.cache_misses";
        rr_outcome = (match body with Ok _ -> "ok" | Error _ -> "error");
      }
    in
    st.totals <- merge_counters st.totals summary.Telemetry.rq_counters;
    Telemetry.Histogram.record
      (Telemetry.histogram "serve.request_ns")
      (Int64.to_int summary.Telemetry.rq_wall_ns);
    (match st.cfg.request_ledger with
    | Some path -> (
        match Ledger.append_request ~path rr with
        | Ok () -> ()
        | Error msg -> Printf.eprintf "serve: request ledger: %s\n%!" msg)
    | None -> ());
    write_capture st req rr;
    let payload =
      match body with
      | Ok r -> [ ("ok", Json.Bool true); ("result", r) ]
      | Error msg -> [ ("ok", Json.Bool false); ("error", Json.String msg) ]
    in
    Json.Obj
      ([ ("id", Json.String id); ("op", Json.String op) ]
      @ payload
      @ [
          ("request", Ledger.request_to_json rr);
          ( "counters",
            Json.Obj
              (List.map
                 (fun (n, v) -> (n, Json.Int v))
                 summary.Telemetry.rq_counters) );
        ])
  end
  else begin
    Telemetry.incr c_control;
    match control_op st op with
    | j ->
        Json.Obj
          [
            ("id", Json.String id);
            ("op", Json.String op);
            ("ok", Json.Bool true);
            ("result", j);
          ]
    | exception e ->
        st.errors <- st.errors + 1;
        Json.Obj
          [
            ("id", Json.String id);
            ("op", Json.String op);
            ("ok", Json.Bool false);
            ("error", Json.String (Printexc.to_string e));
          ]
  end

let handle_line st line =
  let resp =
    match Json.of_string line with
    | Error msg ->
        Json.Obj
          [
            ("ok", Json.Bool false);
            ("error", Json.String ("invalid JSON: " ^ msg));
          ]
    | Ok req -> handle_request st req
  in
  Json.to_string resp

(* ------------------------------------------------------------------ *)
(* Heartbeats. *)

let maybe_heartbeat st =
  match st.cfg.heartbeat with
  | None -> ()
  | Some oc ->
      let now = Telemetry.now_ns () in
      if Int64.sub now st.hb_last >= st.cfg.heartbeat_interval_ns then begin
        st.hb_last <- now;
        Telemetry.incr c_heartbeats;
        let hits = Telemetry.value (Telemetry.counter "re.cache_hits") in
        let misses = Telemetry.value (Telemetry.counter "re.cache_misses") in
        let rate =
          if hits + misses = 0 then 0.
          else 100. *. float_of_int hits /. float_of_int (hits + misses)
        in
        Printf.fprintf oc
          "[serve] up %.1fs  served %d  errors %d  re-cache %d/%d (%.1f%% \
           hits)\n\
           %!"
          (Int64.to_float (Int64.sub now st.started_ns) /. 1e9)
          st.served st.errors hits (hits + misses) rate
      end

(* ------------------------------------------------------------------ *)
(* The socket loop. *)

let serve ~socket st =
  if Sys.file_exists socket then Sys.remove socket;
  (* A client hanging up mid-reply must not kill the daemon. *)
  (* staticcheck: immutable-after-init installed once per serve call,
     before any connection; never changed while serving *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Sys.remove socket with Sys_error _ -> ());
      close st)
  @@ fun () ->
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 8;
  while not st.stop do
    let cfd, _ = Unix.accept fd in
    Telemetry.incr c_connections;
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    (try
       let continue = ref true in
       while !continue && not st.stop do
         match input_line ic with
         | line ->
             if String.trim line <> "" then begin
               output_string oc (handle_line st line);
               output_char oc '\n';
               flush oc;
               maybe_heartbeat st
             end
         | exception End_of_file -> continue := false
       done
     with Sys_error _ | Unix.Unix_error _ -> ());
    (try flush oc with Sys_error _ -> ());
    try Unix.close cfd with Unix.Unix_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Client helpers. *)

type conn = { c_fd : Unix.file_descr; c_ic : in_channel; c_oc : out_channel }

let rec wait_connect ~socket deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
      {
        c_fd = fd;
        c_ic = Unix.in_channel_of_descr fd;
        c_oc = Unix.out_channel_of_descr fd;
      }
  | exception
      Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when Telemetry.now_ns () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      wait_connect ~socket deadline
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect ?(wait_s = 0.) ~socket () =
  let deadline =
    Int64.add (Telemetry.now_ns ()) (Int64.of_float (wait_s *. 1e9))
  in
  wait_connect ~socket deadline

let roundtrip conn req =
  output_string conn.c_oc (Json.to_string req);
  output_char conn.c_oc '\n';
  flush conn.c_oc;
  match input_line conn.c_ic with
  | line -> Json.of_string line
  | exception End_of_file -> Error "connection closed"

let disconnect conn =
  (try flush conn.c_oc with Sys_error _ -> ());
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Capture files. *)

let read_capture path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let items = ref [] and skipped = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Json.of_string line with
             | Error _ -> incr skipped
             | Ok j -> (
                 match
                   ( Option.bind (Json.member "schema" j) Json.as_string,
                     Json.member "request" j )
                 with
                 | Some s, Some req when s = capture_schema_version ->
                     let recorded =
                       match Json.member "summary" j with
                       | Some sj -> Result.to_option (Ledger.request_of_json sj)
                       | None -> None
                     in
                     items := (req, recorded) :: !items
                 | _ -> incr skipped)
         done
       with End_of_file -> ());
      (List.rev !items, !skipped))
