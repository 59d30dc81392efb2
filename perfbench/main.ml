(* Benchmark runner: one process, one domain, a closed loop over the
   items of one workload.  See perfbench/README.md.

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics; the last line of stdout is one JSON object. *)

module Telemetry = Slocal_obs.Telemetry
module Re_step = Slocal_formalism.Re_step
module Prng = Slocal_util.Prng
module W = Workloads

let expected_file = "perfbench/expected_re.txt"

(* Set-up runs [setup_reps] times and setup_s is the median, which
   keeps a millisecond-scale figure steady.  The count is fixed, not
   timed, so every run makes the same allocations before its first
   item (the run's peak memory depends on that history). *)
let setup_reps = 20

let workload_names = [ "certify-graphs"; "re-sequence"; "decide-lift" ]

(* The runner's set-up builds the inputs of every workload from the
   seed, each from its own split stream, so a seed gives the same
   inputs whichever workload runs, and setup_s measures one set-up
   phase for all workloads. *)
let build_all seed =
  let rng = Prng.create seed in
  let certify = W.certify_graphs (Prng.split rng) in
  let re = W.re_sequence ~expected:(W.load_expected expected_file) in
  let decide = W.decide_lift (Prng.split rng) in
  [ ("certify-graphs", certify); ("re-sequence", re); ("decide-lift", decide) ]

let now_s () = float_of_int (Spans.now_ns ()) /. 1e9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  let v = find () in
  close_in ic;
  v

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Items and passes *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable exact : int;
  counters : (string, int) Hashtbl.t;  (** Counter deltas, traced passes only. *)
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable alloc_b : float;
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    exact = 0;
    counters = Hashtbl.create 64;
    minor_collections = 0;
    major_collections = 0;
    alloc_b = 0.;
  }

(* Run one item in isolation: an exception or a failed check counts
   against the item, is logged with its id, and never stops the run.
   The RE cache is cleared first, outside the item's timing, as a
   one-shot CLI user sees it.  Only the item's workload calls are
   timed, traced and counted; its output checks run after that, with
   spans off.  Returns the item's wall and CPU seconds. *)
let run_item log tally (it : W.item) =
  Re_step.clear_cache ();
  let before = if !Spans.on then Telemetry.snapshot () else [] in
  let gc0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let t0 = now_s () and c0 = cpu_s () in
  let check =
    try Ok (Spans.item_span it.W.id it.W.run)
    with e -> Error ("exception " ^ Printexc.to_string e)
  in
  let dt = now_s () -. t0 and dc = cpu_s () -. c0 in
  let gc1 = Gc.quick_stat () and a1 = Gc.allocated_bytes () in
  tally.minor_collections <-
    tally.minor_collections + gc1.Gc.minor_collections - gc0.Gc.minor_collections;
  tally.major_collections <-
    tally.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
  tally.alloc_b <- tally.alloc_b +. (a1 -. a0);
  let tracing = !Spans.on in
  if tracing then
    List.iter
      (fun (name, d) ->
        Hashtbl.replace tally.counters name
          (d + Option.value ~default:0 (Hashtbl.find_opt tally.counters name)))
      (Telemetry.delta ~before ~after:(Telemetry.snapshot ()));
  let result =
    match check with
    | Error _ as e -> e
    | Ok check ->
        Spans.on := false;
        Fun.protect
          ~finally:(fun () -> Spans.on := tracing)
          (fun () ->
            try check () with e -> Error ("exception in check " ^ Printexc.to_string e))
  in
  tally.attempted <- tally.attempted + 1;
  (match result with
  | Ok exact ->
      if exact then tally.exact <- tally.exact + 1;
      Printf.fprintf log "item %s ok %s %.3fs\n%!" it.W.id
        (if exact then "exact" else "inexact")
        dt
  | Error why ->
      tally.failed <- tally.failed + 1;
      Printf.fprintf log "item %s FAILED %.3fs: %s\n%!" it.W.id dt why);
  (dt, dc)

type pass = { wall : float; cpu : float }

let run_pass tally items =
  List.fold_left
    (fun p it ->
      let dt, dc = run_item stdout tally it in
      { wall = p.wall +. dt; cpu = p.cpu +. dc })
    { wall = 0.; cpu = 0. } items

(* ------------------------------------------------------------------ *)
(* Self-test *)

(* One raising item and one wrong-verdict item must each count as a
   failure without stopping the pass, and span self times must sum to
   the item's wall time. *)
let self_test () =
  let tally = new_tally () in
  let items =
    [
      { W.id = "selftest/raises"; run = (fun () -> failwith "injected") };
      {
        W.id = "selftest/wrong-verdict";
        run = (fun () () -> Error "injected wrong verdict");
      };
      { W.id = "selftest/ok"; run = (fun () () -> Ok true) };
    ]
  in
  List.iter (fun it -> ignore (run_item stderr tally it)) items;
  Spans.self_test () && tally.attempted = 3 && tally.failed = 2 && tally.exact = 1

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; unit_ : string; value : float }

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let ratio a b = if b = 0. then 0. else a /. b

let layer_metrics ~layers ~(traced : tally) ~traced_wall ~untraced_wall =
  let layer l =
    match Hashtbl.find_opt layers l with
    | Some r -> r
    | None -> { Spans.calls = 0; self_ns = 0; alloc = 0. }
  in
  let c name =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt traced.counters name))
  in
  let calls l = float_of_int (layer l).Spans.calls in
  let busy l = float_of_int (layer l).Spans.self_ns /. 1e9 in
  let alloc l = (layer l).Spans.alloc /. 1e6 in
  let covered =
    Hashtbl.fold
      (fun l (r : Spans.layer) acc -> if l = "bench" then acc else acc + r.Spans.self_ns)
      layers 0
  in
  let m name unit_ value = { name; unit_; value } in
  [
    m "graph_gen.calls" "count" (calls "graph_gen");
    m "graph_gen.busy_s" "s" (busy "graph_gen");
    m "graph_gen.alloc_mb" "MB" (alloc "graph_gen");
    m "graph_gen.girth_swaps" "count" (c "graph.girth_swaps");
    m "graph_gen.gen_attempts" "count" (c "graph.gen_attempts");
    m "graph_gen.target_hit_ratio" "ratio"
      (ratio (W.extra "graph_gen.target_hits") (W.extra "graph_gen.certificates"));
    m "graph_gen.exact_independence_ratio" "ratio"
      (ratio (W.extra "graph_gen.exact_independence") (W.extra "graph_gen.certificates"));
    m "girth.calls" "count" (calls "girth");
    m "girth.busy_s" "s" (busy "girth");
    m "girth.bfs_runs" "count" (c "girth.bfs_runs");
    m "counting.calls" "count" (calls "counting");
    m "counting.busy_s" "s" (busy "counting");
    m "re_step.calls" "count" (calls "re_step");
    m "re_step.busy_s" "s" (busy "re_step");
    m "re_step.alloc_mb" "MB" (alloc "re_step");
    m "re_step.enum_nodes" "count" (c "re.enum_nodes");
    m "re_step.strong_configs" "count" (W.extra "re_step.strong_configs");
    m "re_step.weak_configs" "count" (W.extra "re_step.weak_configs");
    m "re_step.cache_hit_ratio" "ratio"
      (ratio (c "re.cache_hits") (c "re.cache_hits" +. c "re.cache_misses"));
    m "constr.memo_misses" "count" (c "constr.memo_misses");
    m "constr.memo_hit_ratio" "ratio"
      (ratio (c "constr.memo_hits") (c "constr.memo_hits" +. c "constr.memo_misses"));
    m "relaxation.calls" "count" (calls "relaxation");
    m "relaxation.busy_s" "s" (busy "relaxation");
    m "lift.calls" "count" (calls "lift");
    m "lift.busy_s" "s" (busy "lift");
    m "lift.alloc_mb" "MB" (alloc "lift");
    m "lift.white_configs" "count" (W.extra "lift.white_configs");
    m "solver.calls" "count" (calls "solver");
    m "solver.busy_s" "s" (busy "solver");
    m "solver.nodes" "count" (c "solver.nodes");
    m "solver.backtracks" "count" (c "solver.backtracks");
    m "solver.budget_ratio" "ratio" (ratio (c "solver.budget_exhausted") (calls "solver"));
    m "zero_round_search.calls" "count" (calls "zero_round_search");
    m "zero_round_search.busy_s" "s" (busy "zero_round_search");
    m "zero_round_search.instance_checks" "count" (c "zrs.instance_checks");
    m "zero_round_search.table_hit_ratio" "ratio"
      (ratio (c "zrs.table_hits") (c "zrs.table_hits" +. c "zrs.table_misses"));
    m "gc.minor_collections" "count" (float_of_int traced.minor_collections);
    m "gc.major_collections" "count" (float_of_int traced.major_collections);
    m "gc.alloc_gb" "GB" (traced.alloc_b /. 1e9);
    m "trace.overhead_s" "s" (traced_wall -. untraced_wall);
    m "trace.span_coverage" "ratio" (float_of_int covered /. 1e9 /. traced_wall);
  ]

(* ------------------------------------------------------------------ *)
(* Main *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (self_test ()) then fail "self-test failed";
  if not (List.mem !workload workload_names) then
    fail "unknown workload %S (one of: %s)" !workload (String.concat ", " workload_names);
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let tracing = !trace = 1 in
  (* Set-up: seeded inputs, problems, supports and expected answers.
     Repeated, and redone before every pass so that no pass inherits
     another's warm constraint memo tables. *)
  let setup_times = ref [] in
  let setup () =
    let t0 = now_s () in
    let items =
      try List.assoc !workload (build_all !seed)
      with e -> fail "set-up failed: %s" (Printexc.to_string e)
    in
    setup_times := (now_s () -. t0) :: !setup_times;
    items
  in
  let items = ref (setup ()) in
  for _ = 2 to setup_reps do
    items := setup ()
  done;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" !workload !seed
    !seconds !trace;
  Printf.printf "items: %s\n%!" (String.concat " " (List.map (fun (it : W.item) -> it.W.id) !items));
  let tally = new_tally () in
  let t_start = now_s () in
  let rec untraced_passes acc =
    let p = run_pass tally !items in
    let acc = p :: acc in
    if tracing || now_s () -. t_start +. p.wall > !seconds then List.rev acc
    else begin
      items := setup ();
      untraced_passes acc
    end
  in
  let passes = untraced_passes [] in
  let wall = median (List.map (fun p -> p.wall) passes) in
  let metrics =
    if not tracing then
      [
        { name = "wall_s"; unit_ = "s"; value = wall };
        { name = "cpu_s"; unit_ = "s"; value = median (List.map (fun p -> p.cpu) passes) };
        { name = "setup_s"; unit_ = "s"; value = median !setup_times };
        { name = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb () };
        {
          name = "ok_ratio";
          unit_ = "ratio";
          value = ratio (float_of_int (tally.attempted - tally.failed)) (float_of_int tally.attempted);
        };
        {
          name = "exact_ratio";
          unit_ = "ratio";
          value = ratio (float_of_int tally.exact) (float_of_int tally.attempted);
        };
      ]
    else begin
      items := setup ();
      let traced = new_tally () in
      Hashtbl.reset W.extras;
      Spans.reset ();
      Spans.on := true;
      let p = run_pass traced !items in
      Spans.on := false;
      tally.attempted <- tally.attempted + traced.attempted;
      tally.failed <- tally.failed + traced.failed;
      let spans = !Spans.recorded in
      (try
         if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
         Spans.write_jsonl
           (Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" !workload !seed)
           spans
       with Sys_error e -> prerr_endline ("perfbench: cannot write spans: " ^ e));
      layer_metrics ~layers:(Spans.by_layer spans) ~traced ~traced_wall:p.wall
        ~untraced_wall:wall
    end
  in
  print_result ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed
    metrics
