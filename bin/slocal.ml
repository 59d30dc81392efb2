(* slocal — a command-line interface to the Supported LOCAL framework.

   Subcommands:
     diagram  — print a problem and its black/white strength diagrams
     re       — apply the round elimination step RE = R̄ ∘ R
     lift     — print lift_{Δ,r}(Π) (Definition 3.1)
     solve    — decide bipartite solvability of a problem on a graph
     bounds   — evaluate the paper's bound formulas on given parameters
     gen      — generate a support graph and report girth/independence
     sequence — iterate RE and machine-check the lower-bound sequence
     stats    — run a workload and print the telemetry counter summary
     sweep    — decide 0-round solvability over the two-label space
     runs     — list/show/diff/gc the slocal.run/1 ledger
     trace    — analyze a recorded trace (trace report FILE)
     export   — print a problem in the textual document format
     lint     — static analysis: verify the formalism invariants
     audit    — re-validate a lower-bound certificate end to end

   The kernel-facing subcommands (re, lift, solve, gen, audit, stats,
   sequence, sweep) accept [--trace FILE] to record a JSONL telemetry
   trace (schema slocal.trace/5, with per-span GC-work deltas; see
   DESIGN.md) and [--metrics] to print the counter summary to stderr
   on exit; each of them also appends one
   slocal.run/1 manifest record to the run ledger (SLOCAL_LEDGER or
   .slocal/runs.jsonl; "off" disables).  re/solve/sequence/audit/stats
   additionally take [--openmetrics FILE] (Prometheus text exposition
   on exit) and [--progress] (throttled stderr heartbeat; on by
   default when stderr is a TTY).  [trace report FILE] reads a trace
   back and prints a profile (span tree self-times, hotspots, critical
   path, provenance table), with [--alloc] (self/cumulative
   allocation), [--json] (schema slocal.profile/3) and [--folded] /
   [--folded-alloc] (flamegraph.pl / speedscope) outputs.

   Problems are selected from the built-in families of the paper:
     matching:D:X:Y      Π_D(X,Y)            (Definition 4.2)
     mm:D                maximal matching    (Appendix A)
     arb:D:C             Π_D(C)              (Definition 5.2)
     ruling:D:C:B        Π_D(C,B)            (Definition 6.2)
     so:D                sinkless orientation
     col:D:C             C-coloring
*)

open Cmdliner
open Slocal_formalism
module Telemetry = Slocal_obs.Telemetry
module Gen = Slocal_graph.Graph_gen
module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Girth = Slocal_graph.Girth
module Solver = Slocal_model.Solver
module Checker = Slocal_model.Checker
module Core = Supported_local
module Diagnostic = Slocal_analysis.Diagnostic
module Chk = Slocal_analysis.Check
module Profile = Slocal_analysis.Profile
module Source = Slocal_analysis.Source
module Staticcheck = Slocal_analysis.Staticcheck
module Json = Slocal_obs.Json
module Ledger = Slocal_obs.Ledger
module Progress = Slocal_obs.Progress
module Openmetrics = Slocal_obs.Openmetrics
module Spec = Slocal_analysis.Spec

(* A spec that does not parse is unusable input: print its SL000
   diagnostic and exit 2, the lint/audit contract for unusable input. *)
let or_exit = function
  | Ok v -> v
  | Error d ->
      Format.eprintf "%a@." Diagnostic.pp d;
      exit 2

let parse_problem spec = or_exit (Spec.problem spec)
let parse_graph spec = or_exit (Spec.graph spec)

let problem_arg =
  let doc =
    "Problem spec: matching:D:X:Y, mm:D, arb:D:C, ruling:D:C:B, so:D, col:D:C, file:PATH."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROBLEM" ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by the kernel-facing subcommands. *)

let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a JSONL telemetry trace (schema slocal.trace/5) to $(docv): \
           spans over the hot kernels (with allocation and GC-work deltas) \
           plus a final counter snapshot.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry counter summary to stderr on exit.")

let openmetrics_opt =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:
          "On exit, write the telemetry registry in the Prometheus text \
           exposition format to $(docv) (atomic temp-file + rename, so a \
           textfile collector never reads a torn snapshot); $(b,-) or no \
           value for stdout.")

let progress_flag =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Emit throttled [progress] heartbeat lines to stderr even when \
           stderr is not a TTY (on a TTY the heartbeat is on by default).")

let kernel_name = function
  | Re_step.Fast -> "fast"
  | Re_step.Reference -> "reference"

(* Observability wrapper around every kernel-facing subcommand: opens
   the run-ledger context (one slocal.run/1 record per invocation,
   regardless of flags), installs the requested trace sink, arms the
   progress heartbeat and, on the way out, emits the final telemetry
   snapshots, the OpenMetrics exposition and the ledger record.  The
   teardown is registered with [at_exit] as well, because lint/audit
   exit from inside their run function ([Fun.protect] finalizers do
   not run across [exit]); the [finished] guard keeps the paths
   idempotent. *)
let with_telemetry ~cmd ?kernel ?(progress_mode = Progress.Auto) trace metrics
    openmetrics f =
  Ledger.begin_run ~argv:(Array.to_list Sys.argv);
  Option.iter (fun k -> Ledger.note_kernel (kernel_name k)) kernel;
  Option.iter (fun p -> Ledger.note_artifact ~kind:"trace" p) trace;
  Progress.set_mode progress_mode;
  let oc = Option.map open_out trace in
  (match oc with
  | Some oc -> Telemetry.set_sink (Telemetry.jsonl_sink oc)
  | None -> ());
  Telemetry.message (Printf.sprintf "slocal %s" cmd);
  let finished = ref false in
  let finish outcome =
    if not !finished then begin
      finished := true;
      Telemetry.sample_gc ();
      Telemetry.emit_counters ();
      Telemetry.emit_histograms ();
      if metrics then Format.eprintf "%a@?" Telemetry.pp_summary ();
      (match openmetrics with
      | None -> ()
      | Some "-" -> print_string (Openmetrics.render ())
      | Some file -> (
          try
            Openmetrics.write_file file;
            Ledger.note_artifact ~kind:"openmetrics" file
          with Sys_error msg ->
            Format.eprintf "openmetrics: cannot write %s: %s@." file msg));
      Ledger.finish_run ~outcome;
      Progress.set_mode Progress.Off;
      Telemetry.set_sink Telemetry.null_sink;
      Option.iter close_out oc
    end
  in
  at_exit (fun () -> finish "exit");
  match f () with
  | v ->
      finish "ok";
      v
  | exception Re_step.Alphabet_too_large { problem; labels } ->
      (* Unusable input for the bitset-indexed kernels: a diagnostic and
         exit 2, as for a spec that does not parse. *)
      finish "error";
      Format.eprintf "%a@." Diagnostic.pp (Chk.universe_error ~subject:problem labels);
      exit 2
  | exception Core.Zero_round.Unusable_support { problem; reason } ->
      finish "error";
      Format.eprintf "%a@." Diagnostic.pp
        (Diagnostic.error ~code:"SL006" ~subject:problem reason);
      exit 2
  | exception e ->
      finish "error";
      raise e

let kernel_opt =
  let kernel_conv =
    Arg.enum [ ("fast", Re_step.Fast); ("reference", Re_step.Reference) ]
  in
  Arg.(
    value
    & opt kernel_conv Re_step.Fast
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Round elimination kernel: $(b,fast) (packed configuration keys, \
           memoized constraint queries, subset-lattice maximality prune, \
           cross-invocation result cache — the default) or $(b,reference) \
           (the original bottom-up enumerate-then-filter oracle).")

let graph_arg pos_idx =
  let doc =
    "Graph spec: cycle:K (C_2K 2-colored), kbb:A:B, cover-petersen, \
     cover-random:N:D:SEED, biregular:NW:NB:DW:DB:SEED."
  in
  Arg.(required & pos pos_idx (some string) None & info [] ~docv:"GRAPH" ~doc)

(* ------------------------------------------------------------------ *)

let diagram_cmd =
  let run spec =
    let p = parse_problem spec in
    print_string (Problem.to_string p);
    Format.printf "@.black diagram:@.%a@." (Diagram.pp p.Problem.alphabet)
      (Diagram.black p);
    Format.printf "@.white diagram:@.%a@." (Diagram.pp p.Problem.alphabet)
      (Diagram.white p);
    let closed = Diagram.right_closed_sets (Diagram.black p) in
    Format.printf "@.%d right-closed label-sets (black):@." (List.length closed);
    List.iter
      (fun s ->
        Format.printf "  %s@." (Re_step.set_name p.Problem.alphabet s))
      closed
  in
  Cmd.v
    (Cmd.info "diagram" ~doc:"Print a problem and its strength diagrams")
    Term.(const run $ problem_arg)

let re_cmd =
  let steps =
    Arg.(value & opt int 1 & info [ "steps"; "k" ] ~doc:"Number of RE steps.")
  in
  let run spec steps kernel trace metrics openmetrics progress =
    Re_step.set_kernel kernel;
    with_telemetry ~cmd:"re" ~kernel
      ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let p = ref (parse_problem spec) in
    print_string (Problem.to_string !p);
    for i = 1 to steps do
      p := Re_step.re !p;
      Format.printf "@.--- after RE step %d ---@." i;
      print_string (Problem.to_string !p)
    done;
    Format.printf "@.fixed point (up to renaming): %b@."
      (Re_step.is_fixed_point !p)
  in
  Cmd.v
    (Cmd.info "re" ~doc:"Apply round elimination steps")
    Term.(
      const run $ problem_arg $ steps $ kernel_opt $ trace_opt $ metrics_flag
      $ openmetrics_opt $ progress_flag)

let lift_cmd =
  let delta =
    Arg.(required & opt (some int) None & info [ "delta" ] ~doc:"Support white degree Δ.")
  in
  let r =
    Arg.(required & opt (some int) None & info [ "r" ] ~doc:"Support black degree r.")
  in
  let run spec delta r trace metrics =
    with_telemetry ~cmd:"lift" trace metrics None @@ fun () ->
    let p = parse_problem spec in
    let l = Core.Lift.lift ~delta ~r p in
    print_string (Problem.to_string l.Core.Lift.problem);
    Format.printf "@.label meanings:@.";
    Array.iteri
      (fun i s ->
        Format.printf "  %s = {%s}@."
          (Alphabet.name l.Core.Lift.problem.Problem.alphabet i)
          (String.concat ","
             (List.map
                (Alphabet.name p.Problem.alphabet)
                (Slocal_util.Bitset.to_list s))))
      l.Core.Lift.meaning
  in
  Cmd.v
    (Cmd.info "lift" ~doc:"Print lift_{Δ,r}(Π) (Definition 3.1)")
    Term.(const run $ problem_arg $ delta $ r $ trace_opt $ metrics_flag)

let solve_cmd =
  let lift_flag =
    Arg.(value & flag & info [ "lift" ] ~doc:"Solve the lift of the problem (0-round solvability).")
  in
  let budget =
    Arg.(value & opt int 20_000_000 & info [ "budget" ] ~doc:"Search node budget.")
  in
  let run spec gspec lift_flag budget trace metrics openmetrics progress =
    with_telemetry ~cmd:"solve"
      ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let p = parse_problem spec in
    let g = parse_graph gspec in
    let problem =
      if lift_flag then
        (Core.Zero_round.lift_of_support g p).Core.Lift.problem
      else p
    in
    (match Girth.girth (Bipartite.graph g) with
    | None -> Format.printf "support: n=%d acyclic@." (Bipartite.n g)
    | Some girth -> Format.printf "support: n=%d girth=%d@." (Bipartite.n g) girth);
    let outcome, st = Solver.solve_stats ~max_nodes:budget g problem in
    (match outcome with
    | Solver.Solution s ->
        Format.printf "SOLVABLE (checker: %b)@."
          (Checker.is_solution g problem s)
    | Solver.No_solution -> Format.printf "NO SOLUTION@."
    | Solver.Budget_exceeded -> Format.printf "UNDECIDED (budget)@.");
    Format.printf
      "search effort: %d nodes, %d backtracks, %d forward-checking prunes@."
      st.Solver.nodes st.Solver.backtracks st.Solver.fc_prunes;
    if st.Solver.budget_exhausted then
      Format.printf
        "budget of %d nodes was the limiting factor; raise --budget to \
         decide@."
        st.Solver.max_nodes
    else
      Format.printf "budget: %d of %d nodes used (not limiting)@."
        st.Solver.nodes st.Solver.max_nodes
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide bipartite solvability on a concrete graph")
    Term.(
      const run $ problem_arg $ graph_arg 1 $ lift_flag $ budget $ trace_opt
      $ metrics_flag $ openmetrics_opt $ progress_flag)

let bounds_cmd =
  let n = Arg.(value & opt float 1e9 & info [ "n" ] ~doc:"Number of nodes.") in
  let run spec n =
    (match String.split_on_char ':' spec with
    | [ "matching"; d'; x; y ] ->
        let delta' = int_of_string d' in
        let b =
          Core.Bounds.matching ~delta:(5 * delta') ~delta' ~x:(int_of_string x)
            ~y:(int_of_string y) ~eps:0.1 ~n
        in
        Format.printf "x-maximal y-matching, Δ'=%d: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          delta' b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "arb"; d; d'; a; c ] ->
        let b =
          Core.Bounds.arbdefective ~delta:(int_of_string d)
            ~delta':(int_of_string d') ~alpha:(int_of_string a)
            ~c:(int_of_string c) ~eps:0.25 ~n
        in
        Format.printf "arbdefective: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "ruling"; d; d'; a; c; beta ] ->
        let b =
          Core.Bounds.ruling_set ~delta:(int_of_string d)
            ~delta':(int_of_string d') ~alpha:(int_of_string a)
            ~c:(int_of_string c) ~beta:(int_of_string beta) ~eps:0.25 ~cbig:2.
            ~n
        in
        Format.printf "ruling set: det >= %.2f, rand >= %.2f, upper ~ %.2f@."
          b.Core.Bounds.deterministic b.Core.Bounds.randomized
          (Option.value b.Core.Bounds.upper ~default:nan)
    | [ "mis" ] ->
        let c = Core.Bounds.mis_vs_chromatic ~n in
        Format.printf
          "MIS corollary at n=%.0f: Δ'=%.1f Δ=%.1f lower=%.2f χ-upper=%.2f@."
          n c.Core.Bounds.delta' c.Core.Bounds.delta c.Core.Bounds.lower_bound
          c.Core.Bounds.chromatic_upper
    | _ -> invalid_arg "bounds spec: matching:D':X:Y | arb:D:D':A:C | ruling:D:D':A:C:B | mis");
    ()
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"Bound spec.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Evaluate the paper's bound formulas")
    Term.(const run $ spec_arg $ n)

let sequence_cmd =
  let steps =
    Arg.(value & opt int 2 & info [ "steps"; "k" ] ~doc:"Number of RE iterations.")
  in
  let run spec steps kernel trace metrics openmetrics progress =
    Re_step.set_kernel kernel;
    with_telemetry ~cmd:"sequence" ~kernel
      ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let p = parse_problem spec in
    let seq = Sequence.iterate_re p ~steps in
    List.iteri
      (fun i q ->
        Format.printf "Π_%d: %d labels, %d white / %d black configurations@." i
          (Alphabet.size q.Problem.alphabet)
          (Constr.size q.Problem.white)
          (Constr.size q.Problem.black))
      seq;
    List.iter
      (fun (st : Sequence.step) ->
        Format.printf "step %d relaxation-of-RE check: %s@." st.Sequence.index
          (match st.Sequence.verified with
          | Some true -> "verified"
          | Some false -> "refuted"
          | None -> "budget"))
      (Sequence.check ~max_nodes:5_000_000 seq);
    Format.printf "lower-bound sequence: %s@."
      (match Sequence.is_lower_bound_sequence ~max_nodes:5_000_000 seq with
      | Some true -> "yes"
      | Some false -> "no"
      | None -> "undecided")
  in
  Cmd.v
    (Cmd.info "sequence"
       ~doc:"Iterate RE and machine-check the lower-bound sequence")
    Term.(
      const run $ problem_arg $ steps $ kernel_opt $ trace_opt $ metrics_flag
      $ openmetrics_opt $ progress_flag)

let stats_cmd =
  let graph_opt =
    let doc =
      "Optional graph spec (same syntax as solve); when given, the lift of \
       the problem onto it is built and solved so the solver and lift \
       counters fire too."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"GRAPH" ~doc)
  in
  let re_steps =
    Arg.(
      value & opt int 1
      & info [ "re-steps" ] ~doc:"Number of RE steps in the workload.")
  in
  let budget =
    Arg.(
      value & opt int 20_000_000 & info [ "budget" ] ~doc:"Search node budget.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a machine-readable snapshot (schema slocal.stats/1) to \
             stdout instead of the human summary.")
  in
  let run spec gspec re_steps budget kernel trace metrics openmetrics json =
    if json && openmetrics = Some "-" then begin
      prerr_endline
        "stats: --json and --openmetrics - both claim stdout; give \
         --openmetrics a FILE";
      exit 2
    end;
    Re_step.set_kernel kernel;
    (* Progress is stderr-only, but keep --json runs fully quiet. *)
    with_telemetry ~cmd:"stats" ~kernel
      ~progress_mode:(if json then Progress.Off else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let p = parse_problem spec in
    let q = ref p in
    for _ = 1 to re_steps do
      q := Re_step.re !q
    done;
    if not json then
      Format.printf
        "after %d RE step(s): %d labels, %d white / %d black configurations@."
        re_steps
        (Alphabet.size !q.Problem.alphabet)
        (Constr.size !q.Problem.white)
        (Constr.size !q.Problem.black);
    let lift_result =
      match gspec with
      | None -> None
      | Some gs ->
          let g = parse_graph gs in
          let l = Core.Zero_round.lift_of_support g p in
          let outcome, st =
            Solver.solve_stats ~max_nodes:budget g l.Core.Lift.problem
          in
          let verdict =
            match outcome with
            | Solver.Solution _ -> "yes"
            | Solver.No_solution -> "no"
            | Solver.Budget_exceeded -> "undecided"
          in
          if not json then
            Format.printf "lift solvable on support: %s (%d nodes explored)@."
              (if verdict = "undecided" then "undecided (budget)" else verdict)
              st.Solver.nodes;
          Some (verdict, st.Solver.nodes)
    in
    let cache_pair hits misses =
      ( Telemetry.value (Telemetry.counter hits),
        Telemetry.value (Telemetry.counter misses) )
    in
    let re_cache = cache_pair "re.cache_hits" "re.cache_misses" in
    let constr_cache = cache_pair "constr.memo_hits" "constr.memo_misses" in
    Telemetry.sample_gc ();
    if json then begin
      let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs) in
      let cache (h, m) = ints [ ("hits", h); ("misses", m) ] in
      let counters, gauges =
        List.fold_left
          (fun (cs, gs) (nm, kd, v) ->
            if v = 0 then (cs, gs)
            else
              match kd with
              | Telemetry.Counter -> ((nm, v) :: cs, gs)
              | Telemetry.Gauge -> (cs, (nm, v) :: gs))
          ([], []) (Telemetry.kinds_snapshot ())
      in
      let histograms =
        List.map
          (fun (nm, h) ->
            ( nm,
              ints
                [
                  ("count", Telemetry.Histogram.count h);
                  ("sum", Telemetry.Histogram.sum h);
                  ("min", Telemetry.Histogram.min_value h);
                  ("max", Telemetry.Histogram.max_value h);
                  ("p50", Telemetry.Histogram.quantile h 0.5);
                  ("p90", Telemetry.Histogram.quantile h 0.9);
                  ("p99", Telemetry.Histogram.quantile h 0.99);
                ] ))
          (Telemetry.histogram_snapshot ())
      in
      let doc =
        Json.Obj
          ([
             ("schema", Json.String "slocal.stats/1");
             ("kernel", Json.String (kernel_name kernel));
             ( "workload",
               Json.Obj
                 ([
                    ("problem", Json.String p.Problem.name);
                    ("re_steps", Json.Int re_steps);
                    ("labels", Json.Int (Alphabet.size !q.Problem.alphabet));
                    ( "white_configs",
                      Json.Int (Constr.size !q.Problem.white) );
                    ( "black_configs",
                      Json.Int (Constr.size !q.Problem.black) );
                  ]
                 @
                 match lift_result with
                 | None -> []
                 | Some (verdict, nodes) ->
                     [
                       ("lift_solvable", Json.String verdict);
                       ("solver_nodes", Json.Int nodes);
                     ]) );
             ( "cache",
               Json.Obj
                 [ ("re", cache re_cache); ("constr", cache constr_cache) ] );
             ("counters", ints (List.rev counters));
             ("gauges", ints (List.rev gauges));
             ("histograms", Json.Obj histograms);
           ])
      in
      print_string (Json.to_string doc);
      print_newline ()
    end
    else begin
      (* Cache effectiveness of the fast kernel's two memo layers, with
         hit rates (the raw counters also appear in the summary below),
         then the GC gauges sampled at this moment. *)
      let rate_line what (h, m) =
        let rate =
          if h + m = 0 then "-"
          else
            Printf.sprintf "%.1f%%"
              (100. *. float_of_int h /. float_of_int (h + m))
        in
        Format.printf "  %-12s %9d hits %9d misses  (hit rate %s)@." what h m
          rate
      in
      Format.printf "cache effectiveness:@.";
      rate_line "RE result" re_cache;
      rate_line "constr memo" constr_cache;
      Format.printf "gc:@.";
      List.iter
        (fun g ->
          Format.printf "  %-24s %12d@." g
            (Telemetry.value (Telemetry.gauge g)))
        [
          "gc.allocated_bytes";
          "gc.minor_collections";
          "gc.major_collections";
          "gc.heap_words";
          "gc.top_heap_words";
          "gc.minor_words";
          "gc.promoted_words";
          "gc.major_words";
        ];
      Format.printf "%a@?" Telemetry.pp_summary ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a representative workload (RE steps, and optionally \
          lift-and-solve on a graph) and print the telemetry counter summary \
          (--json for slocal.stats/1, --openmetrics for the Prometheus text \
          exposition)")
    Term.(
      const run $ problem_arg $ graph_opt $ re_steps $ budget $ kernel_opt
      $ trace_opt $ metrics_flag $ openmetrics_opt $ json_flag)

(* ------------------------------------------------------------------ *)
(* Trace analysis: the read side of --trace. *)

let trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A JSONL trace recorded with --trace (schema slocal.trace/5).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the profile as a slocal.profile/3 JSON document to $(docv) \
             ($(b,-) for stdout).")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks (flamegraph.pl / speedscope collapsed \
             format, weights in self-time nanoseconds) to $(docv) ($(b,-) \
             for stdout).")
  in
  let folded_alloc_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded-alloc" ] ~docv:"FILE"
          ~doc:
            "Write bytes-weighted folded stacks (collapsed format, weights \
             in self-allocation bytes — an allocation flamegraph) to \
             $(docv) ($(b,-) for stdout).")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Rows in the hotspot table.")
  in
  let alloc_flag =
    Arg.(
      value & flag
      & info [ "alloc" ]
          ~doc:
            "Print the allocation profile instead of the time profile: \
             self/cumulative allocation hotspots with per-name GC-work \
             counts, and the allocation-weighted critical path.")
  in
  let write_output what file text =
    match file with
    | "-" -> print_string text
    | file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.eprintf "wrote %s %s@." what file
  in
  let run trace_file json_out folded_out folded_alloc_out top alloc =
    let profile = Profile.of_file trace_file in
    (* An empty or fully-damaged trace means there is nothing to
       profile: a loud SL040 diagnostic and exit 1 instead of a
       silently empty report. *)
    if profile.Profile.event_count = 0 then begin
      Format.eprintf "%a@?"
        (Diagnostic.pp_report ~machine:false)
        [
          Diagnostic.error ~code:"SL040" ~subject:trace_file
            (Printf.sprintf
               "trace contains no parseable events (%d damaged line(s) \
                skipped)"
               profile.Profile.skipped_lines);
        ];
      exit 1
    end;
    (match profile.Profile.schema with
    | Some s when s <> Telemetry.trace_schema_version ->
        Format.eprintf "trace report: warning: unknown trace schema %S@." s
    | Some _ -> ()
    | None ->
        Format.eprintf
          "trace report: warning: no trace_start line (truncated or foreign \
           file?)@.");
    if profile.Profile.skipped_lines > 0 then
      Format.eprintf "trace report: warning: skipped %d unparsable line(s)@."
        profile.Profile.skipped_lines;
    (match json_out with
    | Some file ->
        write_output "profile" file
          (Json.to_string
             (Profile.to_json ~source:(Filename.basename trace_file) profile)
          ^ "\n")
    | None -> ());
    (match folded_out with
    | Some file ->
        write_output "folded stacks" file
          (Profile.folded_to_string (Profile.folded profile))
    | None -> ());
    (match folded_alloc_out with
    | Some file ->
        write_output "folded alloc stacks" file
          (Profile.folded_to_string (Profile.folded_alloc profile))
    | None -> ());
    if alloc then Format.printf "%a@?" (Profile.pp_alloc ~top) profile
    else if json_out = None && folded_out = None && folded_alloc_out = None
    then Format.printf "%a@?" (Profile.pp ~top) profile
  in
  let report =
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Profile a recorded trace: span-tree self times, hotspots, \
            critical path, counter attribution, provenance table; \
            --alloc for the self/cumulative allocation report")
      Term.(
        const run $ file_arg $ json_out $ folded_out
        $ folded_alloc_out $ top $ alloc_flag)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze recorded telemetry traces")
    [ report ]

let export_cmd =
  let run spec =
    let p = parse_problem spec in
    print_string (Problem.to_string p)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print a problem in the textual document format (re-readable by file:PATH)")
    Term.(const run $ problem_arg)

(* ------------------------------------------------------------------ *)
(* The two-label zero-round sweep: 49 independent per-problem decisions
   on one support, by the lift route, the search route, or both. *)

let sweep_cmd =
  let budget =
    Arg.(
      value & opt int 20_000_000
      & info [ "budget" ] ~doc:"Per-problem solver node budget (lift route).")
  in
  let route_opt =
    let route_conv =
      Arg.enum [ ("lift", `Lift); ("search", `Search); ("both", `Both) ]
    in
    Arg.(
      value & opt route_conv `Both
      & info [ "route" ] ~docv:"ROUTE"
          ~doc:
            "Decision route: $(b,lift) (solve lift_{Δ,r}(Π), Theorem 3.2), \
             $(b,search) (exhaustive 0-round table search), or $(b,both) \
             (the default; also reports agreement).")
  in
  let constr_label alphabet c =
    String.concat "|"
      (List.map
         (fun m ->
           String.concat ""
             (List.map (Alphabet.name alphabet) (Slocal_util.Multiset.to_list m)))
         (Constr.configs c))
  in
  let verdict = function
    | Some true -> "yes"
    | Some false -> "no"
    | None -> "undecided"
  in
  let run gspec route budget trace metrics openmetrics progress =
    with_telemetry ~cmd:"sweep"
      ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let g = parse_graph gspec in
    let problems = Core.Zero_round.two_label_problems () in
    let lift_res =
      match route with
      | `Lift | `Both ->
          Some
            (List.map
               (Core.Zero_round.solvable ~max_nodes:budget g)
               problems)
      | `Search -> None
    in
    let search_res =
      match route with
      | `Search | `Both ->
          Some
            (List.map
               (fun p ->
                 Slocal_model.Zero_round_search.exists_algorithm g p
                   ~d_in_white:(Problem.d_white p)
                   ~d_in_black:(Problem.d_black p))
               problems)
      | `Lift -> None
    in
    Format.printf "two-label 0-round sweep: %d problems on %s@."
      (List.length problems) gspec;
    Format.printf "  %-12s %-12s %10s %10s %6s@." "white" "black" "lift"
      "search" "agree";
    let solvable = ref 0 and agreements = ref 0 and compared = ref 0 in
    List.iteri
      (fun i p ->
        let w = constr_label p.Problem.alphabet p.Problem.white in
        let b = constr_label p.Problem.alphabet p.Problem.black in
        let l = Option.map (fun r -> List.nth r i) lift_res in
        let s = Option.map (fun r -> List.nth r i) search_res in
        if l = Some (Some true) || (l = None && s = Some (Some true)) then
          incr solvable;
        let agree =
          match (l, s) with
          | Some l, Some s ->
              incr compared;
              if l = s then begin
                incr agreements;
                "yes"
              end
              else "NO"
          | _ -> "-"
        in
        Format.printf "  %-12s %-12s %10s %10s %6s@." w b
          (match l with Some v -> verdict v | None -> "-")
          (match s with Some v -> verdict v | None -> "-")
          agree)
      problems;
    Format.printf "%d/%d problems 0-round solvable@." !solvable
      (List.length problems);
    if !compared > 0 then begin
      Format.printf "routes agree on %d/%d problems@." !agreements !compared;
      if !agreements < !compared then begin
        Format.eprintf
          "sweep: the lift and search routes disagree — kernel bug@.";
        exit 2
      end
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Decide 0-round solvability for the whole two-label problem space \
          on one support")
    Term.(
      const run $ graph_arg 0 $ route_opt $ budget $ trace_opt
      $ metrics_flag $ openmetrics_opt $ progress_flag)

(* ------------------------------------------------------------------ *)
(* Static analysis: lint and audit.  Exit-code contract (documented in
   the README): 0 clean, 1 worst diagnostic is a warning, 2 errors. *)

let machine_flag =
  Arg.(value & flag
       & info [ "machine" ]
           ~doc:"Machine-readable output: one tab-separated line per diagnostic.")

let delta_opt =
  Arg.(value & opt (some int) None
       & info [ "delta" ] ~doc:"Target support white degree Δ for lift checks.")

let r_opt =
  Arg.(value & opt (some int) None
       & info [ "r" ] ~doc:"Target support black degree r for lift checks.")

let report_and_exit ~machine diags =
  Format.printf "%a@?" (Diagnostic.pp_report ~machine) diags;
  let code = Diagnostic.exit_code diags in
  Ledger.note_exit code;
  exit code

let lint_cmd =
  let specs =
    let doc =
      "Problem specs (same syntax as other subcommands) or paths to problem \
       documents.  A bare path to an existing file is linted as a document."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PROBLEM" ~doc)
  in
  let codes_flag =
    Arg.(value & flag
         & info [ "codes" ] ~doc:"Print the diagnostic code table and exit.")
  in
  let re_steps =
    Arg.(value & opt int 1
         & info [ "re-steps" ]
             ~doc:"Also check the grounding invariants of this many RE steps \
                   (0 disables).")
  in
  let telemetry_flag =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Check that every telemetry metric name registered in the \
                   library sources appears in the DESIGN.md §6 name table \
                   (SL041).")
  in
  let design_opt =
    Arg.(value & opt string "DESIGN.md"
         & info [ "design" ] ~docv:"FILE"
             ~doc:"Design document holding the metric name table (with \
                   --telemetry).")
  in
  let src_opt =
    Arg.(value & opt_all string [ "lib"; "bin"; "bench" ]
         & info [ "src" ] ~docv:"DIR"
             ~doc:"Source directory to scan (repeatable, with --telemetry and \
                   --domains).")
  in
  let domains_flag =
    Arg.(value & flag
         & info [ "domains" ]
             ~doc:"Run the domain-safety static analysis over the OCaml \
                   sources: inventory module-scope mutable state and \
                   nondeterminism sources (SL050-SL055) and require every \
                   finding to carry a staticcheck classification (pragma or \
                   STATICCHECK.md row); stale annotations are SL056.")
  in
  let slp_flag =
    Arg.(value & flag
         & info [ "slp" ]
             ~doc:"Treat the positional arguments as problem-document paths \
                   and run only the fast source lint on them: unused labels \
                   and within-line duplicate configurations (SL057), plus \
                   SL000 on parse failure.")
  in
  let report_opt =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"With --domains: also write the machine-readable \
                   slocal.staticcheck/1 JSON inventory to $(docv).")
  in
  let inventory_flag =
    Arg.(value & flag
         & info [ "inventory" ]
             ~doc:"With --domains: print the human inventory table (every \
                   finding with its classification) before the diagnostics.")
  in
  let run specs delta r machine codes re_steps telemetry design src_dirs
      domains slp report inventory =
    if codes then Format.printf "%a@?" Chk.pp_code_table ()
    else
      with_telemetry ~cmd:"lint" None false None
      @@ fun () ->
      let domains = domains || report <> None || inventory in
      (* Plain [slocal lint] with no arguments: the repository
         self-checks (domain-safety inventory + telemetry name table). *)
      let domains, telemetry =
        if specs = [] && not (domains || telemetry || slp) then (true, true)
        else (domains, telemetry)
      in
      let domain_diags =
        if not domains then []
        else begin
          let findings, diags = Staticcheck.analyze_files ~src_dirs () in
          if inventory then
            Format.printf "%a" Staticcheck.pp_inventory findings;
          (match report with
          | None -> ()
          | Some file -> (
              let json = Staticcheck.report_json ~roots:src_dirs findings in
              try
                let oc = open_out file in
                output_string oc (Json.to_string json);
                output_char oc '\n';
                close_out oc;
                Ledger.note_artifact ~kind:"staticcheck" file
              with Sys_error msg ->
                Format.eprintf "staticcheck: cannot write %s: %s@." file msg));
          diags
        end
      in
      let telemetry_diags =
        if telemetry then Source.lint_telemetry_files ~design ~src_dirs
        else []
      in
      let diags =
        if slp then List.concat_map Source.lint_slp_file specs
        else
          List.concat_map
            (fun spec ->
              if Sys.file_exists spec && not (Sys.is_directory spec) then
                Chk.lint_file ?delta ?r spec
              else
                match String.index_opt spec ':' with
                | Some 4 when String.sub spec 0 4 = "file" ->
                    Chk.lint_file ?delta ?r
                      (String.sub spec 5 (String.length spec - 5))
                | _ -> (
                    match Spec.problem spec with
                    | Ok p ->
                        Chk.lint_problem ?delta ?r p
                        @ Chk.lint_re_chain p ~steps:re_steps
                    | Error d -> [ d ]))
            specs
      in
      report_and_exit ~machine (domain_diags @ telemetry_diags @ diags)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify formalism invariants (diagrams, lifts, \
             condensed syntax, telemetry name inventory, domain-safety of \
             the sources)")
    Term.(const run $ specs $ delta_opt $ r_opt $ machine_flag $ codes_flag
          $ re_steps $ telemetry_flag $ design_opt $ src_opt $ domains_flag
          $ slp_flag $ report_opt $ inventory_flag)

let audit_cmd =
  let k =
    Arg.(value & opt int 1
         & info [ "k" ] ~doc:"Lower-bound sequence length ending in PROBLEM.")
  in
  let budget =
    Arg.(value & opt int 20_000_000
         & info [ "budget" ] ~doc:"Solver search-node budget for the analysis.")
  in
  let recheck_budget =
    Arg.(value & opt int 2_000_000
         & info [ "recheck-budget" ]
             ~doc:"Search-node budget for the independent unsolvability \
                   re-search (0 disables).")
  in
  let run spec gspec k budget recheck_budget machine trace metrics openmetrics
      progress =
    with_telemetry ~cmd:"audit"
      ~progress_mode:(if progress then Progress.Forced else Progress.Auto)
      trace metrics openmetrics
    @@ fun () ->
    let last_problem = parse_problem spec in
    let support = parse_graph gspec in
    let res = Core.Framework.analyze ~max_nodes:budget support ~last_problem ~k in
    Format.printf "%a@." Core.Framework.pp_result res;
    let diags = Chk.audit ~support ~last_problem ~k ~recheck_budget res in
    report_and_exit ~machine diags
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the Theorem 3.4 pipeline and re-validate the resulting \
             certificate")
    Term.(const run $ problem_arg $ graph_arg 1 $ k $ budget $ recheck_budget
          $ machine_flag $ trace_opt $ metrics_flag
          $ openmetrics_opt $ progress_flag)

let gen_cmd =
  let n = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Target node count.") in
  let d = Arg.(value & opt int 3 & info [ "d" ] ~doc:"Degree.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run n d seed trace metrics =
    with_telemetry ~cmd:"gen" trace metrics None @@ fun () ->
    Ledger.note_seed seed;
    Telemetry.message (Printf.sprintf "gen seed=%d n=%d d=%d" seed n d);
    let rng = Slocal_util.Prng.create seed in
    let c = Gen.high_girth_low_independence rng ~n ~d () in
    let g = c.Gen.graph in
    Format.printf
      "generated %d-regular graph: n=%d girth=%s (target %d: %s) independence<=%d (%s)@."
      d (Graph.n g)
      (match c.Gen.girth with None -> "∞" | Some x -> string_of_int x)
      c.Gen.girth_target
      (Gen.girth_outcome_to_string c.Gen.girth_outcome)
      c.Gen.independence_upper
      (if c.Gen.independence_exact then "exact" else "matching bound");
    Format.printf "Lemma 2.1 target: girth >= ε·log_Δ n = %.2f·ε, independence <= α·%.2f@."
      (log (float_of_int (Graph.n g)) /. log (float_of_int d))
      (Slocal_graph.Independence.upper_bound_alon ~n:(Graph.n g) ~delta:d
         ~alpha:1.0)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a Lemma 2.1-style support graph")
    Term.(const run $ n $ d $ seed $ trace_opt $ metrics_flag)

(* ------------------------------------------------------------------ *)
(* Run-ledger maintenance: the read side of the slocal.run/1 records
   that every kernel-facing invocation appends. *)

let runs_cmd =
  let ledger_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Ledger file to operate on (default: $(b,SLOCAL_LEDGER) or \
             .slocal/runs.jsonl).")
  in
  let resolve ledger =
    match ledger with
    | Some p -> p
    | None -> (
        match Ledger.default_path () with
        | Some p -> p
        | None ->
            prerr_endline
              "runs: the ledger is disabled (SLOCAL_LEDGER=off); pass --ledger \
               FILE";
            exit 2)
  in
  let load ledger =
    let path = resolve ledger in
    if not (Sys.file_exists path) then
      (path, { Ledger.records = []; skipped = 0; foreign = 0 })
    else
      match Ledger.read_file path with
      | r -> (path, r)
      | exception Sys_error msg ->
          Printf.eprintf "runs: cannot read %s: %s\n" path msg;
          exit 2
  in
  let warn_skipped path (r : Ledger.read_result) =
    if r.Ledger.skipped > 0 then
      Format.eprintf "runs: %s: skipped %d damaged line(s)@." path
        r.Ledger.skipped;
    if r.Ledger.foreign > 0 then
      Format.eprintf
        "runs: %s: ignored %d record(s) of other schemas@."
        path r.Ledger.foreign
  in
  let iso t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let argv_line (r : Ledger.record) = String.concat " " r.Ledger.argv in
  let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…" in
  let find_or_exit read key =
    match Ledger.find read key with
    | Ok r -> r
    | Error msg ->
        Printf.eprintf "runs: %s\n" msg;
        exit 2
  in
  let list_cmd =
    let run ledger =
      let path, read = load ledger in
      warn_skipped path read;
      match read.Ledger.records with
      | [] -> Format.printf "no runs recorded in %s@." path
      | records ->
          Format.printf "%-4s %-13s %-20s %9s %8s %-5s %s@." "#" "id" "started"
            "wall" "outcome" "exit" "argv";
          List.iteri
            (fun i (r : Ledger.record) ->
              Format.printf "%-4d %-13s %-20s %8.2fs %8s %-5d %s@." (i + 1)
                r.Ledger.id (iso r.Ledger.started_at) (Ledger.wall_seconds r)
                r.Ledger.outcome r.Ledger.exit_code
                (truncate 48 (argv_line r)))
            records
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the recorded runs, oldest first")
      Term.(const run $ ledger_opt)
  in
  let show_cmd =
    let id_arg =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"RUN" ~doc:"Run designator: 1-based index or id prefix.")
    in
    let run ledger key =
      let path, read = load ledger in
      warn_skipped path read;
      let r = find_or_exit read key in
      Format.printf "run %s@." r.Ledger.id;
      Format.printf "  argv:     %s@." (argv_line r);
      Format.printf "  started:  %s@." (iso r.Ledger.started_at);
      Format.printf "  finished: %s (wall %.2fs)@." (iso r.Ledger.finished_at)
        (Ledger.wall_seconds r);
      Format.printf "  outcome:  %s (exit %d)@." r.Ledger.outcome
        r.Ledger.exit_code;
      Option.iter (Format.printf "  kernel:   %s@.") r.Ledger.kernel;
      Option.iter (Format.printf "  seed:     %d@.") r.Ledger.seed;
      if r.Ledger.alloc_b > 0 || r.Ledger.majors > 0 then
        Format.printf "  gc:       %dB allocated, %d major cycle(s), peak heap %d words@."
          r.Ledger.alloc_b r.Ledger.majors r.Ledger.top_heap_words;
      if r.Ledger.problems <> [] then begin
        Format.printf "  problems:@.";
        List.iter
          (fun (nm, h) -> Format.printf "    %-24s hash %d@." nm h)
          r.Ledger.problems
      end;
      if r.Ledger.artifacts <> [] then begin
        Format.printf "  artifacts:@.";
        List.iter
          (fun (k, p) -> Format.printf "    %-12s %s@." k p)
          r.Ledger.artifacts
      end;
      if r.Ledger.counters <> [] then begin
        Format.printf "  counters:@.";
        List.iter
          (fun (nm, v) -> Format.printf "    %-36s %12d@." nm v)
          r.Ledger.counters
      end;
      if r.Ledger.gauges <> [] then begin
        Format.printf "  gauges:@.";
        List.iter
          (fun (nm, v) -> Format.printf "    %-36s %12d@." nm v)
          r.Ledger.gauges
      end;
      if r.Ledger.histograms <> [] then begin
        Format.printf "  histograms:@.";
        Format.printf "    %-36s %8s %10s %10s %10s %10s@." "" "count" "p50"
          "p90" "p99" "max";
        List.iter
          (fun (nm, hs) ->
            Format.printf "    %-36s %8d %10d %10d %10d %10d@." nm
              hs.Ledger.hs_count hs.Ledger.hs_p50 hs.Ledger.hs_p90
              hs.Ledger.hs_p99 hs.Ledger.hs_max)
          r.Ledger.histograms
      end
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Render one recorded run in full")
      Term.(const run $ ledger_opt $ id_arg)
  in
  let diff_cmd =
    let id_a =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"A" ~doc:"Baseline run (index or id prefix).")
    in
    let id_b =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"B" ~doc:"Comparison run (index or id prefix).")
    in
    let run ledger key_a key_b =
      let path, read = load ledger in
      warn_skipped path read;
      let a = find_or_exit read key_a and b = find_or_exit read key_b in
      Format.printf "A: %s  %s@." a.Ledger.id (truncate 60 (argv_line a));
      Format.printf "B: %s  %s@." b.Ledger.id (truncate 60 (argv_line b));
      Format.printf "wall: %.2fs -> %.2fs@." (Ledger.wall_seconds a)
        (Ledger.wall_seconds b);
      (* Allocation delta between the runs (0 on pre-alloc records:
         skip rather than print a misleading -100%). *)
      if a.Ledger.alloc_b > 0 || b.Ledger.alloc_b > 0 then begin
        let pct =
          if a.Ledger.alloc_b = 0 then ""
          else
            Printf.sprintf " (%+.1f%%)"
              (100.
              *. float_of_int (b.Ledger.alloc_b - a.Ledger.alloc_b)
              /. float_of_int a.Ledger.alloc_b)
        in
        Format.printf "alloc: %dB -> %dB%s@." a.Ledger.alloc_b b.Ledger.alloc_b
          pct;
        Format.printf "majors: %d -> %d; peak heap %d -> %d words@."
          a.Ledger.majors b.Ledger.majors a.Ledger.top_heap_words
          b.Ledger.top_heap_words
      end;
      (match (a.Ledger.kernel, b.Ledger.kernel) with
      | Some ka, Some kb when ka <> kb ->
          Format.printf "kernel: %s -> %s@." ka kb
      | _ -> ());
      if
        a.Ledger.problems <> [] && b.Ledger.problems <> []
        && a.Ledger.problems <> b.Ledger.problems
      then
        Format.printf
          "note: the runs hashed different problems (see runs show)@.";
      match Ledger.diff a b with
      | [] -> Format.printf "counters: identical@."
      | deltas ->
          Format.printf "%-36s %12s %12s %12s@." "counter" "A" "B" "delta";
          List.iter
            (fun (nm, va, vb) ->
              Format.printf "%-36s %12d %12d %+12d@." nm va vb (vb - va))
            deltas
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two recorded runs (wall time, allocation and counter \
            deltas)")
      Term.(const run $ ledger_opt $ id_a $ id_b)
  in
  let gc_cmd =
    let keep =
      Arg.(
        value & opt int 200
        & info [ "keep" ] ~docv:"N" ~doc:"Newest records to keep.")
    in
    let run ledger keep =
      let path = resolve ledger in
      if not (Sys.file_exists path) then
        Format.printf "no ledger at %s; nothing to do@." path
      else
        match Ledger.gc ~path ~keep with
        | Ok (kept, dropped) ->
            Format.printf "kept %d record(s), dropped %d (records beyond \
                           --keep %d and damaged lines)@."
              kept dropped keep
        | Error msg ->
            Printf.eprintf "runs gc: %s\n" msg;
            exit 2
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Compact the ledger: keep the newest N records, drop damaged \
               lines (atomic rewrite)")
      Term.(const run $ ledger_opt $ keep)
  in
  Cmd.group
    (Cmd.info "runs"
       ~doc:"Inspect the slocal.run/1 ledger appended by kernel-facing \
             subcommands")
    [ list_cmd; show_cmd; diff_cmd; gc_cmd ]

let () =
  let info =
    Cmd.info "slocal" ~version:"1.0.0"
      ~doc:"Round elimination and lower bounds in the Supported LOCAL model"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            diagram_cmd;
            re_cmd;
            lift_cmd;
            solve_cmd;
            bounds_cmd;
            gen_cmd;
            sequence_cmd;
            stats_cmd;
            sweep_cmd;
            runs_cmd;
            trace_cmd;
            export_cmd;
            lint_cmd;
            audit_cmd;
          ]))
