(* Tests for the trace-analysis pipeline: event capture → span tree →
   self/cumulative times, folded stacks, tolerant JSONL reading, the
   sequence provenance events, and the slocal.profile/2 document.
   Includes the histogram-merge associativity property (Proptest). *)

module Json = Slocal_obs.Json
module Telemetry = Slocal_obs.Telemetry
module Trace = Slocal_obs.Trace
module Profile = Slocal_analysis.Profile
module H = Telemetry.Histogram
module Classic = Slocal_problems.Classic
open Slocal_formalism

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let with_clean_telemetry f =
  Telemetry.reset_metrics ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink Telemetry.null_sink;
      Telemetry.reset_metrics ())
    f

(* Record a scripted span workload through a collector sink and return
   the events in emission order. *)
let collect_workload () =
  with_clean_telemetry @@ fun () ->
  let events = ref [] in
  Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
  let c = Telemetry.counter "test.profile.work" in
  Telemetry.span "root" (fun () ->
      Telemetry.span "child_a" (fun () ->
          Telemetry.add c 5;
          Telemetry.emit_counters ();
          Telemetry.span "leaf" (fun () -> Sys.opaque_identity (List.init 64 Fun.id)))
      |> ignore;
      Telemetry.span "child_b" (fun () -> ()));
  Telemetry.add c 2;
  Telemetry.emit_counters ();
  Telemetry.set_sink Telemetry.null_sink;
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Span tree reconstruction *)

let test_tree_reconstruction () =
  let t = Profile.of_events (collect_workload ()) in
  check int_t "one root" 1 (List.length t.Profile.roots);
  check int_t "four spans" 4 t.Profile.span_count;
  check int_t "all closed" 0 t.Profile.unclosed;
  let root = List.hd t.Profile.roots in
  check string_t "root name" "root" root.Profile.name;
  check int_t "root has two children" 2 (List.length root.Profile.children);
  let names =
    List.map (fun s -> s.Profile.name) root.Profile.children
    |> List.sort compare
  in
  check (Alcotest.list string_t) "child names" [ "child_a"; "child_b" ] names;
  (* Durations nest: each child fits inside its parent. *)
  List.iter
    (fun c ->
      check bool_t "child within parent" true
        (Int64.compare root.Profile.t0 c.Profile.t0 <= 0
        && Int64.compare c.Profile.t1 root.Profile.t1 <= 0))
    root.Profile.children

let test_self_time_invariant () =
  let t = Profile.of_events (collect_workload ()) in
  (* On a well-formed trace the self times partition the wall time:
     Σ self over every span = Σ cumulative over the roots. *)
  check int_t "Σ self = root cumulative" (Profile.total_wall_ns t)
    (Profile.total_self_ns t);
  let rec each f s =
    f s;
    List.iter (each f) s.Profile.children
  in
  List.iter
    (each (fun s ->
         check bool_t "self >= 0" true (Profile.self_ns s >= 0);
         check bool_t "self <= dur" true (Profile.self_ns s <= Profile.dur_ns s)))
    t.Profile.roots;
  (* Aggregates cover the same total. *)
  let totals = Profile.totals t in
  check int_t "totals partition self time" (Profile.total_self_ns t)
    (List.fold_left (fun a g -> a + g.Profile.self_total_ns) 0 totals);
  check int_t "calls counted" 4
    (List.fold_left (fun a g -> a + g.Profile.calls) 0 totals)

let test_counter_attribution () =
  let t = Profile.of_events (collect_workload ()) in
  (* First snapshot (value 5) lands while child_a is innermost-open;
     the second (delta 2) after all spans closed. *)
  let find name = List.assoc_opt name t.Profile.attribution in
  (match find "child_a" with
  | Some kvs ->
      check (Alcotest.option int_t) "delta charged to child_a" (Some 5)
        (List.assoc_opt "test.profile.work" kvs)
  | None -> Alcotest.fail "no attribution for child_a");
  (match find "(toplevel)" with
  | Some kvs ->
      check (Alcotest.option int_t) "tail delta charged to toplevel" (Some 2)
        (List.assoc_opt "test.profile.work" kvs)
  | None -> Alcotest.fail "no toplevel attribution");
  check (Alcotest.option int_t) "final counters keep the raw value" (Some 7)
    (List.assoc_opt "test.profile.work" t.Profile.final_counters)

let test_critical_path () =
  let t = Profile.of_events (collect_workload ()) in
  let path = List.map (fun s -> s.Profile.name) (Profile.critical_path t) in
  check bool_t "path starts at the root" true
    (match path with "root" :: _ -> true | _ -> false);
  check bool_t "path is a chain into the tree" true
    (List.length path >= 2 && List.length path <= 3)

(* ------------------------------------------------------------------ *)
(* Folded stacks *)

let test_folded_roundtrip () =
  let t = Profile.of_events (collect_workload ()) in
  let folded = Profile.folded t in
  check bool_t "folded non-empty" true (folded <> []);
  check bool_t "root path present" true (List.mem_assoc "root" folded);
  check bool_t "nested path uses semicolons" true
    (List.exists
       (fun (p, _) -> String.length p > 4 && String.contains p ';')
       folded);
  (* Total folded weight = total self time (zero-self spans omitted). *)
  check int_t "folded weights sum to self total" (Profile.total_self_ns t)
    (List.fold_left (fun a (_, v) -> a + v) 0 folded);
  let reparsed = Profile.parse_folded (Profile.folded_to_string folded) in
  check bool_t "round-trip" true (reparsed = folded);
  (* Parsing tolerates junk lines. *)
  check bool_t "junk skipped" true
    (Profile.parse_folded "nonsense\n\na;b 12\nbad line trailing\n"
    = [ ("a;b", 12) ])

(* ------------------------------------------------------------------ *)
(* Tolerant trace reading *)

let test_damaged_trace () =
  let events = collect_workload () in
  let file = Filename.temp_file "slocal_profile" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  let lines = List.map (fun e -> Json.to_string (Telemetry.event_to_json e)) events in
  (* Interleave damage: garbage, a truncated JSON object, a blank line
     and an unknown event kind; drop the last span_close so one span
     stays open (a process killed mid-run). *)
  let n = List.length lines in
  let last_close =
    let idx = ref (-1) in
    List.iteri
      (fun i e ->
        match e with Telemetry.Span_close _ -> idx := i | _ -> ())
      events;
    !idx
  in
  List.iteri
    (fun i line ->
      if i = 2 then output_string oc "this is not json\n";
      if i = 4 then
        output_string oc (String.sub line 0 (String.length line / 2) ^ "\n");
      if i = 5 then output_string oc "\n";
      if i <> last_close then output_string oc (line ^ "\n"))
    lines;
  output_string oc "{\"kind\":\"from_the_future\",\"t_ns\":1}\n";
  close_out oc;
  let r = Trace.read_file file in
  check int_t "three damaged lines skipped" 3 r.Trace.skipped;
  check int_t "good events all read" (n - 1) (List.length r.Trace.events);
  check (Alcotest.option string_t) "schema recovered"
    (Some Telemetry.trace_schema_version) r.Trace.schema;
  let t = Profile.of_read_result r in
  check int_t "skip count propagated" 3 t.Profile.skipped_lines;
  check int_t "one span synthesized closed" 1 t.Profile.unclosed;
  check int_t "span tree still complete" 4 t.Profile.span_count;
  (* The invariant holds with the synthesized close too. *)
  check int_t "Σ self = root cumulative (damaged)" (Profile.total_wall_ns t)
    (Profile.total_self_ns t)

let test_event_json_roundtrip () =
  let events = collect_workload () in
  List.iter
    (fun e ->
      match Trace.event_of_json (Telemetry.event_to_json e) with
      | Ok e' ->
          check bool_t "event json round-trip" true
            (Telemetry.event_to_json e = Telemetry.event_to_json e')
      | Error msg -> Alcotest.fail msg)
    events

(* ------------------------------------------------------------------ *)
(* Sequence provenance *)

(* The RE phase spans: traced as [slocal re matching:4:0:1] runs it (one
   RE step, then the fixed-point check's second step), every [re.step]
   span has exactly the four phase spans as children, in order, and
   together they cover at least 95% of the step time. *)
let test_re_phase_spans () =
  with_clean_telemetry @@ fun () ->
  Re_step.set_kernel Re_step.Fast;
  Re_step.clear_cache ();
  let events = ref [] in
  Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
  let p = Slocal_problems.Matching_family.pi ~delta:4 ~x:0 ~y:1 in
  ignore (Re_step.is_fixed_point (Re_step.re p) : bool);
  Telemetry.set_sink Telemetry.null_sink;
  let t = Profile.of_events (List.rev !events) in
  let rec collect acc (s : Profile.span) =
    let acc = if s.Profile.name = "re.step" then s :: acc else acc in
    List.fold_left collect acc s.Profile.children
  in
  let steps = List.fold_left collect [] t.Profile.roots in
  check int_t "four R steps" 4 (List.length steps);
  let phases = [ "re.diagram"; "re.strong"; "re.weak"; "re.build" ] in
  List.iter
    (fun (s : Profile.span) ->
      check (Alcotest.list string_t) "phase children" phases
        (List.map (fun (c : Profile.span) -> c.Profile.name) s.Profile.children))
    steps;
  let total = List.fold_left (fun acc s -> acc + Profile.dur_ns s) 0 steps in
  let covered =
    List.fold_left (fun acc s -> acc + Profile.dur_ns s - Profile.self_ns s) 0 steps
  in
  check bool_t
    (Printf.sprintf "phases cover >= 95%% of re.step (%d of %d ns)" covered total)
    true
    (float_of_int covered >= 0.95 *. float_of_int total)

let test_sequence_provenance () =
  with_clean_telemetry @@ fun () ->
  let events = ref [] in
  Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
  let p = Classic.coloring ~delta:2 ~c:2 in
  let steps = 2 in
  let seq = Sequence.iterate_re p ~steps in
  Telemetry.set_sink Telemetry.null_sink;
  check int_t "sequence length" (steps + 1) (List.length seq);
  let t = Profile.of_events (List.rev !events) in
  let prov = t.Profile.provenance in
  check int_t "one provenance record per problem" (steps + 1)
    (List.length prov);
  check (Alcotest.list int_t) "step indices in order"
    [ 0; 1; 2 ]
    (List.map (fun r -> r.Profile.step) prov);
  let keys =
    [
      "hash"; "labels"; "white_configs"; "black_configs"; "diagram_edges";
      "re_cache_hits"; "re_cache_misses"; "wall_ns";
    ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun k ->
          check bool_t
            (Printf.sprintf "step %d has %s" r.Profile.step k)
            true
            (List.mem_assoc k r.Profile.values))
        keys;
      check bool_t "label non-empty" true (r.Profile.label <> ""))
    prov;
  (* 2-coloring is an RE fixed point: the problem shape is stable. *)
  List.iter
    (fun r ->
      check (Alcotest.option int_t) "labels stable at 2" (Some 2)
        (List.assoc_opt "labels" r.Profile.values))
    prov

(* ------------------------------------------------------------------ *)
(* The profile document *)

let test_profile_json () =
  let t = Profile.of_events (collect_workload ()) in
  let doc = Profile.to_json ~source:"test" t in
  (* Well-formed JSON text. *)
  (match Json.of_string (Json.to_string doc) with
  | Ok reparsed ->
      check bool_t "document round-trips" true (reparsed = doc)
  | Error e -> Alcotest.fail e);
  let str k =
    Option.bind (Json.member k doc) Json.as_string
  in
  check (Alcotest.option string_t) "schema field"
    (Some Profile.profile_schema_version) (str "schema");
  check (Alcotest.option string_t) "source field" (Some "test") (str "source");
  check (Alcotest.option int_t) "span count"
    (Some 4)
    (Option.bind (Json.member "spans" doc) Json.as_int);
  check bool_t "tree present" true (Json.member "tree" doc <> None);
  check bool_t "totals present" true (Json.member "totals" doc <> None);
  check bool_t "folded present" true (Json.member "folded" doc <> None);
  check bool_t "no domains, timeline or requests fields" true
    (Json.member "domains" doc = None
    && Json.member "timeline" doc = None
    && Json.member "requests" doc = None)

(* ------------------------------------------------------------------ *)
(* Allocation accounting *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0


(* Two roots with allocation attached: a [0,100] allocates 1000B
   cumulative (2 minor / 1 major collections), its child c [20,40]
   accounts for 300B of those (1 minor); b [10,60] allocates 500B
   (1 minor). *)
let alloc_events () =
  let o id parent name t =
    Telemetry.Span_open { id; parent; name; t_ns = Int64.of_int t }
  in
  let c id name t0 t alloc_b minor_n major_n =
    Telemetry.Span_close
      {
        id;
        name;
        t_ns = Int64.of_int t;
        dur_ns = Int64.of_int (t - t0);
        alloc_b;
        minor_n;
        major_n;
      }
  in
  [
    Telemetry.Trace_start { t_ns = 0L };
    o 1 None "a" 0;
    o 2 None "b" 10;
    o 3 (Some 1) "c" 20;
    c 3 "c" 20 40 300 1 0;
    c 2 "b" 10 60 500 1 0;
    c 1 "a" 0 100 1000 2 1;
  ]

let test_alloc_accounting () =
  let t = Profile.of_events (alloc_events ()) in
  check int_t "root cumulative bytes" 1500 (Profile.total_alloc_b t);
  check int_t "Σ self-alloc = root cumulative" (Profile.total_alloc_b t)
    (Profile.total_self_alloc_b t);
  let span name =
    let rec find s = if s.Profile.name = name then Some s
      else List.fold_left
          (fun acc c -> if acc = None then find c else acc)
          None s.Profile.children
    in
    match
      List.fold_left
        (fun acc r -> if acc = None then find r else acc)
        None t.Profile.roots
    with
    | Some s -> s
    | None -> Alcotest.fail ("no span " ^ name)
  in
  check int_t "parent self-alloc subtracts the child" 700
    (Profile.self_alloc_b (span "a"));
  check int_t "leaf self-alloc is its cumulative" 300
    (Profile.self_alloc_b (span "c"));
  let totals = Profile.totals t in
  let agg name = List.find (fun g -> g.Profile.agg_name = name) totals in
  check int_t "aggregate cumulative bytes" 1000 (agg "a").Profile.alloc_total_b;
  check int_t "aggregate self bytes" 700 (agg "a").Profile.self_alloc_total_b;
  check int_t "aggregate minors" 2 (agg "a").Profile.minor_total_n;
  check int_t "aggregate majors" 1 (agg "a").Profile.major_total_n;
  check int_t "totals partition self bytes" (Profile.total_self_alloc_b t)
    (List.fold_left (fun a g -> a + g.Profile.self_alloc_total_b) 0 totals)

let test_alloc_critical_path () =
  let t = Profile.of_events (alloc_events ()) in
  check
    (Alcotest.list string_t)
    "allocation critical path follows the heaviest-allocating chain"
    [ "a"; "c" ]
    (List.map (fun s -> s.Profile.name) (Profile.critical_path_alloc t));
  let fa = Profile.folded_alloc t in
  check int_t "folded-alloc weights sum to self bytes"
    (Profile.total_self_alloc_b t)
    (List.fold_left (fun a (_, v) -> a + v) 0 fa);
  check (Alcotest.option int_t) "child stack carries its bytes" (Some 300)
    (List.assoc_opt "a;c" fa)

let test_alloc_clamp () =
  (* A malformed trace (child claims more bytes than its parent) must
     clamp the parent's self-allocation at 0, never go negative. *)
  let events =
    match alloc_events () with
    | [ ts; oa; ob; oc; _cc; cb; ca ] ->
        let cc =
          Telemetry.Span_close
            {
              id = 3;
              name = "c";
              t_ns = 40L;
              dur_ns = 20L;
              alloc_b = 5000;
              minor_n = 0;
              major_n = 0;
            }
        in
        [ ts; oa; ob; oc; cc; cb; ca ]
    | _ -> Alcotest.fail "unexpected scripted trace shape"
  in
  let t = Profile.of_events events in
  let a = List.find (fun s -> s.Profile.name = "a") t.Profile.roots in
  check int_t "self-alloc clamped at 0" 0 (Profile.self_alloc_b a)

let test_alloc_invariant_live () =
  (* The live workload's measured allocations satisfy the same
     partition invariant as the scripted geometry. *)
  let t = Profile.of_events (collect_workload ()) in
  check int_t "Σ self-alloc = root cumulative (live)"
    (Profile.total_alloc_b t)
    (Profile.total_self_alloc_b t);
  let rec each f s =
    f s;
    List.iter (each f) s.Profile.children
  in
  List.iter
    (each (fun s ->
         check bool_t "self-alloc within [0, alloc_b]" true
           (Profile.self_alloc_b s >= 0
           && Profile.self_alloc_b s <= s.Profile.alloc_b)))
    t.Profile.roots

let test_alloc_render () =
  let t = Profile.of_events (alloc_events ()) in
  let out = Format.asprintf "%a" (Profile.pp_alloc ~top:10) t in
  check bool_t "prints the allocation profile header" true
    (contains out "allocation profile");
  check bool_t "prints the partition check" true
    (contains out "self-allocation total")

(* ------------------------------------------------------------------ *)
(* Property: histogram merge is associative (and commutative) *)

let hist_gen rng =
  let n = Proptest.int_range 0 40 rng in
  List.init n (fun _ ->
      match Slocal_util.Prng.int rng 4 with
      | 0 -> Proptest.int_range (-8) 8 rng
      | 1 -> Proptest.int_range 0 1000 rng
      | 2 -> 1 lsl Proptest.int_range 0 61 rng
      | _ -> max_int - Proptest.int_range 0 3 rng)

let hist_of_list vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

let test_merge_associative () =
  let print (a, b, c) =
    Printf.sprintf "a=%s b=%s c=%s"
      (String.concat "," (List.map string_of_int a))
      (String.concat "," (List.map string_of_int b))
      (String.concat "," (List.map string_of_int c))
  in
  let shrink (a, b, c) =
    let drop l = if l = [] then [] else [ List.tl l ] in
    List.map (fun a' -> (a', b, c)) (drop a)
    @ List.map (fun b' -> (a, b', c)) (drop b)
    @ List.map (fun c' -> (a, b, c')) (drop c)
  in
  let seed = Proptest.seed_from_env ~default:2024 in
  Proptest.run ~seed
    (Proptest.property ~count:150 ~shrink ~name:"histogram merge associative"
       ~gen:(fun rng -> (hist_gen rng, hist_gen rng, hist_gen rng))
       ~print
       (fun (a, b, c) ->
         let ha = hist_of_list a and hb = hist_of_list b and hc = hist_of_list c in
         H.equal
           (H.merge (H.merge ha hb) hc)
           (H.merge ha (H.merge hb hc))
         && H.equal (H.merge ha hb) (H.merge hb ha)
         && H.equal ha (hist_of_list a)))

let () =
  Alcotest.run "profile"
    [
      ( "tree",
        [
          Alcotest.test_case "reconstruction" `Quick test_tree_reconstruction;
          Alcotest.test_case "self-time invariant" `Quick
            test_self_time_invariant;
          Alcotest.test_case "counter attribution" `Quick
            test_counter_attribution;
          Alcotest.test_case "critical path" `Quick test_critical_path;
        ] );
      ( "folded",
        [ Alcotest.test_case "round-trip" `Quick test_folded_roundtrip ] );
      ( "trace",
        [
          Alcotest.test_case "damaged input" `Quick test_damaged_trace;
          Alcotest.test_case "event json round-trip" `Quick
            test_event_json_roundtrip;
        ] );
      ( "sequence",
        [
          Alcotest.test_case "RE phase spans" `Quick test_re_phase_spans;
          Alcotest.test_case "provenance events" `Quick
            test_sequence_provenance;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "self vs cumulative bytes" `Quick
            test_alloc_accounting;
          Alcotest.test_case "critical path and folded stacks" `Quick
            test_alloc_critical_path;
          Alcotest.test_case "malformed trace clamps" `Quick test_alloc_clamp;
          Alcotest.test_case "live invariant" `Quick test_alloc_invariant_live;
          Alcotest.test_case "rendering" `Quick test_alloc_render;
        ] );
      ( "document",
        [ Alcotest.test_case "slocal.profile/3" `Quick test_profile_json ] );
      ( "properties",
        [
          Alcotest.test_case "merge associativity" `Quick
            test_merge_associative;
        ] );
    ]
