(* Tests for the telemetry layer: the hand-rolled JSON codec, the
   metric registry, span nesting through a collector sink, the null
   sink's no-op guarantees, and the JSONL trace round-trip. *)

module Json = Slocal_obs.Json
module Telemetry = Slocal_obs.Telemetry

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* Every test must leave the global telemetry state clean: sink
   uninstalled and metrics zeroed. *)
let with_clean_telemetry f =
  Telemetry.reset_metrics ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_sink Telemetry.null_sink;
      Telemetry.reset_metrics ())
    f

(* ------------------------------------------------------------------ *)
(* Json *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_print () =
  check string_t "null" "null" (Json.to_string Json.Null);
  check string_t "true" "true" (Json.to_string (Json.Bool true));
  check string_t "int" "-42" (Json.to_string (Json.Int (-42)));
  check string_t "string escape" "\"a\\\"b\\\\c\\n\""
    (Json.to_string (Json.String "a\"b\\c\n"));
  check string_t "list" "[1,2]"
    (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  check string_t "obj" "{\"k\":\"v\"}"
    (Json.to_string (Json.Obj [ ("k", Json.String "v") ]));
  check string_t "nan is null" "null" (Json.to_string (Json.Float Float.nan))

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool false;
      Json.Int 0;
      Json.Int max_int;
      Json.Int min_int;
      Json.String "";
      Json.String "tab\there \"and\" back\\slash\ncontrol\x01done";
      Json.List [];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.List [ Json.Obj [ ("b", Json.Null) ] ]);
          ("s", Json.String "x");
        ];
    ]
  in
  List.iteri
    (fun i v -> check bool_t (Printf.sprintf "sample %d" i) true (roundtrip v))
    samples;
  (* Floats round-trip through %.17g exactly. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          check (Alcotest.float 0.) "float exact" f f'
      | Ok (Json.Int i) -> check (Alcotest.float 0.) "float as int" f (float_of_int i)
      | _ -> Alcotest.fail "float did not round-trip")
    [ 1.5; -0.25; 1e300; 3.141592653589793 ]

let test_json_parse () =
  (match Json.of_string "  { \"a\" : [ 1 , true , \"x\\u0041\" ] } " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.String "xA" ]) ])
    -> ()
  | Ok _ -> Alcotest.fail "parsed to the wrong value"
  | Error e -> Alcotest.fail e);
  (* Surrogate pair → astral code point, UTF-8 encoded. *)
  (match Json.of_string "\"\\uD83D\\uDE00\"" with
  | Ok (Json.String s) -> check string_t "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair failed");
  let is_error s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> check bool_t (Printf.sprintf "reject %S" s) true (is_error s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v =
    Json.Obj [ ("n", Json.Int 7); ("f", Json.Float 2.5); ("s", Json.String "x") ]
  in
  check (Alcotest.option int_t) "member+as_int" (Some 7)
    (Option.bind (Json.member "n" v) Json.as_int);
  check (Alcotest.option (Alcotest.float 0.)) "as_float accepts Int" (Some 7.)
    (Option.bind (Json.member "n" v) Json.as_float);
  check (Alcotest.option string_t) "as_string" (Some "x")
    (Option.bind (Json.member "s" v) Json.as_string);
  check bool_t "missing member" true (Json.member "zz" v = None);
  check bool_t "as_int rejects float" true
    (Option.bind (Json.member "f" v) Json.as_int = None)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counters () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.counter" in
  let c' = Telemetry.counter "test.counter" in
  check int_t "fresh counter is 0" 0 (Telemetry.value c);
  Telemetry.incr c;
  Telemetry.add c' 10;
  check int_t "interned: same metric" 11 (Telemetry.value c);
  let g = Telemetry.gauge "test.gauge" in
  Telemetry.set g 5;
  Telemetry.set g 3;
  check int_t "gauge keeps last value" 3 (Telemetry.value g);
  check bool_t "snapshot sorted" true
    (let s = List.map fst (Telemetry.snapshot ()) in
     s = List.sort compare s);
  check bool_t "nonzero_snapshot has both" true
    (List.mem ("test.counter", 11) (Telemetry.nonzero_snapshot ())
    && List.mem ("test.gauge", 3) (Telemetry.nonzero_snapshot ()))

let test_delta () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.d.counter" in
  let g = Telemetry.gauge "test.d.gauge" in
  let z = Telemetry.counter "test.d.zero" in
  Telemetry.add c 4;
  Telemetry.set g 9;
  let before = Telemetry.snapshot () in
  Telemetry.add c 6;
  Telemetry.set g 2;
  let d = Telemetry.delta ~before ~after:(Telemetry.snapshot ()) in
  check (Alcotest.option int_t) "counter delta subtracts" (Some 6)
    (List.assoc_opt "test.d.counter" d);
  check (Alcotest.option int_t) "gauge delta is last value" (Some 2)
    (List.assoc_opt "test.d.gauge" d);
  check bool_t "zero entries dropped" true
    (List.assoc_opt "test.d.zero" d = None);
  Telemetry.reset_metrics ();
  check int_t "reset zeroes counters" 0 (Telemetry.value c);
  check int_t "reset zeroes gauges" 0 (Telemetry.value g);
  ignore z

(* ------------------------------------------------------------------ *)
(* Histograms *)

module H = Telemetry.Histogram

let hist_of_list vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

let test_histogram_buckets () =
  check int_t "bucket of min_int" 0 (H.bucket_of_value min_int);
  check int_t "bucket of -1" 0 (H.bucket_of_value (-1));
  check int_t "bucket of 0" 0 (H.bucket_of_value 0);
  check int_t "bucket of 1" 1 (H.bucket_of_value 1);
  check int_t "bucket of 2" 2 (H.bucket_of_value 2);
  check int_t "bucket of 3" 2 (H.bucket_of_value 3);
  check int_t "bucket of 4" 3 (H.bucket_of_value 4);
  (* max_int has [Sys.int_size - 1] significant bits (62 on 64-bit
     platforms), capped at the last bucket. *)
  check int_t "bucket of max_int"
    (min 63 (Sys.int_size - 1))
    (H.bucket_of_value max_int);
  (* Power-of-two boundaries: 2^i opens bucket i+1; 2^i - 1 closes
     bucket i. *)
  for i = 1 to 61 do
    let v = 1 lsl i in
    check int_t (Printf.sprintf "bucket of 2^%d" i) (i + 1) (H.bucket_of_value v);
    check int_t (Printf.sprintf "bucket of 2^%d - 1" i) i (H.bucket_of_value (v - 1))
  done;
  (* Every value lands inside its bucket's inclusive bounds. *)
  List.iter
    (fun v ->
      let lo, hi = H.bucket_bounds (H.bucket_of_value v) in
      check bool_t (Printf.sprintf "%d within bounds" v) true (lo <= v && v <= hi))
    [ min_int; -7; 0; 1; 2; 3; 1000; 1 lsl 40; max_int ]

let test_histogram_record () =
  let h = hist_of_list [ 5; 1; 1000; 0; 7 ] in
  check int_t "count" 5 (H.count h);
  check int_t "sum" 1013 (H.sum h);
  check int_t "min" 0 (H.min_value h);
  check int_t "max" 1000 (H.max_value h);
  check (Alcotest.float 1e-9) "mean exact" 202.6 (H.mean h);
  check bool_t "not empty" false (H.is_empty h);
  (* Quantiles: exact at the extremes, monotone in between, always
     within the observed range. *)
  check int_t "q=0 is min" 0 (H.quantile h 0.);
  check int_t "q=1 is max" 1000 (H.quantile h 1.);
  let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ] in
  let vals = List.map (H.quantile h) qs in
  check bool_t "quantiles monotone" true (vals = List.sort compare vals);
  List.iter
    (fun v ->
      check bool_t "quantile clamped" true
        (H.min_value h <= v && v <= H.max_value h))
    vals;
  (* Copy is independent; reset empties. *)
  let c = H.copy h in
  H.record h 9;
  check int_t "copy unaffected" 5 (H.count c);
  H.reset h;
  check bool_t "reset empties" true (H.is_empty h);
  check int_t "empty quantile is 0" 0 (H.quantile h 0.5)

let test_histogram_merge () =
  let a = hist_of_list [ 1; 2; 3 ] and b = hist_of_list [ 100; -5 ] in
  let m = H.merge a b in
  check int_t "merge count" 5 (H.count m);
  check int_t "merge sum" 101 (H.sum m);
  check int_t "merge min" (-5) (H.min_value m);
  check int_t "merge max" 100 (H.max_value m);
  check int_t "arguments unchanged" 3 (H.count a);
  check bool_t "commutative" true (H.equal m (H.merge b a));
  check bool_t "empty is identity" true (H.equal a (H.merge a (H.create ())));
  (* Merge equals recording the concatenation. *)
  check bool_t "merge = concat" true
    (H.equal m (hist_of_list [ 1; 2; 3; 100; -5 ]))

let test_histogram_json () =
  List.iter
    (fun vs ->
      let h = hist_of_list vs in
      match Telemetry.histogram_of_json (Telemetry.histogram_to_json h) with
      | Ok h' -> check bool_t "histogram json round-trip" true (H.equal h h')
      | Error e -> Alcotest.fail e)
    [ []; [ 0 ]; [ -3; 17; 17; 4096; max_int ] ]

let test_histogram_registry () =
  with_clean_telemetry @@ fun () ->
  let h = Telemetry.histogram "test.hist" in
  let h' = Telemetry.histogram "test.hist" in
  H.record h 12;
  check int_t "interned: same histogram" 1 (H.count h');
  check bool_t "snapshot has it" true
    (List.mem_assoc "test.hist" (Telemetry.histogram_snapshot ()));
  (* emit_histograms sends copies: later recording must not alter the
     emitted snapshot. *)
  let got = ref [] in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Histograms { values; _ } -> got := values :: !got
      | _ -> ()));
  Telemetry.emit_histograms ();
  Telemetry.set_sink Telemetry.null_sink;
  H.record h 99;
  (match !got with
  | [ values ] ->
      let e = List.assoc "test.hist" values in
      check int_t "emitted copy frozen" 1 (H.count e)
  | _ -> Alcotest.fail "expected exactly one histograms event");
  Telemetry.reset_metrics ();
  check bool_t "reset_metrics clears histograms" true (H.is_empty h)

let test_span_histogram_and_gc () =
  with_clean_telemetry @@ fun () ->
  (* Null sink: spans record nothing. *)
  ignore (Telemetry.span "quiet" (fun () -> 1));
  check bool_t "no histogram under null sink" true
    (Telemetry.histogram_snapshot () = []);
  (* Collector sink: duration histogram, alloc delta, GC gauges. *)
  let alloc = ref (-1) in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close { alloc_b; _ } -> alloc := alloc_b
      | _ -> ()));
  ignore (Telemetry.span "work" (fun () -> Array.make 4096 0));
  Telemetry.set_sink Telemetry.null_sink;
  check bool_t "span duration recorded" true
    (H.count (Telemetry.histogram "span.work") = 1);
  check bool_t "alloc_b non-negative" true (!alloc >= 0);
  let v name =
    Option.value ~default:(-1)
      (List.assoc_opt name (Telemetry.snapshot ()))
  in
  check bool_t "gc.heap_words sampled" true (v "gc.heap_words" > 0);
  check bool_t "gc.minor_collections sampled" true
    (v "gc.minor_collections" >= 0);
  check bool_t "gc.allocated_bytes sampled" true (v "gc.allocated_bytes" > 0);
  check bool_t "gc.minor_words sampled" true (v "gc.minor_words" > 0);
  check bool_t "gc.promoted_words sampled" true (v "gc.promoted_words" >= 0);
  check bool_t "gc.major_words sampled" true (v "gc.major_words" >= 0)

let test_span_gc_work () =
  with_clean_telemetry @@ fun () ->
  let got = ref None in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close { name = "gc_work"; minor_n; major_n; _ } ->
          got := Some (minor_n, major_n)
      | _ -> ()));
  Telemetry.span "gc_work" (fun () ->
      Gc.minor ();
      Gc.full_major ());
  Telemetry.set_sink Telemetry.null_sink;
  match !got with
  | None -> Alcotest.fail "no span_close for gc_work"
  | Some (minor_n, major_n) ->
      check bool_t "minor collections attributed to the span" true
        (minor_n >= 1);
      check bool_t "major collections attributed to the span" true
        (major_n >= 1)

let test_major_cycle_monitor () =
  with_clean_telemetry @@ fun () ->
  let majors () =
    Option.value ~default:0
      (List.assoc_opt "gc.majors" (Telemetry.snapshot ()))
  in
  (* No sink: the alarm is not installed, major cycles go uncounted. *)
  Gc.full_major ();
  check int_t "no monitor without a sink" 0 (majors ());
  Telemetry.set_sink (Telemetry.collector_sink (fun _ -> ()));
  Gc.full_major ();
  Gc.full_major ();
  let with_sink = majors () in
  check bool_t "alarm counts major cycles under a sink" true (with_sink >= 2);
  check bool_t "inter-cycle latency recorded" true
    (H.count (Telemetry.histogram "gc.major_interval_ns") >= 1);
  Telemetry.set_sink Telemetry.null_sink;
  Gc.full_major ();
  check int_t "alarm removed with the null sink" with_sink (majors ())

(* ------------------------------------------------------------------ *)
(* Null sink *)

let test_null_sink () =
  with_clean_telemetry @@ fun () ->
  check bool_t "disabled by default" false (Telemetry.enabled ());
  check int_t "span is the plain call" 41 (Telemetry.span "x" (fun () -> 41));
  Alcotest.check_raises "span re-raises" Exit (fun () ->
      Telemetry.span "x" (fun () -> raise Exit));
  (* No-ops, must not raise. *)
  Telemetry.emit_counters ();
  Telemetry.message "nobody listens"

(* ------------------------------------------------------------------ *)
(* Span nesting via the collector sink *)

let test_span_nesting () =
  with_clean_telemetry @@ fun () ->
  let events = ref [] in
  Telemetry.set_sink (Telemetry.collector_sink (fun e -> events := e :: !events));
  check bool_t "enabled with collector" true (Telemetry.enabled ());
  let result =
    Telemetry.span "outer" (fun () ->
        let a = Telemetry.span "inner" (fun () -> 7) in
        let b = Telemetry.span "inner2" (fun () -> 1) in
        a + b)
  in
  check int_t "spans pass values through" 8 result;
  match List.rev !events with
  | [
   Telemetry.Trace_start _;
   Telemetry.Span_open { id = o; parent = None; name = "outer"; _ };
   Telemetry.Span_open { id = i1; parent = Some p1; name = "inner"; _ };
   Telemetry.Span_close { id = ci1; name = "inner"; dur_ns = d1; _ };
   Telemetry.Span_open { id = i2; parent = Some p2; name = "inner2"; _ };
   Telemetry.Span_close { id = ci2; name = "inner2"; _ };
   Telemetry.Span_close { id = co; name = "outer"; dur_ns = d_o; _ };
  ] ->
      check int_t "inner parent is outer" o p1;
      check int_t "inner2 parent is outer" o p2;
      check int_t "inner close matches open" i1 ci1;
      check int_t "inner2 close matches open" i2 ci2;
      check int_t "outer close matches open" o co;
      check bool_t "distinct ids" true (o <> i1 && o <> i2 && i1 <> i2);
      check bool_t "durations non-negative" true
        (Int64.compare d1 0L >= 0 && Int64.compare d_o 0L >= 0)
  | evs ->
      Alcotest.fail
        (Printf.sprintf "unexpected event sequence (%d events)" (List.length evs))

let test_span_exception_close () =
  with_clean_telemetry @@ fun () ->
  let closes = ref 0 in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_close _ -> incr closes
      | _ -> ()));
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      Telemetry.span "a" (fun () ->
          Telemetry.span "b" (fun () -> raise Exit)));
  check int_t "both spans closed on exception" 2 !closes;
  (* The span stack unwound: a fresh span is again a root. *)
  let root_parent = ref (Some (-1)) in
  Telemetry.set_sink
    (Telemetry.collector_sink (function
      | Telemetry.Span_open { parent; _ } -> root_parent := parent
      | _ -> ()));
  Telemetry.span "fresh" (fun () -> ());
  check bool_t "stack unwound after exception" true (!root_parent = None)

(* ------------------------------------------------------------------ *)
(* JSONL trace round-trip *)

let test_jsonl_roundtrip () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  let c = Telemetry.counter "test.jsonl.counter" in
  Telemetry.span "outer" (fun () ->
      Telemetry.add c 3;
      Telemetry.span "inner" (fun () -> Telemetry.message "hello \"quoted\""));
  Telemetry.emit_counters ();
  Telemetry.set_sink Telemetry.null_sink;
  close_out oc;
  let lines =
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  check int_t "event count" 7 (List.length lines);
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok v -> v
        | Error e -> Alcotest.fail (Printf.sprintf "invalid JSON line %S: %s" line e))
      lines
  in
  let kind v =
    match Option.bind (Json.member "kind" v) Json.as_string with
    | Some k -> k
    | None -> Alcotest.fail "line without kind"
  in
  check string_t "first line is trace_start" "trace_start" (kind (List.hd parsed));
  check (Alcotest.option string_t) "trace_start carries the schema"
    (Some Telemetry.trace_schema_version)
    (Option.bind (Json.member "schema" (List.hd parsed)) Json.as_string);
  (* Timestamps are monotone. *)
  let ts =
    List.filter_map (fun v -> Option.bind (Json.member "t_ns" v) Json.as_int) parsed
  in
  check int_t "every line has t_ns" (List.length parsed) (List.length ts);
  check bool_t "t_ns monotone" true (ts = List.sort compare ts);
  (* Spans are balanced and the counters event carries the value. *)
  let count k = List.length (List.filter (fun v -> kind v = k) parsed) in
  check int_t "two span_open" 2 (count "span_open");
  check int_t "two span_close" 2 (count "span_close");
  check int_t "one message" 1 (count "message");
  let counters_line = List.find (fun v -> kind v = "counters") parsed in
  check (Alcotest.option int_t) "counter value serialized" (Some 3)
    (Option.bind
       (Option.bind (Json.member "values" counters_line)
          (Json.member "test.jsonl.counter"))
       Json.as_int)

(* ------------------------------------------------------------------ *)
(* Sink flush idempotence *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines_of path =
  String.split_on_char '\n' (read_all path) |> List.filter (fun l -> l <> "")

let test_flush_idempotent () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_flush" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  Telemetry.set_sink (Telemetry.jsonl_sink oc);
  let c = Telemetry.counter "test.flush.counter" in
  Telemetry.add c 2;
  Telemetry.emit_counters ();
  Telemetry.flush_sink ();
  let size () = (Unix.stat file).Unix.st_size in
  let s1 = size () in
  Telemetry.flush_sink ();
  Telemetry.flush_sink ();
  check int_t "double flush adds nothing" s1 (size ());
  (* Closing the channel behind the sink: emit and flush must both
     become silent no-ops, and the trailing record stays intact. *)
  close_out oc;
  Telemetry.flush_sink ();
  Telemetry.message "after close";
  Telemetry.emit_counters ();
  Telemetry.flush_sink ();
  Telemetry.set_sink Telemetry.null_sink;
  Telemetry.flush_sink ();
  check int_t "closed sink wrote nothing" s1 (size ());
  let parsed =
    List.map
      (fun line ->
        match Json.of_string line with
        | Ok v -> v
        | Error e ->
            Alcotest.fail (Printf.sprintf "damaged line %S: %s" line e))
      (lines_of file)
  in
  let last = List.nth parsed (List.length parsed - 1) in
  check (Alcotest.option string_t) "trailing record intact" (Some "counters")
    (Option.bind (Json.member "kind" last) Json.as_string)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition *)

module Openmetrics = Slocal_obs.Openmetrics

let test_openmetrics_names () =
  check string_t "dots become underscores" "slocal_re_cache_hits"
    (Openmetrics.metric_name "re.cache_hits");
  check string_t "non-identifier chars collapse" "slocal_a_b_c"
    (Openmetrics.metric_name "a.b-c")

let sample_value line =
  match String.rindex_opt line ' ' with
  | Some i -> int_of_string (String.sub line (i + 1) (String.length line - i - 1))
  | None -> Alcotest.fail ("exposition line without a value: " ^ line)

let test_openmetrics_render () =
  with_clean_telemetry @@ fun () ->
  let c = Telemetry.counter "test.om.count" in
  Telemetry.add c 3;
  let g = Telemetry.gauge "test.om.gauge" in
  Telemetry.set g 7;
  let h = Telemetry.histogram "test.om.hist" in
  List.iter (H.record h) [ 1; 2; 3; 1000 ];
  let out = Openmetrics.render () in
  check bool_t "document ends with # EOF" true
    (String.ends_with ~suffix:"# EOF\n" out);
  let lines = String.split_on_char '\n' out in
  let has l = List.mem l lines in
  check bool_t "counter HELP line" true
    (List.exists
       (String.starts_with ~prefix:"# HELP slocal_test_om_count_total ")
       lines);
  check bool_t "counter TYPE line" true
    (has "# TYPE slocal_test_om_count_total counter");
  check bool_t "counter sample" true (has "slocal_test_om_count_total 3");
  check bool_t "gauge TYPE line" true (has "# TYPE slocal_test_om_gauge gauge");
  check bool_t "gauge sample" true (has "slocal_test_om_gauge 7");
  check bool_t "histogram TYPE line" true
    (has "# TYPE slocal_test_om_hist histogram");
  let buckets =
    List.filter
      (String.starts_with ~prefix:"slocal_test_om_hist_bucket{le=")
      lines
  in
  check bool_t "at least two bucket series" true (List.length buckets >= 2);
  let vals = List.map sample_value buckets in
  check bool_t "cumulative buckets monotone" true
    (vals = List.sort compare vals);
  (match List.rev buckets with
  | last :: _ ->
      check bool_t "last bucket is +Inf" true
        (String.starts_with ~prefix:"slocal_test_om_hist_bucket{le=\"+Inf\"}"
           last);
      check int_t "+Inf bucket equals observation count" 4 (sample_value last)
  | [] -> Alcotest.fail "no bucket series");
  let sample name =
    match List.find_opt (String.starts_with ~prefix:(name ^ " ")) lines with
    | Some l -> sample_value l
    | None -> Alcotest.fail ("missing sample " ^ name)
  in
  check int_t "_count consistent" 4 (sample "slocal_test_om_hist_count");
  check int_t "_sum consistent" 1006 (sample "slocal_test_om_hist_sum")

let test_openmetrics_write_file () =
  with_clean_telemetry @@ fun () ->
  ignore (Telemetry.counter "test.om.file");
  let file = Filename.temp_file "slocal_om" ".prom" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Openmetrics.write_file file;
  let text = read_all file in
  check bool_t "published snapshot complete" true
    (String.ends_with ~suffix:"# EOF\n" text);
  check bool_t "published snapshot non-trivial" true
    (String.length text > String.length "# EOF\n")

(* ------------------------------------------------------------------ *)
(* Run ledger *)

module Ledger = Slocal_obs.Ledger

let sample_record ?(id = "cafe0001") ?(counters = [ ("c", 1) ]) () =
  {
    Ledger.id;
    argv = [ "slocal"; "re"; "x.slp" ];
    started_at = 1000.25;
    finished_at = 1003.75;
    outcome = "ok";
    exit_code = 0;
    kernel = Some "fast";
    seed = Some 42;
    problems = [ ("mm3", 123456789) ];
    counters;
    gauges = [ ("g", 2) ];
    histograms =
      [
        ( "h",
          {
            Ledger.hs_count = 4;
            hs_sum = 10;
            hs_p50 = 2;
            hs_p90 = 3;
            hs_p99 = 3;
            hs_max = 4;
          } );
      ];
    artifacts = [ ("trace", "/tmp/t.jsonl") ];
    alloc_b = 4096;
    majors = 2;
    top_heap_words = 65536;
  }

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let with_temp_ledger f =
  let path = Filename.temp_file "slocal_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_ledger_roundtrip () =
  let r = sample_record () in
  (match Ledger.of_json (Ledger.to_json r) with
  | Ok r' -> check bool_t "record json round-trip" true (r = r')
  | Error e -> Alcotest.fail e);
  check (Alcotest.float 1e-9) "wall_seconds" 3.5 (Ledger.wall_seconds r);
  (match Ledger.of_json (Json.Obj [ ("schema", Json.String "wrong/9") ]) with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ())

let test_ledger_append_read () =
  with_temp_ledger @@ fun path ->
  List.iter
    (fun id ->
      match Ledger.append ~path (sample_record ~id ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ "aa01"; "ab02"; "ab03" ];
  let r = Ledger.read_file path in
  check int_t "three records" 3 (List.length r.Ledger.records);
  check int_t "nothing skipped" 0 r.Ledger.skipped;
  check (Alcotest.list string_t) "order preserved" [ "aa01"; "ab02"; "ab03" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  (* A run killed mid-append leaves a truncated final line: one record
     lost, the ledger still reads. *)
  append_raw path "{\"schema\":\"slocal.run/1\",\"id\":\"dead";
  let r = Ledger.read_file path in
  check int_t "records survive truncation" 3 (List.length r.Ledger.records);
  check int_t "truncated line counted" 1 r.Ledger.skipped;
  (* Selection: 1-based index, unique id prefix, ambiguity rejected. *)
  let ok = function
    | Ok (x : Ledger.record) -> x.Ledger.id
    | Error e -> Alcotest.fail e
  in
  check string_t "index lookup" "ab02" (ok (Ledger.find r "2"));
  check string_t "prefix lookup" "aa01" (ok (Ledger.find r "aa"));
  check bool_t "ambiguous prefix rejected" true
    (Result.is_error (Ledger.find r "ab"));
  check bool_t "unknown key rejected" true
    (Result.is_error (Ledger.find r "zz"));
  check bool_t "index 0 rejected" true (Result.is_error (Ledger.find r "0"))

let test_ledger_diff () =
  let a = sample_record ~counters:[ ("same", 3); ("x", 1); ("y", 5) ] () in
  let b = sample_record ~counters:[ ("same", 3); ("y", 7); ("z", 2) ] () in
  check
    (Alcotest.list (Alcotest.triple string_t int_t int_t))
    "counter union, equal dropped"
    [ ("x", 1, 0); ("y", 5, 7); ("z", 0, 2) ]
    (Ledger.diff a b)

let test_ledger_gc () =
  with_temp_ledger @@ fun path ->
  List.iter
    (fun i ->
      match Ledger.append ~path (sample_record ~id:(Printf.sprintf "id%02d" i) ()) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ 1; 2; 3; 4; 5 ];
  append_raw path "not json\n";
  (match Ledger.gc ~path ~keep:2 with
  | Ok (kept, dropped) ->
      check int_t "kept" 2 kept;
      check int_t "dropped (incl damaged)" 4 dropped
  | Error e -> Alcotest.fail e);
  let r = Ledger.read_file path in
  check (Alcotest.list string_t) "newest records survive" [ "id04"; "id05" ]
    (List.map (fun (x : Ledger.record) -> x.Ledger.id) r.Ledger.records);
  check int_t "rewrite is clean" 0 r.Ledger.skipped

let test_ledger_foreign_request_line () =
  (* Older releases appended per-request records to the run ledger; a
     well-formed line of that schema is foreign, not damage. *)
  with_temp_ledger @@ fun path ->
  (match Ledger.append ~path (sample_record ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  append_raw path
    ({|{"schema":"slocal.request/2","id":"r1","op":"re","problems":{"mm3":42},|}
    ^ {|"kernel":"fast","wall_ns":5000,"alloc_b":1024,"cache_hits":3,|}
    ^ {|"cache_misses":0,"outcome":"ok"}|} ^ "\n");
  let r = Ledger.read_file path in
  check int_t "the run record reads" 1 (List.length r.Ledger.records);
  check int_t "the request line is foreign" 1 r.Ledger.foreign;
  check int_t "nothing skipped" 0 r.Ledger.skipped

let test_ledger_run_context () =
  with_clean_telemetry @@ fun () ->
  with_temp_ledger @@ fun path ->
  Fun.protect ~finally:(fun () -> Unix.putenv "SLOCAL_LEDGER" "off")
  @@ fun () ->
  Unix.putenv "SLOCAL_LEDGER" path;
  check (Alcotest.option string_t) "env selects the ledger" (Some path)
    (Ledger.default_path ());
  Unix.putenv "SLOCAL_LEDGER" "none";
  check bool_t "\"none\" disables" true (Ledger.default_path () = None);
  Unix.putenv "SLOCAL_LEDGER" path;
  Ledger.begin_run ~argv:[ "slocal"; "test" ];
  Ledger.note_kernel "fast";
  Ledger.note_seed 7;
  Ledger.note_problem ~name:"mm3" ~hash:99;
  Ledger.note_problem ~name:"mm3" ~hash:99;
  Ledger.note_artifact ~kind:"trace" "/tmp/x.jsonl";
  Telemetry.add (Telemetry.counter "test.ledger.counter") 5;
  Ledger.finish_run ~outcome:"ok";
  Ledger.finish_run ~outcome:"error";
  let r = Ledger.read_file path in
  (match r.Ledger.records with
  | [ rec_ ] ->
      check (Alcotest.list string_t) "argv" [ "slocal"; "test" ]
        rec_.Ledger.argv;
      check string_t "finish_run is idempotent" "ok" rec_.Ledger.outcome;
      check (Alcotest.option string_t) "kernel noted" (Some "fast")
        rec_.Ledger.kernel;
      check (Alcotest.option int_t) "seed noted" (Some 7) rec_.Ledger.seed;
      check
        (Alcotest.list (Alcotest.pair string_t int_t))
        "problems deduplicated" [ ("mm3", 99) ] rec_.Ledger.problems;
      check (Alcotest.option string_t) "artifact noted" (Some "/tmp/x.jsonl")
        (List.assoc_opt "trace" rec_.Ledger.artifacts);
      check (Alcotest.option int_t) "counters snapshotted" (Some 5)
        (List.assoc_opt "test.ledger.counter" rec_.Ledger.counters);
      check bool_t "timestamps ordered" true
        (rec_.Ledger.finished_at >= rec_.Ledger.started_at)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs)))

(* ------------------------------------------------------------------ *)
(* Live progress *)

module Progress = Slocal_obs.Progress

let test_progress_modes () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_progress" ".txt" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      Progress.set_mode Progress.Off;
      Progress.set_output stderr;
      Progress.set_interval_ns 500_000_000L;
      Progress.reset ();
      close_out_noerr oc;
      Sys.remove file)
  @@ fun () ->
  Progress.set_mode Progress.Off;
  Progress.reset ();
  check bool_t "Off is inactive" false (Progress.is_active ());
  Progress.start ~total:2 "quiet";
  Progress.tick ~step:1 ();
  Progress.finish ();
  check int_t "Off emits nothing" 0 (Progress.heartbeat_count ());
  Progress.set_mode Progress.Forced;
  Progress.set_output oc;
  Progress.set_interval_ns 0L;
  check bool_t "Forced is active" true (Progress.is_active ());
  Progress.start ~total:3 "phase";
  Progress.tick ~step:1 ~info:"labels=6" ();
  Progress.tick ~step:2 ();
  Progress.tick ~step:3 ();
  Progress.finish ();
  Progress.tick ~step:4 ();
  (* after finish: no-op *)
  Progress.solver_tick ~nodes:1000;
  Progress.solver_tick ~nodes:5000;
  flush oc;
  let lines = lines_of file in
  check bool_t "heartbeats emitted" true (List.length lines >= 4);
  check bool_t "every line carries the prefix" true
    (List.for_all (String.starts_with ~prefix:"[progress] ") lines);
  check bool_t "info suffix present" true
    (List.exists
       (fun l ->
         String.length l >= 8
         && String.ends_with ~suffix:"labels=6" l)
       lines);
  check int_t "heartbeat counter matches lines" (List.length lines)
    (Progress.heartbeat_count ())

(* ------------------------------------------------------------------ *)
(* Trace reader: current schema only *)

module Trace = Slocal_obs.Trace

let test_legacy_trace_lines_skipped () =
  (* The reader accepts only the current schema: a span_close from an
     older writer (no GC-work fields) is a damaged line, while the
     current-schema lines around it still parse. *)
  let file = Filename.temp_file "slocal_legacy" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let oc = open_out file in
  List.iter
    (fun l -> output_string oc (l ^ "\n"))
    [
      {|{"kind":"trace_start","t_ns":1,"schema":"slocal.trace/5"}|};
      {|{"kind":"span_open","id":1,"parent":null,"name":"old","t_ns":2}|};
      {|{"kind":"span_close","id":1,"name":"old","t_ns":5,"dur_ns":3,"alloc_b":0}|};
      {|{"kind":"span_open","id":2,"parent":null,"name":"new","t_ns":6}|};
      {|{"kind":"span_close","id":2,"name":"new","t_ns":9,"dur_ns":3,"alloc_b":128,"minor_n":2,"major_n":1}|};
    ];
  close_out oc;
  let r = Trace.read_file file in
  check int_t "the legacy close is skipped" 1 r.Trace.skipped;
  check (Alcotest.option string_t) "schema" (Some "slocal.trace/5")
    r.Trace.schema;
  let closes =
    List.filter_map
      (function
        | Telemetry.Span_close { name; alloc_b; minor_n; major_n; _ } ->
            Some (name, (alloc_b, minor_n, major_n))
        | _ -> None)
      r.Trace.events
  in
  check
    (Alcotest.list
       (Alcotest.pair Alcotest.string (Alcotest.triple int_t int_t int_t)))
    "the current-schema close keeps its GC-work deltas"
    [ ("new", (128, 2, 1)) ]
    closes

let test_trace_req_stamps_ignored () =
  (* Traces written inside a request window of the retired daemon carry
     a [req] member on every event; it is an unknown field and must
     not change what the reader returns. *)
  let lines =
    [
      {|{"schema":"slocal.trace/5","kind":"trace_start","t_ns":1|};
      {|{"kind":"span_open","id":0,"parent":null,"name":"request","t_ns":2|};
      {|{"kind":"span_close","id":0,"name":"request","t_ns":9,"dur_ns":7,"alloc_b":64,"minor_n":1,"major_n":0|};
      {|{"kind":"counters","t_ns":10,"values":{"re.steps":1}|};
    ]
  in
  let read suffix =
    let file = Filename.temp_file "slocal_req" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ suffix ^ "\n")) lines;
    close_out oc;
    Trace.read_file file
  in
  let plain = read "}" and stamped = read {|,"req":"r1"}|} in
  check int_t "every event read" 4 (List.length plain.Trace.events);
  check int_t "stamped lines are not damage" 0 stamped.Trace.skipped;
  check bool_t "same events with and without req" true
    (plain.Trace.events = stamped.Trace.events);
  check (Alcotest.option string_t) "schema" plain.Trace.schema
    stamped.Trace.schema

let test_progress_dropped () =
  with_clean_telemetry @@ fun () ->
  let file = Filename.temp_file "slocal_progress" ".txt" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      Progress.set_mode Progress.Off;
      Progress.set_output stderr;
      Progress.set_interval_ns 500_000_000L;
      Progress.reset ();
      close_out_noerr oc;
      Sys.remove file)
  @@ fun () ->
  Progress.set_mode Progress.Forced;
  Progress.set_output oc;
  (* An hour-long window: everything after the phase's first tick
     loses the throttle and must count into progress.dropped. *)
  Progress.set_interval_ns 3_600_000_000_000L;
  Progress.start ~total:10 "phase";
  Progress.tick ~step:1 ();
  Progress.tick ~step:2 ();
  Progress.tick ~step:3 ();
  Progress.finish ();
  check int_t "only the first tick emitted" 1 (Progress.heartbeat_count ());
  check int_t "suppressed ticks counted" 2 (Progress.dropped_count ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parsing" `Quick test_json_parse;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counters;
          Alcotest.test_case "delta and reset" `Quick test_delta;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "record and quantiles" `Quick
            test_histogram_record;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "json round-trip" `Quick test_histogram_json;
          Alcotest.test_case "registry and emission" `Quick
            test_histogram_registry;
          Alcotest.test_case "span histograms and gc gauges" `Quick
            test_span_histogram_and_gc;
          Alcotest.test_case "span gc-work deltas" `Quick test_span_gc_work;
          Alcotest.test_case "major-cycle monitor" `Quick
            test_major_cycle_monitor;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink no-op" `Quick test_null_sink;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception closes spans" `Quick
            test_span_exception_close;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "flush idempotence" `Quick test_flush_idempotent;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "name mapping" `Quick test_openmetrics_names;
          Alcotest.test_case "exposition format" `Quick test_openmetrics_render;
          Alcotest.test_case "atomic publish" `Quick test_openmetrics_write_file;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "record round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "append, truncation, find" `Quick
            test_ledger_append_read;
          Alcotest.test_case "counter diff" `Quick test_ledger_diff;
          Alcotest.test_case "gc" `Quick test_ledger_gc;
          Alcotest.test_case "run context" `Quick test_ledger_run_context;
          Alcotest.test_case "mixed run + request schemas" `Quick
            test_ledger_foreign_request_line;
        ] );
      ( "progress",
        [
          Alcotest.test_case "modes and heartbeats" `Quick test_progress_modes;
          Alcotest.test_case "dropped ticks under throttle" `Quick
            test_progress_dropped;
        ] );
      ( "trace",
        [
          Alcotest.test_case "legacy schema lines skipped" `Quick
            test_legacy_trace_lines_skipped;
          Alcotest.test_case "req stamps ignored" `Quick
            test_trace_req_stamps_ignored;
        ] );
    ]
