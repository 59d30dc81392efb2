(* Tests for the slocal serve daemon core: the JSONL protocol, the
   per-request counter-delta isolation invariant (disjoint windows
   summing to the global registry delta), capture/replay, the request
   ledger, and the Unix-socket loop end to end. *)

module Json = Slocal_obs.Json
module Telemetry = Slocal_obs.Telemetry
module Ledger = Slocal_obs.Ledger
module Serve = Slocal_serve.Serve

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

let with_tmp name f =
  let file = Filename.temp_file name "" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
  @@ fun () -> f file

(* Round one line through the daemon and parse the reply. *)
let ask st line =
  match Json.of_string (Serve.handle_line st line) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparsable response: %s" msg

let member k j = Json.member k j
let str k j = Option.bind (member k j) Json.as_string
let boolean k j = Option.bind (member k j) Json.as_bool

let is_ok j = boolean "ok" j = Some true

let counters_of j =
  match member "counters" j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (n, v) -> Option.map (fun v -> (n, v)) (Json.as_int v))
        kvs
  | _ -> []

let assoc0 n kvs = Option.value ~default:0 (List.assoc_opt n kvs)

let merge a b =
  List.fold_left
    (fun acc (n, v) -> (n, assoc0 n acc + v) :: List.remove_assoc n acc)
    a b

(* ------------------------------------------------------------------ *)
(* Protocol basics *)

let test_re_warm_cache () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let line = {|{"op":"re","problem":"mm:3"}|} in
  let r1 = ask st line in
  let r2 = ask st line in
  check bool_t "first request ok" true (is_ok r1);
  check bool_t "second request ok" true (is_ok r2);
  check (Alcotest.option string_t) "auto id r1" (Some "r1") (str "id" r1);
  check (Alcotest.option string_t) "auto id r2" (Some "r2") (str "id" r2);
  (* Identical results from the cold and the warm path. *)
  let hash j = Option.bind (member "result" j) (member "hash") in
  check bool_t "same problem hash" true (hash r1 = hash r2 && hash r1 <> None);
  (* The second window hits the cache the first one filled — and the
     windows are disjoint: the misses live in r1's delta only, the
     hits in r2's. *)
  let c1 = counters_of r1 and c2 = counters_of r2 in
  check bool_t "cold request misses" true (assoc0 "re.cache_misses" c1 > 0);
  check int_t "cold request does not hit" 0 (assoc0 "re.cache_hits" c1);
  check bool_t "warm request hits" true (assoc0 "re.cache_hits" c2 > 0);
  check int_t "warm request does not miss" 0 (assoc0 "re.cache_misses" c2);
  check int_t "each window counts itself once" 1 (assoc0 "request.count" c1);
  check int_t "served" 2 (Serve.served st);
  check int_t "no errors" 0 (Serve.errored st)

let test_unknown_op_and_bad_json () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let r = ask st {|{"op":"frobnicate"}|} in
  check bool_t "unknown op refused" false (is_ok r);
  check bool_t "error names the op" true
    (match str "error" r with
    | Some m -> String.length m > 0
    | None -> false);
  (* Unknown ops are control traffic: no request record, no window. *)
  check bool_t "no request record" true (member "request" r = None);
  let r = ask st "this is not json" in
  check bool_t "bad json refused" false (is_ok r);
  check int_t "one protocol error counted" 1 (Serve.errored st)

let test_work_op_error_record () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  let r = ask st {|{"op":"re","problem":"bogus:9"}|} in
  check bool_t "bad spec refused" false (is_ok r);
  (* A failed work op still ran inside a window and still yields its
     slocal.request/2 record, marked as an error. *)
  (match Option.map Ledger.request_of_json (member "request" r) with
  | Some (Ok rr) ->
      check string_t "outcome is error" "error" rr.Ledger.rr_outcome;
      check string_t "op recorded" "re" rr.Ledger.rr_op
  | _ -> Alcotest.fail "missing or unparsable request record");
  check int_t "errored" 1 (Serve.errored st);
  check bool_t "window still charged the attempt" true
    (assoc0 "serve.errors" (counters_of r) = 1
    && assoc0 "serve.requests" (counters_of r) = 1)

let test_metrics_op () =
  with_clean_telemetry @@ fun () ->
  let st = Serve.create () in
  ignore (ask st {|{"op":"re","problem":"mm:3"}|});
  let r = ask st {|{"op":"metrics"}|} in
  check bool_t "metrics ok" true (is_ok r);
  let text =
    Option.value ~default:""
      (Option.bind (member "result" r) (str "text"))
  in
  (* The OpenMetrics exposition carries the slocal_ name prefix. *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check bool_t "exposition mentions slocal_ metrics" true
    (contains text "slocal_")

(* ------------------------------------------------------------------ *)
(* Request isolation: the sum invariant *)

let stats_check st =
  let r = ask st {|{"op":"stats"}|} in
  check bool_t "stats ok" true (is_ok r);
  match Option.bind (member "result" r) (boolean "check_sum") with
  | Some b -> b
  | None -> Alcotest.fail "stats response missing check_sum"

let test_request_isolation () =
  with_clean_telemetry @@ fun () ->
  let before = Telemetry.snapshot () in
  let st = Serve.create () in
  (* Four windows on one warm daemon: cold, warm, cold-again on a
     different problem, and a sequence. *)
  let r1 = ask st {|{"op":"re","problem":"mm:2"}|} in
  let r2 = ask st {|{"op":"re","problem":"mm:2"}|} in
  let r3 = ask st {|{"op":"re","problem":"arb:3:2"}|} in
  let r4 = ask st {|{"op":"sequence","problem":"matching:2:0:1","steps":2}|} in
  List.iter (fun r -> check bool_t "request ok" true (is_ok r)) [ r1; r2; r3; r4 ];
  let deltas = List.map counters_of [ r1; r2; r3; r4 ] in
  (* Disjoint cache attribution. *)
  check bool_t "r2 hits only" true
    (assoc0 "re.cache_hits" (List.nth deltas 1) > 0
    && assoc0 "re.cache_misses" (List.nth deltas 1) = 0);
  check bool_t "r3 misses only" true
    (assoc0 "re.cache_misses" (List.nth deltas 2) > 0
    && assoc0 "re.cache_hits" (List.nth deltas 2) = 0);
  check bool_t "r4 charged its sequence steps" true
    (assoc0 "sequence.steps" (List.nth deltas 3) > 0);
  (* The per-request deltas sum exactly to the global registry delta:
     nothing ran outside a window, so the merged response counters
     equal the registry's movement, counter by counter. *)
  let summed = List.fold_left merge [] deltas in
  let after = Telemetry.snapshot () in
  List.iter
    (fun (n, v) ->
      check int_t
        (Printf.sprintf "summed delta of %s matches the registry" n)
        (assoc0 n after - assoc0 n before)
        v)
    summed;
  check int_t "four requests counted" 4 (assoc0 "request.count" summed);
  (* And the daemon's own stats op agrees. *)
  check bool_t "stats check_sum holds" true (stats_check st)

(* ------------------------------------------------------------------ *)
(* Capture, replay and the request ledger *)

let test_capture_replay_20 () =
  with_clean_telemetry @@ fun () ->
  with_tmp "slocal_capture" @@ fun capture ->
  with_tmp "slocal_reqledger" @@ fun ledger ->
  let problems = [ "matching:3:0:1"; "matching:4:0:1"; "col:3:2"; "so:3" ] in
  let lines =
    List.init 20 (fun i ->
        Printf.sprintf {|{"op":"re","problem":"%s"}|}
          (List.nth problems (i mod 4)))
  in
  let cfg =
    {
      Serve.default_config with
      Serve.record = Some capture;
      request_ledger = Some ledger;
    }
  in
  let st = Serve.create ~config:cfg () in
  let responses = List.map (ask st) lines in
  Serve.close st;
  List.iter (fun r -> check bool_t "request ok" true (is_ok r)) responses;
  check int_t "20 served" 20 (Serve.served st);
  let totals = Serve.request_totals st in
  (* Each of the 4 problems is requested 5 times: 4 cold misses, the
     16 repeats hit the warm cache. *)
  check bool_t "repeated problems hit the warm cache" true
    (assoc0 "re.cache_hits" totals > 0);
  check int_t "every window counted" 20 (assoc0 "request.count" totals);
  check bool_t "stats check_sum holds after 20 requests" true (stats_check st);
  (* The capture holds all 20 requests with intact summaries. *)
  let items, skipped = Serve.read_capture capture in
  check int_t "no damaged capture lines" 0 skipped;
  check int_t "20 captured requests" 20 (List.length items);
  List.iter
    (fun (req, recorded) ->
      check bool_t "request half present" true (str "op" req = Some "re");
      match recorded with
      | Some rr -> check string_t "recorded outcome" "ok" rr.Ledger.rr_outcome
      | None -> Alcotest.fail "capture line lost its summary")
    items;
  (* One slocal.request/2 ledger record per work request, in order. *)
  let records, lskipped = Ledger.read_requests_file ledger in
  check int_t "no skipped ledger lines" 0 lskipped;
  check int_t "20 ledger records" 20 (List.length records);
  check
    (Alcotest.list string_t)
    "ledger ids in request order"
    (List.init 20 (fun i -> Printf.sprintf "r%d" (i + 1)))
    (List.map (fun rr -> rr.Ledger.rr_id) records);
  (* Replay the capture against a second daemon sharing the warm
     process: every request answers ok and the repeated problems are
     now pure cache hits. *)
  let st2 = Serve.create () in
  List.iter
    (fun (req, _) ->
      let r = ask st2 (Json.to_string req) in
      check bool_t "replayed request ok" true (is_ok r))
    items;
  let totals2 = Serve.request_totals st2 in
  check bool_t "replay hits the warm cache" true
    (assoc0 "re.cache_hits" totals2 > 0);
  check int_t "replay misses nothing" 0 (assoc0 "re.cache_misses" totals2);
  check bool_t "stats check_sum holds on the replay daemon" true
    (stats_check st2)

(* ------------------------------------------------------------------ *)
(* The mixed-schema ledger file (run records + request records) *)

let test_mixed_schema_ledger () =
  with_tmp "slocal_mixed_ledger" @@ fun file ->
  let run =
    {
      Ledger.id = "deadbeef";
      argv = [ "slocal"; "re"; "mm:3" ];
      started_at = 1000.;
      finished_at = 1001.;
      outcome = "ok";
      exit_code = 0;
      kernel = Some "fast";
      seed = None;
      problems = [ ("mm3", 42) ];
      counters = [ ("re.steps", 1) ];
      gauges = [];
      histograms = [];
      artifacts = [];
      alloc_b = 0;
      majors = 0;
      top_heap_words = 0;
    }
  in
  let rr id =
    {
      Ledger.rr_id = id;
      rr_op = "re";
      rr_problems = [ ("mm3", 42) ];
      rr_kernel = Some "fast";
      rr_wall_ns = 5_000;
      rr_alloc_b = 1_024;
      rr_cache_hits = 3;
      rr_cache_misses = 0;
      rr_outcome = "ok";
    }
  in
  (match Ledger.append ~path:file run with
  | Ok () -> ()
  | Error m -> Alcotest.failf "append run: %s" m);
  List.iter
    (fun id ->
      match Ledger.append_request ~path:file (rr id) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "append request: %s" m)
    [ "r1"; "r2" ];
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "{ damaged\n";
  close_out oc;
  (* The run reader keeps its own records, counts the request records
     as foreign (not skipped: they are well-formed, just not runs) and
     the damaged line as skipped. *)
  let r = Ledger.read_file file in
  check int_t "one run record" 1 (List.length r.Ledger.records);
  check string_t "run id survives" "deadbeef" (List.hd r.Ledger.records).Ledger.id;
  check int_t "request records are foreign, not damage" 2 r.Ledger.foreign;
  check int_t "damaged line skipped" 1 r.Ledger.skipped;
  (* The request reader is the mirror image. *)
  let rrs, skipped = Ledger.read_requests_file file in
  check
    (Alcotest.list string_t)
    "both request records read" [ "r1"; "r2" ]
    (List.map (fun x -> x.Ledger.rr_id) rrs);
  check int_t "run record and damage both skipped here" 2 skipped

(* ------------------------------------------------------------------ *)
(* The socket loop, end to end *)

let test_socket_roundtrip () =
  with_clean_telemetry @@ fun () ->
  let socket = Filename.temp_file "slocal_serve" ".sock" in
  Sys.remove socket;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
  @@ fun () ->
  let st = Serve.create () in
  let server = Domain.spawn (fun () -> Serve.serve ~socket st) in
  let conn = Serve.connect ~wait_s:5.0 ~socket () in
  let send obj =
    match Serve.roundtrip conn obj with
    | Ok j -> j
    | Error m -> Alcotest.failf "roundtrip: %s" m
  in
  let req kvs = Json.Obj kvs in
  let r = send (req [ ("op", Json.String "re"); ("problem", Json.String "col:3:2") ]) in
  check bool_t "work request over the socket ok" true (is_ok r);
  check bool_t "response carries per-request counters" true
    (counters_of r <> []);
  let s = send (req [ ("op", Json.String "stats") ]) in
  check bool_t "stats over the socket ok" true (is_ok s);
  (* The accept path ticks the out-of-window connection counter; the
     sum invariant must hold regardless. *)
  (match Option.bind (member "result" s) (member "counters_since_start") with
  | Some (Json.Obj kvs) ->
      check bool_t "connection counted outside any window" true
        (match List.assoc_opt "serve.connections" kvs with
        | Some (Json.Int n) -> n >= 1
        | _ -> false)
  | _ -> Alcotest.fail "stats missing counters_since_start");
  check bool_t "check_sum true over the socket" true
    (Option.bind (member "result" s) (boolean "check_sum") = Some true);
  let bye = send (req [ ("op", Json.String "shutdown") ]) in
  check bool_t "shutdown acknowledged" true (is_ok bye);
  Serve.disconnect conn;
  Domain.join server;
  check bool_t "daemon stopped" true (Serve.stopped st);
  check bool_t "socket file removed" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "warm re round-trip" `Quick test_re_warm_cache;
          Alcotest.test_case "unknown op and bad json" `Quick
            test_unknown_op_and_bad_json;
          Alcotest.test_case "failed work op records an error" `Quick
            test_work_op_error_record;
          Alcotest.test_case "metrics exposition" `Quick test_metrics_op;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "disjoint deltas sum to the global delta" `Quick
            test_request_isolation;
        ] );
      ( "capture",
        [
          Alcotest.test_case "20-request capture, ledger and replay" `Quick
            test_capture_replay_20;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "mixed run + request schemas" `Quick
            test_mixed_schema_ledger;
        ] );
      ( "socket",
        [
          Alcotest.test_case "serve loop end to end" `Quick
            test_socket_roundtrip;
        ] );
    ]
