let trace_schema_version = "slocal.trace/5"
let now_ns = Monotonic_clock.now

(* ------------------------------------------------------------------ *)
(* Metric handles.

   A metric is an interned (name, kind, slot) triple; the slot indexes
   into the registry's value array, so the hot-path write is one array
   store. *)

type metric_kind = Counter | Gauge
type metric = { m_name : string; m_kind : metric_kind; m_slot : int }

(* staticcheck: shared-cache-needs-lock process-wide interning registry; filled at module init and on first use *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* staticcheck: shared-cache-needs-lock metric slot -> value; grown when a metric registers past its end *)
let values = ref (Array.make 64 0)

let register m_name m_kind =
  match Hashtbl.find_opt registry m_name with
  | Some m -> m
  | None ->
      (* Slots are handed out densely, one per registered name. *)
      let m = { m_name; m_kind; m_slot = Hashtbl.length registry } in
      let n = Array.length !values in
      if m.m_slot >= n then begin
        let bigger = Array.make (2 * n) 0 in
        Array.blit !values 0 bigger 0 n;
        values := bigger
      end;
      Hashtbl.add registry m_name m;
      m

let counter name = register name Counter
let gauge name = register name Gauge
let kind m = m.m_kind
let name m = m.m_name

let metrics_list () =
  Hashtbl.fold (fun _ m acc -> m :: acc) registry []
  |> List.sort (fun a b -> compare a.m_name b.m_name)

let kind_of_name nm = Option.map (fun m -> m.m_kind) (Hashtbl.find_opt registry nm)
let incr m = !values.(m.m_slot) <- !values.(m.m_slot) + 1
let add m n = !values.(m.m_slot) <- !values.(m.m_slot) + n
let set m v = !values.(m.m_slot) <- v
let value m = !values.(m.m_slot)
let snapshot () = List.map (fun m -> (m.m_name, value m)) (metrics_list ())

let kinds_snapshot () =
  List.map (fun m -> (m.m_name, m.m_kind, value m)) (metrics_list ())

let nonzero_snapshot () = List.filter (fun (_, v) -> v <> 0) (snapshot ())

let delta ~before ~after =
  List.filter_map
    (fun (nm, av) ->
      let k = Option.value (kind_of_name nm) ~default:Counter in
      let v =
        match k with
        | Gauge -> av
        | Counter -> av - Option.value (List.assoc_opt nm before) ~default:0
      in
      if v <> 0 then Some (nm, v) else None)
    after

(* Histograms *)

module Histogram = struct
  (* Log-bucketed (base 2): bucket 0 holds values <= 0, bucket i >= 1
     holds [2^(i-1), 2^i - 1].  63 value buckets cover the positive
     int range; exact count/sum/min/max ride along so means are exact
     and quantile estimates clamp to the observed range. *)
  let bucket_count = 64

  (* staticcheck: per-call every histogram instance is owned by the registry or by one caller's copy *)
  type t = {
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;
    mutable h_max : int;
    h_buckets : int array;
  }

  let create () =
    {
      h_count = 0;
      h_sum = 0;
      h_min = max_int;
      h_max = min_int;
      h_buckets = Array.make bucket_count 0;
    }

  let bucket_of_value v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 and v = ref v in
      while !v <> 0 do
        Stdlib.incr bits;
        v := !v lsr 1
      done;
      min (bucket_count - 1) !bits
    end

  let bucket_bounds i =
    if i = 0 then (min_int, 0)
    else if i >= bucket_count - 1 then (1 lsl (bucket_count - 2), max_int)
    else (1 lsl (i - 1), (1 lsl i) - 1)

  let record h v =
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of_value v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let is_empty h = h.h_count = 0
  let min_value h = if is_empty h then 0 else h.h_min
  let max_value h = if is_empty h then 0 else h.h_max

  let mean h =
    if is_empty h then 0. else float_of_int h.h_sum /. float_of_int h.h_count

  let reset h =
    h.h_count <- 0;
    h.h_sum <- 0;
    h.h_min <- max_int;
    h.h_max <- min_int;
    Array.fill h.h_buckets 0 bucket_count 0

  let copy h =
    {
      h_count = h.h_count;
      h_sum = h.h_sum;
      h_min = h.h_min;
      h_max = h.h_max;
      h_buckets = Array.copy h.h_buckets;
    }

  let merge a b =
    let t = copy a in
    t.h_count <- a.h_count + b.h_count;
    t.h_sum <- a.h_sum + b.h_sum;
    t.h_min <- min a.h_min b.h_min;
    t.h_max <- max a.h_max b.h_max;
    Array.iteri (fun i n -> t.h_buckets.(i) <- a.h_buckets.(i) + n) b.h_buckets;
    t

  let equal a b =
    a.h_count = b.h_count && a.h_sum = b.h_sum
    && (is_empty a || (a.h_min = b.h_min && a.h_max = b.h_max))
    && a.h_buckets = b.h_buckets

  let quantile h q =
    if is_empty h then 0
    else if q <= 0. then min_value h
    else if q >= 1. then max_value h
    else begin
      let rank =
        max 1 (min h.h_count (int_of_float (ceil (q *. float_of_int h.h_count))))
      in
      let cum = ref 0 and result = ref (max_value h) in
      (try
         for i = 0 to bucket_count - 1 do
           cum := !cum + h.h_buckets.(i);
           if !cum >= rank then begin
             result := snd (bucket_bounds i);
             raise Exit
           end
         done
       with Exit -> ());
      max (min_value h) (min (max_value h) !result)
    end

  let nonempty_buckets h =
    List.filter
      (fun (_, n) -> n > 0)
      (List.init bucket_count (fun i -> (i, h.h_buckets.(i))))

  let of_buckets ~count ~sum ~min_value ~max_value buckets =
    let h = create () in
    h.h_count <- count;
    h.h_sum <- sum;
    if count > 0 then begin
      h.h_min <- min_value;
      h.h_max <- max_value
    end;
    List.iter
      (fun (i, n) ->
        if i < 0 || i >= bucket_count then
          invalid_arg "Histogram.of_buckets: bucket index out of range";
        h.h_buckets.(i) <- h.h_buckets.(i) + n)
      buckets;
    h
end

(* staticcheck: shared-cache-needs-lock named histograms, interned on first use *)
let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

let histogram name =
  match Hashtbl.find_opt hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add hists name h;
      h

let histogram_snapshot () =
  Hashtbl.fold
    (fun nm h acc ->
      if Histogram.is_empty h then acc else (nm, Histogram.copy h) :: acc)
    hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset_metrics () =
  Array.fill !values 0 (Array.length !values) 0;
  (* staticcheck: domain-safe order-insensitive: every histogram is reset independently *)
  Hashtbl.iter (fun _ h -> Histogram.reset h) hists

(* ------------------------------------------------------------------ *)
(* GC gauges.  Sampled only while a sink is installed (span
   boundaries) or on explicit request, so the null-sink fast path
   never calls [Gc.quick_stat]. *)

let g_gc_minor = gauge "gc.minor_collections"
let g_gc_major = gauge "gc.major_collections"
let g_gc_compactions = gauge "gc.compactions"
let g_gc_heap_words = gauge "gc.heap_words"
let g_gc_top_heap_words = gauge "gc.top_heap_words"
let g_gc_allocated_bytes = gauge "gc.allocated_bytes"
let g_gc_minor_words = gauge "gc.minor_words"
let g_gc_promoted_words = gauge "gc.promoted_words"
let g_gc_major_words = gauge "gc.major_words"

let set_gc_gauges (s : Gc.stat) =
  set g_gc_minor s.Gc.minor_collections;
  set g_gc_major s.Gc.major_collections;
  set g_gc_compactions s.Gc.compactions;
  set g_gc_heap_words s.Gc.heap_words;
  set g_gc_top_heap_words s.Gc.top_heap_words;
  set g_gc_allocated_bytes (int_of_float (Gc.allocated_bytes ()));
  (* [Gc.counters] is the precise word accounting — exact where
     quick_stat's word fields may lag the current minor heap. *)
  let minor_w, promoted_w, major_w = Gc.counters () in
  set g_gc_minor_words (int_of_float minor_w);
  set g_gc_promoted_words (int_of_float promoted_w);
  set g_gc_major_words (int_of_float major_w)

let sample_gc () = set_gc_gauges (Gc.quick_stat ())

(* ------------------------------------------------------------------ *)
(* Major-cycle monitor.  While a sink is installed, a [Gc.create_alarm]
   hook fires at the end of every major GC cycle: it bumps the
   [gc.majors] counter and records the time since the previous cycle's
   end into the [gc.major_interval_ns] histogram.  That is the spacing
   of major cycles, not their pause time.  With the null sink no alarm
   exists and the hot path pays nothing. *)

let c_gc_majors = counter "gc.majors"

(* staticcheck: immutable-after-init major-cycle alarm handle; installed and deleted only by set_sink *)
let gc_alarm : Gc.alarm option ref = ref None

let install_gc_alarm () =
  if !gc_alarm = None then begin
    (* The inter-cycle clock starts at install time, so the first
       interval measures from monitor start, not process start. *)
    let last = ref (now_ns ()) in
    gc_alarm :=
      Some
        (Gc.create_alarm (fun () ->
             let t = now_ns () in
             let dt = Int64.to_int (Int64.sub t !last) in
             last := t;
             incr c_gc_majors;
             Histogram.record (histogram "gc.major_interval_ns") dt))
  end

let remove_gc_alarm () =
  match !gc_alarm with
  | None -> ()
  | Some a ->
      Gc.delete_alarm a;
      gc_alarm := None

(* ------------------------------------------------------------------ *)
(* Events and sinks *)

type event =
  | Trace_start of { t_ns : int64 }
  | Span_open of { id : int; parent : int option; name : string; t_ns : int64 }
  | Span_close of {
      id : int;
      name : string;
      t_ns : int64;
      dur_ns : int64;
      alloc_b : int;
      minor_n : int;
      major_n : int;
    }
  | Counters of { t_ns : int64; values : (string * int) list }
  | Histograms of { t_ns : int64; values : (string * Histogram.t) list }
  | Provenance of {
      t_ns : int64;
      step : int;
      label : string;
      values : (string * int) list;
    }
  | Message of { t_ns : int64; text : string }

type sink = Null | Emit of { emit : event -> unit; flush : unit -> unit }

let null_sink = Null
let collector_sink f = Emit { emit = f; flush = ignore }

let current = ref Null (* staticcheck: immutable-after-init sink slot; replaced only by set_sink, outside any span *)
let enabled () = match !current with Null -> false | Emit _ -> true
let emit ev = match !current with Null -> () | Emit e -> e.emit ev

(* Flushing must be an idempotent no-op whatever state the sink is in:
   the at_exit safety net below can run after a CLI wrapper already
   flushed and closed the underlying channel, and a double flush must
   not duplicate or truncate the trailing record.  The buffer holds
   only complete lines, so a swallowed [Sys_error] from a closed
   channel can never leave a partial record behind. *)
let flush_sink () =
  match !current with Null -> () | Emit e -> ( try e.flush () with _ -> ())

let set_sink s =
  (* Drain the outgoing sink first so buffered events reach their own
     trace, not the next one's channel. *)
  flush_sink ();
  current := s;
  match s with
  | Null -> remove_gc_alarm ()
  | Emit e ->
      install_gc_alarm ();
      e.emit (Trace_start { t_ns = now_ns () })

(* Safety net: if the process exits (node-budget abort, uncaught
   exception, plain [exit]) while a sink is still installed, push any
   buffered output through.  Registered at module load, so it runs
   after every later [at_exit] (LIFO): a CLI wrapper that tears its
   sink down first leaves this a no-op. *)
let () = at_exit flush_sink (* staticcheck: domain-safe registered once at module init; flush_sink is idempotent and total *)

(* ------------------------------------------------------------------ *)
(* Spans *)

let next_id = ref 0 (* staticcheck: shared-cache-needs-lock span-id allocator; process-unique ids *)
let open_spans : int list ref = ref [] (* staticcheck: per-call ids of the currently open spans, innermost first *)

let span nm f =
  match !current with
  | Null -> f ()
  | Emit _ ->
      let id = !next_id in
      next_id := id + 1;
      let q0 = Gc.quick_stat () in
      set_gc_gauges q0;
      let a0 = Gc.allocated_bytes () in
      let t0 = now_ns () in
      let parent = match !open_spans with [] -> None | pid :: _ -> Some pid in
      emit (Span_open { id; parent; name = nm; t_ns = t0 });
      open_spans := id :: !open_spans;
      let finish () =
        (match !open_spans with
        | id' :: rest when id' = id -> open_spans := rest
        | _ -> ());
        let t1 = now_ns () in
        let dur_ns = Int64.sub t1 t0 in
        let alloc_b = int_of_float (Gc.allocated_bytes () -. a0) in
        let q1 = Gc.quick_stat () in
        set_gc_gauges q1;
        let minor_n = q1.Gc.minor_collections - q0.Gc.minor_collections in
        let major_n = q1.Gc.major_collections - q0.Gc.major_collections in
        Histogram.record (histogram ("span." ^ nm)) (Int64.to_int dur_ns);
        emit
          (Span_close
             { id; name = nm; t_ns = t1; dur_ns; alloc_b; minor_n; major_n });
        (* A top-level close is a natural crash-consistency point:
           hand the buffered lines to the writer. *)
        if !open_spans = [] then flush_sink ()
      in
      Fun.protect ~finally:finish f

let emit_counters () =
  if enabled () then
    emit (Counters { t_ns = now_ns (); values = nonzero_snapshot () })

let emit_histograms () =
  if enabled () then begin
    match histogram_snapshot () with
    | [] -> ()
    | values -> emit (Histograms { t_ns = now_ns (); values })
  end

let provenance ~step ~label values =
  if enabled () then emit (Provenance { t_ns = now_ns (); step; label; values })

let message text = if enabled () then emit (Message { t_ns = now_ns (); text })

(* ------------------------------------------------------------------ *)
(* Rendering *)

let histogram_to_json h : Json.t =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("sum", Json.Int (Histogram.sum h));
      ("min", Json.Int (Histogram.min_value h));
      ("max", Json.Int (Histogram.max_value h));
      ( "buckets",
        Json.List
          (List.map
             (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
             (Histogram.nonempty_buckets h)) );
    ]

let histogram_of_json j =
  let int_field k =
    match Option.bind (Json.member k j) Json.as_int with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "histogram: missing int field %S" k)
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let* count = int_field "count" in
  let* sum = int_field "sum" in
  let* min_value = int_field "min" in
  let* max_value = int_field "max" in
  let* buckets =
    match Option.bind (Json.member "buckets" j) Json.as_list with
    | None -> Error "histogram: missing \"buckets\" list"
    | Some l ->
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            match Json.as_list b with
            | Some [ i; n ] -> (
                match (Json.as_int i, Json.as_int n) with
                | Some i, Some n -> Ok ((i, n) :: acc)
                | _ -> Error "histogram: non-integer bucket entry")
            | _ -> Error "histogram: bucket entry is not a pair")
          (Ok []) l
  in
  match Histogram.of_buckets ~count ~sum ~min_value ~max_value buckets with
  | h -> Ok h
  | exception Invalid_argument msg -> Error msg

let event_to_json ev : Json.t =
  let t ns = ("t_ns", Json.Int (Int64.to_int ns)) in
  match ev with
  | Trace_start { t_ns } ->
      Json.Obj
        [
          ("schema", Json.String trace_schema_version);
          ("kind", Json.String "trace_start");
          t t_ns;
        ]
  | Span_open { id; parent; name; t_ns } ->
      Json.Obj
        [
          ("kind", Json.String "span_open");
          ("id", Json.Int id);
          ( "parent",
            match parent with None -> Json.Null | Some p -> Json.Int p );
          ("name", Json.String name);
          t t_ns;
        ]
  | Span_close { id; name; t_ns; dur_ns; alloc_b; minor_n; major_n } ->
      Json.Obj
        [
          ("kind", Json.String "span_close");
          ("id", Json.Int id);
          ("name", Json.String name);
          t t_ns;
          ("dur_ns", Json.Int (Int64.to_int dur_ns));
          ("alloc_b", Json.Int alloc_b);
          ("minor_n", Json.Int minor_n);
          ("major_n", Json.Int major_n);
        ]
  | Counters { t_ns; values } ->
      Json.Obj
        [
          ("kind", Json.String "counters");
          t t_ns;
          ( "values",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values) );
        ]
  | Histograms { t_ns; values } ->
      Json.Obj
        [
          ("kind", Json.String "histograms");
          t t_ns;
          ( "values",
            Json.Obj (List.map (fun (k, h) -> (k, histogram_to_json h)) values)
          );
        ]
  | Provenance { t_ns; step; label; values } ->
      Json.Obj
        [
          ("kind", Json.String "provenance");
          t t_ns;
          ("step", Json.Int step);
          ("label", Json.String label);
          ( "values",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) values) );
        ]
  | Message { t_ns; text } ->
      Json.Obj
        [ ("kind", Json.String "message"); t t_ns; ("text", Json.String text) ]

(* How many pending bytes the sink accumulates before writing them out:
   large enough to amortize the syscall, small enough that a killed
   run loses at most a few KB. *)
let flush_threshold = 8192

let jsonl_sink oc =
  (* Both channel operations tolerate a closed channel: a CLI teardown
     path may close [oc] before the module-level [at_exit] flush runs,
     and emits raced against teardown must not crash the instrumented
     code.  The buffer holds only complete lines, so a swallowed
     [Sys_error] can never leave a partial record behind. *)
  let buf = Buffer.create 256 in
  let write () =
    if Buffer.length buf > 0 then begin
      (try
         Buffer.output_buffer oc buf;
         flush oc
       with Sys_error _ -> ());
      Buffer.clear buf
    end
  in
  Emit
    {
      emit =
        (fun ev ->
          Buffer.add_string buf (Json.to_string (event_to_json ev));
          Buffer.add_char buf '\n';
          if Buffer.length buf >= flush_threshold then write ());
      flush =
        (fun () ->
          write ();
          try flush oc with Sys_error _ -> ());
    }

let pp_duration fmt ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Format.fprintf fmt "%.2fs" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf fmt "%.2fms" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf fmt "%.2fµs" (f /. 1e3)
  else Format.fprintf fmt "%Ldns" ns

let stderr_sink () =
  (* Human-facing live tree. *)
  let depth = ref 0 in
  let indent () = String.make (2 * !depth) ' ' in
  Emit
    {
      flush = (fun () -> Printf.eprintf "%!");
      emit =
        (fun ev ->
          match ev with
          | Trace_start _ -> Printf.eprintf "[obs] trace start\n%!"
          | Span_open { name; _ } ->
              Printf.eprintf "[obs] %s> %s\n%!" (indent ()) name;
              depth := !depth + 1
          | Span_close { name; dur_ns; alloc_b; minor_n; major_n; _ } ->
              depth := max 0 (!depth - 1);
              Printf.eprintf "[obs] %s< %s %s (%dB, %d minor / %d major)\n%!"
                (indent ()) name
                (Format.asprintf "%a" pp_duration dur_ns)
                alloc_b minor_n major_n
          | Counters { values; _ } ->
              Printf.eprintf "[obs] counters:\n";
              List.iter
                (fun (k, v) -> Printf.eprintf "[obs]   %-36s %12d\n" k v)
                values;
              Printf.eprintf "%!"
          | Histograms { values; _ } ->
              Printf.eprintf "[obs] histograms:\n";
              List.iter
                (fun (k, h) ->
                  Printf.eprintf "[obs]   %-36s n=%d mean=%.0f p90=%d max=%d\n"
                    k (Histogram.count h) (Histogram.mean h)
                    (Histogram.quantile h 0.9)
                    (Histogram.max_value h))
                values;
              Printf.eprintf "%!"
          | Provenance { step; label; values; _ } ->
              Printf.eprintf "[obs] step %d %s:%s\n%!" step label
                (String.concat ""
                   (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) values))
          | Message { text; _ } -> Printf.eprintf "[obs] %s\n%!" text);
    }

let pp_summary fmt () =
  let values = nonzero_snapshot () in
  if values = [] then Format.fprintf fmt "no telemetry counters recorded@."
  else begin
    Format.fprintf fmt "telemetry counters:@.";
    List.iter
      (fun (k, v) ->
        let suffix =
          match kind_of_name k with Some Gauge -> "  (gauge)" | _ -> ""
        in
        Format.fprintf fmt "  %-36s %12d%s@." k v suffix)
      values
  end;
  match histogram_snapshot () with
  | [] -> ()
  | hists ->
      Format.fprintf fmt "telemetry histograms:@.";
      Format.fprintf fmt "  %-36s %8s %10s %10s %10s %10s@." "" "count" "mean"
        "p50" "p90" "max";
      List.iter
        (fun (k, h) ->
          Format.fprintf fmt "  %-36s %8d %10.0f %10d %10d %10d@." k
            (Histogram.count h) (Histogram.mean h)
            (Histogram.quantile h 0.5)
            (Histogram.quantile h 0.9)
            (Histogram.max_value h))
        hists
