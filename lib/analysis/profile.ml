(* Trace analysis: span trees, self-time profiles, counter
   attribution, critical paths, provenance tables and folded stacks. *)

module Telemetry = Slocal_obs.Telemetry
module Trace = Slocal_obs.Trace
module Json = Slocal_obs.Json

let profile_schema_version = "slocal.profile/3"

(* staticcheck: per-call trace replay builds a fresh span table per parsed trace; never shared *)
type span = {
  id : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
  mutable alloc_b : int;
  mutable minor_n : int;
  mutable major_n : int;
  mutable closed : bool;
  mutable children : span list;  (* in open order *)
}

type provenance_step = {
  step : int;
  label : string;
  t_ns : int64;
  values : (string * int) list;
}

type t = {
  roots : span list;
  span_count : int;
  unclosed : int;
  event_count : int;
  skipped_lines : int;
  schema : string option;
  t_min : int64;
  t_max : int64;
  messages : (int64 * string) list;
  final_counters : (string * int) list;
      (* last counters event of the trace *)
  attribution : (string * (string * int) list) list;
      (* innermost-open-span name -> summed counter deltas between
         consecutive counters events *)
  provenance : provenance_step list;
  histograms : (string * Telemetry.Histogram.t) list;
}

let dur_ns s = Int64.to_int (Int64.sub s.t1 s.t0)

let self_ns s =
  let child = List.fold_left (fun a c -> a + dur_ns c) 0 s.children in
  max 0 (dur_ns s - child)

(* Allocation mirrors the time accounting exactly: cumulative bytes
   minus the children's cumulative bytes, clamped at 0, so the self
   allocations over a tree sum to the root's cumulative bytes. *)
let self_alloc_b s =
  let child = List.fold_left (fun a c -> a + c.alloc_b) 0 s.children in
  max 0 (s.alloc_b - child)

let rec iter_spans f s =
  f s;
  List.iter (iter_spans f) s.children

let fold_spans f acc t =
  let acc = ref acc in
  List.iter (iter_spans (fun s -> acc := f !acc s)) t.roots;
  !acc

(* ------------------------------------------------------------------ *)
(* Construction *)

let of_events ?(skipped = 0) events =
  let by_id : (int, span) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] and span_count = ref 0 in
  (* Open spans, innermost first, by event order. *)
  let open_stack = ref [] in
  let messages = ref [] in
  let final_counters = ref [] and prev_counters = ref [] in
  let attribution : (string, (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let provenance = ref [] in
  let histograms = ref [] in
  let schema = ref None in
  let t_min = ref Int64.max_int and t_max = ref Int64.min_int in
  let event_count = ref 0 in
  let see_t t =
    if Int64.compare t !t_min < 0 then t_min := t;
    if Int64.compare t !t_max > 0 then t_max := t
  in
  let attribute values =
    (* Counter deltas between consecutive snapshots are charged to the
       span that is innermost-open when the later snapshot is taken ("(toplevel)" outside all spans).
       Gauges subtract like counters here — the trace does not carry
       metric kinds — so last-value metrics show up as +/- swings; the
       final snapshot is reported separately and unmodified. *)
    let deltas =
      List.filter_map
        (fun (k, v) ->
          let d = v - Option.value ~default:0 (List.assoc_opt k !prev_counters) in
          if d <> 0 then Some (k, d) else None)
        values
    in
    prev_counters := values;
    if deltas <> [] then begin
      let owner =
        match !open_stack with [] -> "(toplevel)" | s :: _ -> s.name
      in
      let tbl =
        match Hashtbl.find_opt attribution owner with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            Hashtbl.add attribution owner tbl;
            tbl
      in
      List.iter
        (fun (k, d) ->
          Hashtbl.replace tbl k
            (d + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        deltas
    end
  in
  List.iter
    (fun ev ->
      incr event_count;
      match (ev : Telemetry.event) with
      | Telemetry.Trace_start { t_ns; _ } ->
          see_t t_ns;
          if !schema = None then schema := Some Trace.schema_version
      | Telemetry.Span_open { id; parent; name; t_ns } ->
          see_t t_ns;
          let s =
            {
              id;
              name;
              t0 = t_ns;
              t1 = t_ns;
              alloc_b = 0;
              minor_n = 0;
              major_n = 0;
              closed = false;
              children = [];
            }
          in
          incr span_count;
          Hashtbl.replace by_id id s;
          (match Option.bind parent (Hashtbl.find_opt by_id) with
          | Some p -> p.children <- p.children @ [ s ]
          | None -> roots := !roots @ [ s ]);
          open_stack := s :: !open_stack
      | Telemetry.Span_close { id; t_ns; alloc_b; minor_n; major_n; _ } ->
          see_t t_ns;
          (match Hashtbl.find_opt by_id id with
          | Some s ->
              s.t1 <- t_ns;
              s.alloc_b <- alloc_b;
              s.minor_n <- minor_n;
              s.major_n <- major_n;
              s.closed <- true
          | None -> ());
          open_stack := List.filter (fun s -> s.id <> id) !open_stack
      | Telemetry.Counters { t_ns; values } ->
          see_t t_ns;
          final_counters := values;
          attribute values
      | Telemetry.Histograms { t_ns; values } ->
          see_t t_ns;
          histograms := values
      | Telemetry.Provenance { t_ns; step; label; values } ->
          see_t t_ns;
          provenance := { step; label; t_ns; values } :: !provenance
      | Telemetry.Message { t_ns; text } ->
          see_t t_ns;
          messages := (t_ns, text) :: !messages)
    events;
  (* Spans the trace never closed (truncated runs): close them at the
     last timestamp seen so durations stay well-defined. *)
  let unclosed = ref 0 in
  let close_t = if Int64.compare !t_max Int64.min_int > 0 then !t_max else 0L in
  Hashtbl.iter
    (fun _ s ->
      if not s.closed then begin
        incr unclosed;
        s.t1 <- if Int64.compare close_t s.t0 > 0 then close_t else s.t0
      end)
    by_id;
  {
    roots = !roots;
    span_count = !span_count;
    unclosed = !unclosed;
    event_count = !event_count;
    skipped_lines = skipped;
    schema = !schema;
    t_min = (if Int64.compare !t_min Int64.max_int = 0 then 0L else !t_min);
    t_max = (if Int64.compare !t_max Int64.min_int = 0 then 0L else !t_max);
    messages = List.rev !messages;
    final_counters = !final_counters;
    attribution =
      Hashtbl.fold
        (fun owner tbl acc ->
          ( owner,
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
            |> List.sort compare )
          :: acc)
        attribution []
      |> List.sort compare;
    provenance = List.rev !provenance;
    histograms = !histograms;
  }

let of_read_result (r : Trace.read_result) =
  let p = of_events ~skipped:r.Trace.skipped r.Trace.events in
  { p with schema = r.Trace.schema }

let of_file path = of_read_result (Trace.read_file path)

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type total = {
  agg_name : string;
  calls : int;
  cum_ns : int;
  self_total_ns : int;
  alloc_total_b : int;
  self_alloc_total_b : int;
  minor_total_n : int;
  major_total_n : int;
  max_ns : int;
}

let totals t =
  let tbl : (string, total) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (iter_spans (fun s ->
         let d = dur_ns s and self = self_ns s in
         let prev =
           Option.value
             (Hashtbl.find_opt tbl s.name)
             ~default:
               {
                 agg_name = s.name;
                 calls = 0;
                 cum_ns = 0;
                 self_total_ns = 0;
                 alloc_total_b = 0;
                 self_alloc_total_b = 0;
                 minor_total_n = 0;
                 major_total_n = 0;
                 max_ns = 0;
               }
         in
         Hashtbl.replace tbl s.name
           {
             prev with
             calls = prev.calls + 1;
             cum_ns = prev.cum_ns + d;
             self_total_ns = prev.self_total_ns + self;
             alloc_total_b = prev.alloc_total_b + s.alloc_b;
             self_alloc_total_b = prev.self_alloc_total_b + self_alloc_b s;
             minor_total_n = prev.minor_total_n + s.minor_n;
             major_total_n = prev.major_total_n + s.major_n;
             max_ns = max prev.max_ns d;
           }))
    t.roots;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> compare b.self_total_ns a.self_total_ns)

let total_wall_ns t = List.fold_left (fun a r -> a + dur_ns r) 0 t.roots
let total_self_ns t = fold_spans (fun a s -> a + self_ns s) 0 t
let total_alloc_b t = List.fold_left (fun a r -> a + r.alloc_b) 0 t.roots
let total_self_alloc_b t = fold_spans (fun a s -> a + self_alloc_b s) 0 t

(* Descend by a span weight: heaviest root, then heaviest child at
   each level.  [critical_path] weighs by time, [critical_path_alloc]
   by cumulative bytes. *)
let critical_path_by weight t =
  let heaviest = function
    | [] -> None
    | l ->
        Some
          (List.fold_left
             (fun best s -> if weight s > weight best then s else best)
             (List.hd l) (List.tl l))
  in
  let rec down acc s =
    match heaviest s.children with
    | None -> List.rev (s :: acc)
    | Some c -> down (s :: acc) c
  in
  match heaviest t.roots with None -> [] | Some r -> down [] r

let critical_path t = critical_path_by dur_ns t
let critical_path_alloc t = critical_path_by (fun s -> s.alloc_b) t

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph.pl / speedscope "collapsed" format):
   one "root;child;leaf <self_ns>" line per distinct stack. *)

let folded_by weight t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go prefix s =
    let path = if prefix = "" then s.name else prefix ^ ";" ^ s.name in
    let self = weight s in
    if self > 0 then
      Hashtbl.replace tbl path
        (self + Option.value ~default:0 (Hashtbl.find_opt tbl path));
    List.iter (go path) s.children
  in
  List.iter (go "") t.roots;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let folded t = folded_by self_ns t

(* Bytes-weighted stacks: same collapsed format with self-allocation
   weights, so flamegraph.pl renders an alloc flamegraph directly. *)
let folded_alloc t = folded_by self_alloc_b t

let folded_to_string stacks =
  String.concat ""
    (List.map (fun (path, v) -> Printf.sprintf "%s %d\n" path v) stacks)

let parse_folded text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i -> (
               let path = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt v with
               | Some v -> Some (path, v)
               | None -> None))
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* JSON (schema slocal.profile/3) *)

let rec span_to_json s : Json.t =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("id", Json.Int s.id);
      ("t0_ns", Json.Int (Int64.to_int s.t0));
      ("dur_ns", Json.Int (dur_ns s));
      ("self_ns", Json.Int (self_ns s));
      ("alloc_b", Json.Int s.alloc_b);
      ("self_alloc_b", Json.Int (self_alloc_b s));
      ("minor_n", Json.Int s.minor_n);
      ("major_n", Json.Int s.major_n);
      ("truncated", Json.Bool (not s.closed));
      ("children", Json.List (List.map span_to_json s.children));
    ]

let int_obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let to_json ~source t : Json.t =
  Json.Obj
    [
      ("schema", Json.String profile_schema_version);
      ("source", Json.String source);
      ( "trace_schema",
        match t.schema with None -> Json.Null | Some s -> Json.String s );
      ("events", Json.Int t.event_count);
      ("skipped_lines", Json.Int t.skipped_lines);
      ("spans", Json.Int t.span_count);
      ("unclosed_spans", Json.Int t.unclosed);
      ("wall_ns", Json.Int (total_wall_ns t));
      ("alloc_b", Json.Int (total_alloc_b t));
      ("tree", Json.List (List.map span_to_json t.roots));
      ( "totals",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("name", Json.String a.agg_name);
                   ("calls", Json.Int a.calls);
                   ("cum_ns", Json.Int a.cum_ns);
                   ("self_ns", Json.Int a.self_total_ns);
                   ("alloc_b", Json.Int a.alloc_total_b);
                   ("self_alloc_b", Json.Int a.self_alloc_total_b);
                   ("minor_n", Json.Int a.minor_total_n);
                   ("major_n", Json.Int a.major_total_n);
                   ("max_ns", Json.Int a.max_ns);
                 ])
             (totals t)) );
      ( "critical_path",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("dur_ns", Json.Int (dur_ns s));
                   ("self_ns", Json.Int (self_ns s));
                   ("alloc_b", Json.Int s.alloc_b);
                 ])
             (critical_path t)) );
      ( "critical_path_alloc",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.name);
                   ("alloc_b", Json.Int s.alloc_b);
                   ("self_alloc_b", Json.Int (self_alloc_b s));
                 ])
             (critical_path_alloc t)) );
      ("counters", int_obj t.final_counters);
      ( "attribution",
        Json.Obj
          (List.map (fun (owner, kvs) -> (owner, int_obj kvs)) t.attribution)
      );
      ( "provenance",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("step", Json.Int p.step);
                   ("label", Json.String p.label);
                   ("t_ns", Json.Int (Int64.to_int p.t_ns));
                   ("values", int_obj p.values);
                 ])
             t.provenance) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, h) -> (k, Telemetry.histogram_to_json h))
             t.histograms) );
      ( "folded",
        Json.List
          (List.map
             (fun (path, v) ->
               Json.List [ Json.String path; Json.Int v ])
             (folded t)) );
      ( "folded_alloc",
        Json.List
          (List.map
             (fun (path, v) ->
               Json.List [ Json.String path; Json.Int v ])
             (folded_alloc t)) );
    ]

(* ------------------------------------------------------------------ *)
(* Human rendering *)

let pp_ns fmt ns = Telemetry.pp_duration fmt (Int64.of_int ns)

let pp_bytes fmt b =
  let f = float_of_int b in
  if f >= 1e9 then Format.fprintf fmt "%.2fGB" (f /. 1e9)
  else if f >= 1e6 then Format.fprintf fmt "%.2fMB" (f /. 1e6)
  else if f >= 1e3 then Format.fprintf fmt "%.2fkB" (f /. 1e3)
  else Format.fprintf fmt "%dB" b

(* Fixed-width cell from a boxed formatter, so tables align. *)
let cell pp v = Format.asprintf "%a" pp v

let pp_provenance fmt steps =
  (* The sequence emitter's field names, rendered as columns when
     present; unknown extra fields append as k=v. *)
  let columns =
    [
      ("hash", "hash");
      ("labels", "labels");
      ("white_configs", "whites");
      ("black_configs", "blacks");
      ("diagram_edges", "diag-edges");
      ("re_cache_hits", "cache-hits");
      ("re_cache_misses", "cache-miss");
      ("wall_ns", "wall");
    ]
  in
  Format.fprintf fmt "derivation log (provenance events):@.";
  Format.fprintf fmt "  %4s %-14s" "step" "label";
  List.iter (fun (_, h) -> Format.fprintf fmt " %10s" h) columns;
  Format.fprintf fmt "@.";
  List.iter
    (fun p ->
      Format.fprintf fmt "  %4d %-14s" p.step p.label;
      List.iter
        (fun (k, _) ->
          match List.assoc_opt k p.values with
          | None -> Format.fprintf fmt " %10s" "-"
          | Some v when k = "hash" -> Format.fprintf fmt " %10x" (v land 0xffffffff)
          | Some v when k = "wall_ns" -> Format.fprintf fmt " %10s" (cell pp_ns v)
          | Some v -> Format.fprintf fmt " %10d" v)
        columns;
      let extra =
        List.filter (fun (k, _) -> not (List.mem_assoc k columns)) p.values
      in
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%d" k v) extra;
      Format.fprintf fmt "@.")
    steps

let pp ?(top = 10) fmt t =
  Format.fprintf fmt "profile: %d events (%d line(s) skipped), %d spans"
    t.event_count t.skipped_lines t.span_count;
  if t.unclosed > 0 then
    Format.fprintf fmt " (%d unclosed — truncated trace)" t.unclosed;
  Format.fprintf fmt ", wall %a@." pp_ns (total_wall_ns t);
  (match t.messages with
  | [] -> ()
  | ms ->
      List.iter (fun (_, text) -> Format.fprintf fmt "  | %s@." text) ms);
  let tot = totals t in
  let wall = max 1 (total_wall_ns t) in
  Format.fprintf fmt "@.hotspots (by self time, top %d of %d):@." top
    (List.length tot);
  Format.fprintf fmt "  %-32s %6s %10s %10s %10s %6s@." "span" "calls" "self"
    "cum" "alloc" "self%";
  List.iteri
    (fun i a ->
      if i < top then
        Format.fprintf fmt "  %-32s %6d %10s %10s %10s %5.1f%%@." a.agg_name
          a.calls
          (cell pp_ns a.self_total_ns)
          (cell pp_ns a.cum_ns)
          (cell pp_bytes a.alloc_total_b)
          (100. *. float_of_int a.self_total_ns /. float_of_int wall))
    tot;
  (match critical_path t with
  | [] -> ()
  | path ->
      Format.fprintf fmt "@.critical path (heaviest child chain):@.";
      List.iteri
        (fun depth s ->
          Format.fprintf fmt "  %s%s %s (self %s)@."
            (String.make (2 * depth) ' ')
            s.name (cell pp_ns (dur_ns s))
            (cell pp_ns (self_ns s)))
        path);
  (match t.attribution with
  | [] -> ()
  | attr ->
      Format.fprintf fmt
        "@.counter attribution (deltas between snapshots, by innermost open \
         span):@.";
      List.iter
        (fun (owner, kvs) ->
          Format.fprintf fmt "  %s:@." owner;
          List.iter
            (fun (k, v) -> Format.fprintf fmt "    %-36s %+12d@." k v)
            kvs)
        attr);
  (match t.provenance with
  | [] -> ()
  | steps ->
      Format.fprintf fmt "@.";
      pp_provenance fmt steps);
  (match t.histograms with
  | [] -> ()
  | hists ->
      Format.fprintf fmt "@.histograms:@.";
      Format.fprintf fmt "  %-32s %8s %10s %10s %10s %10s@." "" "count" "mean"
        "p50" "p90" "max";
      List.iter
        (fun (k, h) ->
          Format.fprintf fmt "  %-32s %8d %10.0f %10d %10d %10d@." k
            (Telemetry.Histogram.count h)
            (Telemetry.Histogram.mean h)
            (Telemetry.Histogram.quantile h 0.5)
            (Telemetry.Histogram.quantile h 0.9)
            (Telemetry.Histogram.max_value h))
        hists);
  match t.final_counters with
  | [] -> ()
  | kvs ->
      Format.fprintf fmt "@.final counters:@.";
      List.iter (fun (k, v) -> Format.fprintf fmt "  %-36s %12d@." k v) kvs

let pp_alloc ?(top = 10) fmt t =
  let total = total_alloc_b t in
  let root_minor = List.fold_left (fun a r -> a + r.minor_n) 0 t.roots in
  let root_major = List.fold_left (fun a r -> a + r.major_n) 0 t.roots in
  Format.fprintf fmt
    "allocation profile: %a over %d spans, %d minor / %d major collection(s)@."
    pp_bytes total t.span_count root_minor root_major;
  Format.fprintf fmt "  self-allocation total %a = root cumulative %a@."
    pp_bytes (total_self_alloc_b t) pp_bytes total;
  let tot =
    totals t
    |> List.sort (fun a b -> compare b.self_alloc_total_b a.self_alloc_total_b)
  in
  let denom = max 1 total in
  Format.fprintf fmt "@.allocation hotspots (by self bytes, top %d of %d):@."
    top (List.length tot);
  Format.fprintf fmt "  %-32s %6s %10s %10s %6s %6s %6s@." "span" "calls"
    "self" "cum" "minor" "major" "self%";
  List.iteri
    (fun i a ->
      if i < top then
        Format.fprintf fmt "  %-32s %6d %10s %10s %6d %6d %5.1f%%@." a.agg_name
          a.calls
          (cell pp_bytes a.self_alloc_total_b)
          (cell pp_bytes a.alloc_total_b)
          a.minor_total_n a.major_total_n
          (100. *. float_of_int a.self_alloc_total_b /. float_of_int denom))
    tot;
  match critical_path_alloc t with
  | [] -> ()
  | path ->
      Format.fprintf fmt "@.allocation critical path (heaviest child chain):@.";
      List.iteri
        (fun depth s ->
          Format.fprintf fmt "  %s%s %s (self %s)@."
            (String.make (2 * depth) ' ')
            s.name
            (cell pp_bytes s.alloc_b)
            (cell pp_bytes (self_alloc_b s)))
        path
