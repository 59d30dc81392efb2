(** Trace analysis: parse an [slocal.trace/5] JSONL trace back into a
    span tree and compute a profile — per-span self vs. cumulative
    time {e and} self vs. cumulative allocation (with per-span GC-work
    deltas), counter-delta attribution, time- and bytes-weighted
    critical paths, top-k hotspot tables, the per-step provenance
    ("derivation log") table, and folded stacks (time- and
    bytes-weighted) for [flamegraph.pl]/speedscope.

    This is the read side of the observability stack: the CLI exposes
    it as [slocal trace report FILE] with human, [--alloc], [--json]
    (schema [slocal.profile/3]), [--folded] and [--folded-alloc]
    output.

    Damaged input degrades gracefully: unparsable lines are skipped
    and counted ({!Slocal_obs.Trace}), and spans whose close event is
    missing (a process killed mid-run) are closed synthetically at the
    trace's last timestamp and flagged. *)

val profile_schema_version : string
(** ["slocal.profile/3"]: /2 without the ["requests"] object. *)

type span = {
  id : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
  mutable alloc_b : int;  (** Cumulative bytes allocated in the span. *)
  mutable minor_n : int;  (** Minor collections during the span. *)
  mutable major_n : int;  (** Major collections during the span. *)
  mutable closed : bool;  (** [false]: close synthesized at EOF. *)
  mutable children : span list;
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
  attribution : (string * (string * int) list) list;
      (** Counter deltas between consecutive [counters] snapshots,
          charged to the span that was innermost-open at the later
          snapshot
          (["(toplevel)"] outside all spans) and summed per span
          name.  The trace carries no metric kinds, so gauges
          subtract like counters here; the unmodified final snapshot
          is in [final_counters]. *)
  provenance : provenance_step list;  (** In trace order. *)
  histograms : (string * Slocal_obs.Telemetry.Histogram.t) list;
}

val of_events : ?skipped:int -> Slocal_obs.Telemetry.event list -> t

val of_read_result : Slocal_obs.Trace.read_result -> t

val of_file : string -> t
(** @raise Sys_error when the file cannot be opened. *)

(** {1 Per-span measures} *)

val dur_ns : span -> int
(** Cumulative (inclusive) time. *)

val self_ns : span -> int
(** [dur_ns] minus the children's cumulative time, clamped at [0].  On
    well-formed traces the self times over a tree sum exactly to the
    root's cumulative time. *)

val self_alloc_b : span -> int
(** [alloc_b] minus the children's cumulative bytes, clamped at [0] —
    the exact allocation mirror of {!self_ns}.  On well-formed traces
    the self allocations over a tree sum exactly to the root's
    cumulative bytes. *)

val total_wall_ns : t -> int
(** Sum of the root spans' cumulative times. *)

val total_self_ns : t -> int
(** Sum of every span's self time; equals {!total_wall_ns} on
    well-formed traces. *)

val total_alloc_b : t -> int
(** Sum of the root spans' cumulative bytes. *)

val total_self_alloc_b : t -> int
(** Sum of every span's self allocation; equals {!total_alloc_b} on
    well-formed traces (the Σself-alloc = root-cumulative
    invariant). *)

(** {1 Aggregates} *)

type total = {
  agg_name : string;
  calls : int;
  cum_ns : int;
  self_total_ns : int;
  alloc_total_b : int;  (** Cumulative bytes (recursion double-counts). *)
  self_alloc_total_b : int;  (** Self bytes; always disjoint. *)
  minor_total_n : int;
  major_total_n : int;
  max_ns : int;
}

val totals : t -> total list
(** Per-span-name aggregates, descending by total self time.  Note [cum_ns]
    double-counts recursive occurrences of a name; self times are
    always disjoint. *)

val critical_path : t -> span list
(** Root-to-leaf chain following the heaviest child at each level,
    starting from the heaviest root; [[]] for an empty trace. *)

val critical_path_alloc : t -> span list
(** Same descent weighted by cumulative bytes instead of time: the
    chain a byte most likely came from. *)

(** {1 Folded stacks} *)

val folded : t -> (string * int) list
(** [("root;child;leaf", self_ns)] pairs, sorted by path — the
    collapsed-stack format consumed by [flamegraph.pl] and
    speedscope.  Zero-self spans are omitted. *)

val folded_alloc : t -> (string * int) list
(** Same collapsed-stack format weighted by {!self_alloc_b} bytes —
    feed it to [flamegraph.pl] for an allocation flamegraph.
    Zero-self-alloc spans are omitted. *)

val folded_to_string : (string * int) list -> string
(** One ["path value\n"] line per stack. *)

val parse_folded : string -> (string * int) list
(** Inverse of {!folded_to_string} (blank and malformed lines are
    skipped); output sorted by path. *)

(** {1 Rendering} *)

val to_json : source:string -> t -> Slocal_obs.Json.t
(** The [slocal.profile/3] document (see DESIGN.md §6). *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** The human report: summary line, hotspot table (top [top] rows,
    default 10), critical path, counter attribution, provenance table,
    histograms, final counters. *)

val pp_alloc : ?top:int -> Format.formatter -> t -> unit
(** The [--alloc] report: total-allocation summary with the
    Σself-alloc = root-cumulative check line, self/cumulative
    allocation hotspot table (by self bytes, with per-name GC-work
    counts) and allocation-weighted critical path. *)
