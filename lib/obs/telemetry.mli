(** Structured telemetry: monotonic-clock spans, named counters,
    gauges and histograms, and pluggable sinks — recorded into one
    process-wide registry.

    The expensive kernels of this repository — the backtracking solver,
    the RE operator, the lift construction, the exhaustive zero-round
    search, graph generation — are instrumented with {e metrics}
    (always-on, one array store each) and {e spans} (emitted only
    when a sink is installed).  The default sink is {!null_sink}:
    spans reduce to a single branch and a direct call of the wrapped
    thunk, so the instrumented hot paths pay nothing measurable —
    histogram recording and GC sampling happen only inside the
    sink-installed branch.

    The registry holds one value cell per metric, one table of named
    histograms, the stack of open spans and the current sink.  It is
    not synchronized: the library runs on a single OCaml domain.

    Sinks receive a stream of {!event} values:

    - {!stderr_sink} renders an indented live span tree to stderr;
    - {!jsonl_sink} writes one JSON object per line (the
      [slocal.trace/5] schema, documented in DESIGN.md) through one
      buffered writer;
    - {!collector_sink} hands events to a callback (used by tests).

    {b Request windows}.  A long-lived process ({!Slocal_serve}'s
    [slocal serve] daemon) wraps each unit of work in
    {!with_request}: events serialized inside the window carry the
    request id (the optional [req] trace field) and the
    returned {!request_summary} reports the window's own counter
    deltas, wall time and allocation — computed from registry
    snapshots, so global totals and the live OpenMetrics registry
    stay exact. *)

(** {1 Metrics} *)

type metric_kind =
  | Counter  (** Monotone accumulation; reported as deltas. *)
  | Gauge  (** Last-value semantics; reported as the latest value. *)

type metric

val counter : string -> metric
(** [counter name] interns a counter in the global registry.  Calling
    it twice with the same name returns the same metric.  Names are
    dot-namespaced by convention ([solver.nodes]). *)

val gauge : string -> metric
(** Like {!counter} with last-value semantics.  If the name is already
    registered, the existing metric (and its kind) wins. *)

val incr : metric -> unit
val add : metric -> int -> unit

val set : metric -> int -> unit
(** Overwrite the metric's value ([set m 0] resets a counter). *)

val value : metric -> int

val kind : metric -> metric_kind
val name : metric -> string

val snapshot : unit -> (string * int) list
(** All registered metrics with their values, sorted by name. *)

val kinds_snapshot : unit -> (string * metric_kind * int) list
(** Like {!snapshot} but carrying each metric's kind, for exporters
    that render counters and gauges differently (OpenMetrics, the run
    ledger). *)

val nonzero_snapshot : unit -> (string * int) list

val delta :
  before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-metric change between two {!snapshot}s: counters subtract,
    gauges take the [after] value; zero entries are dropped.  Metrics
    absent from [before] count from 0. *)

val reset_metrics : unit -> unit
(** Zero every metric and histogram (tests and long-running
    harnesses). *)

(** {1 Histograms}

    Log-bucketed (base 2) integer distributions: bucket [0] holds
    values [<= 0] and bucket [i >= 1] holds the range
    [[2^(i-1), 2^i - 1]], so 63 value buckets cover the positive [int]
    range.  Exact count, sum, min and max ride along, making the mean
    exact and clamping quantile estimates to the observed range. *)

module Histogram : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  val count : t -> int
  val sum : t -> int
  val is_empty : t -> bool

  val min_value : t -> int
  (** Smallest recorded value ([0] when empty). *)

  val max_value : t -> int
  val mean : t -> float

  val quantile : t -> float -> int
  (** [quantile h q] estimates the [q]-quantile: the upper bound of
      the bucket containing the rank-[⌈q·count⌉] value, clamped to
      [[min_value, max_value]].  Exact at [q <= 0] (min) and [q >= 1]
      (max); monotone in [q]; [0] when empty. *)

  val merge : t -> t -> t
  (** Pointwise bucket sum (fresh histogram; arguments unchanged).
      Associative and commutative up to {!equal}. *)

  val equal : t -> t -> bool

  val reset : t -> unit
  val copy : t -> t

  val bucket_of_value : int -> int
  val bucket_bounds : int -> int * int
  (** Inclusive [lo, hi] range of a bucket index. *)

  val nonempty_buckets : t -> (int * int) list
  (** [(bucket_index, count)] pairs, ascending, zero entries dropped. *)

  val of_buckets :
    count:int -> sum:int -> min_value:int -> max_value:int ->
    (int * int) list -> t
  (** Rebuild a histogram from its serialized parts (trace parsing).
      @raise Invalid_argument on out-of-range bucket indices. *)
end

val histogram : string -> Histogram.t
(** Intern a histogram in the registry (same-name calls return the
    same instance).  Span
    durations are recorded automatically into [span.<name>] histograms
    while a sink is installed. *)

val histogram_snapshot : unit -> (string * Histogram.t) list
(** All non-empty histograms, sorted by name.  The returned
    histograms are fresh copies — safe to keep. *)

(** {1 Request windows} *)

type request_summary = {
  rq_id : string;
  rq_wall_ns : int64;  (** Wall time of the window (monotonic). *)
  rq_alloc_b : int;
      (** Bytes allocated inside the window ([Gc.allocated_bytes]
          delta). *)
  rq_counters : (string * int) list;
      (** Non-zero {e counter} deltas attributable to the window,
          sorted by name. *)
  rq_gauges : (string * int) list;
      (** Non-zero gauge values at window close (last-value
          semantics: gauges do not subtract). *)
}

val with_request : id:string -> (unit -> 'a) -> 'a * request_summary
(** [with_request ~id f] runs [f ()] inside a request window: the
    global registry snapshot is taken at open and close and their
    {!delta} becomes the summary's counter list; every event
    serialized while the window is open carries [id] in the optional
    [req] trace field; the body runs under a [request] span and bumps
    the [request.count] counter {e inside} the window.  Windows are
    process-global and must not overlap (the serve daemon handles one
    request at a time) — that non-overlap is what makes per-request counter
    deltas disjoint and their sum equal to the global delta.  The id
    is cleared on exceptions too; the exception still propagates. *)

val current_request : unit -> string option
(** The id of the currently open request window, if any. *)

(** {1 GC gauges} *)

val sample_gc : unit -> unit
(** Refresh the [gc.*] gauges ([minor_collections],
    [major_collections], [compactions], [heap_words],
    [top_heap_words], [allocated_bytes]) from [Gc.quick_stat], plus
    the precise word accounting ([minor_words],
    [promoted_words], [major_words]) from [Gc.counters].  Called
    automatically at span boundaries while a sink is installed; call
    it directly before reading a summary elsewhere. *)

(** {1 Clock} *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds from an arbitrary origin
    ([CLOCK_MONOTONIC] via bechamel's stub). *)

(** {1 Events and sinks} *)

type event =
  | Trace_start of { t_ns : int64 }
      (** Emitted automatically when a non-null sink is installed; the
          JSONL rendering carries the schema version. *)
  | Span_open of { id : int; parent : int option; name : string; t_ns : int64 }
  | Span_close of {
      id : int;
      name : string;
      t_ns : int64;
      dur_ns : int64;
      alloc_b : int;
          (** Bytes allocated (minor + major) while the span was open,
              from [Gc.allocated_bytes] deltas. *)
      minor_n : int;
          (** Minor collections finished while the span was open
              ([Gc.quick_stat] deltas). *)
      major_n : int;
          (** Major collections finished while the span was open. *)
    }
  | Counters of { t_ns : int64; values : (string * int) list }
  | Histograms of { t_ns : int64; values : (string * Histogram.t) list }
      (** Snapshot copies of the non-empty histograms. *)
  | Provenance of {
      t_ns : int64;
      step : int;
      label : string;
      values : (string * int) list;
    }
      (** A derivation-log record: one per RE iteration of a
          lower-bound sequence (see {!Slocal_formalism.Sequence}). *)
  | Message of { t_ns : int64; text : string }

type sink

val null_sink : sink
val stderr_sink : unit -> sink

val jsonl_sink : out_channel -> sink
(** One JSON object per line.  Lines are buffered and written out
    when the buffer passes a size threshold, when the outermost span
    closes, and on {!flush_sink} — so a trace file always ends on a
    line boundary.  The caller owns (and closes) the
    channel.  As a safety net, a module-level [at_exit] hook flushes
    whatever sink is still installed when the process exits (budget
    aborts, uncaught exceptions). *)

val collector_sink : (event -> unit) -> sink
(** Hand events to a callback (used by tests). *)

val set_sink : sink -> unit
(** Flush and replace the current sink and, when the new sink is
    non-null, emit {!Trace_start} to it.  Install sinks outside of any
    open span.

    Installing a non-null sink also starts the {e major-cycle
    monitor}: a [Gc.create_alarm] hook that bumps the [gc.majors]
    counter at the end of every major GC cycle and records the time
    since the previous cycle's end into the [gc.major_interval_ns]
    histogram (the spacing of major cycles, not their pause time).  Installing {!null_sink} deletes
    the alarm, so the monitor (like spans) is free when telemetry is
    off. *)

val enabled : unit -> bool
(** [true] iff the current sink is not {!null_sink}. *)

val flush_sink : unit -> unit
(** Flush the current sink's pending buffer.  Idempotent and total: a
    null sink, an already-flushed sink and a sink whose channel has
    been closed are all no-ops (never an exception, never a duplicated
    or truncated trailing record).  The module-level [at_exit] safety
    net is exactly this call. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()].  With a null sink this is just the
    call; otherwise a {!Span_open}/{!Span_close} pair brackets it
    (closed on exceptions too), nested spans recording their parent,
    the duration is recorded into the [span.<name>] histogram, the
    allocation delta is attached to the close event, and the [gc.*]
    gauges are refreshed at both boundaries.  Span ids are
    process-unique. *)

val emit_counters : unit -> unit
(** Send a {!Counters} event with the non-zero metrics to the sink
    (no-op when disabled). *)

val emit_histograms : unit -> unit
(** Send a {!Histograms} event with copies of the non-empty
    histograms (no-op when disabled or when all histograms are
    empty). *)

val provenance : step:int -> label:string -> (string * int) list -> unit
(** Send a {!Provenance} event (no-op when disabled). *)

val message : string -> unit
(** Send a free-form {!Message} event (no-op when disabled). *)

(** {1 Rendering} *)

val trace_schema_version : string
(** ["slocal.trace/5"]: spans with allocation and GC-work deltas on
    every [span_close], plus an optional [req] request-id field on
    every event serialized inside a {!with_request} window.  The
    {!Slocal_obs.Trace} reader accepts only this version. *)

val event_to_json : event -> Json.t
(** The JSONL line for an event (see DESIGN.md for the schema). *)

val histogram_to_json : Histogram.t -> Json.t
val histogram_of_json : Json.t -> (Histogram.t, string) result

val pp_duration : Format.formatter -> int64 -> unit
(** Nanoseconds, human-scaled ([421ns], [1.23ms], [2.07s]). *)

val pp_summary : Format.formatter -> unit -> unit
(** A sorted table of the non-zero metrics (gauges marked) followed by
    a quantile table of the non-empty histograms, or a placeholder
    line when nothing was recorded. *)
