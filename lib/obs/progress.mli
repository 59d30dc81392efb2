(** Throttled live-progress heartbeat for long-horizon runs.

    Emits single [\[progress\] ...] lines to stderr (never stdout) at
    most once per interval (default 500ms).  The library default mode
    is {!Off}: instrumented kernels are silent unless the CLI opts the
    current command in with {!set_mode} — [Auto] for "on when stderr
    is a TTY" (the interactive default of the kernel-facing
    subcommands), [Forced] for the [--progress] flag, which emits even
    when redirected (CI smoke, piped runs).

    All heartbeat sources throttle through one last-emit timestamp,
    and every suppressed tick counts into [progress.dropped]. *)

type mode =
  | Off  (** Never emit (library default; tests and bench). *)
  | Auto  (** Emit iff stderr is a TTY. *)
  | Forced  (** Always emit ([--progress]). *)

val set_mode : mode -> unit
val is_active : unit -> bool

val set_output : out_channel -> unit
(** Redirect heartbeat lines (default [stderr]; tests point this at a
    temp file to assert on emitted lines). *)

val set_interval_ns : int64 -> unit
(** Minimum monotonic-clock gap between heartbeats (default 5e8 =
    500ms; tests set 0 to make every tick emit). *)

val start : ?total:int -> string -> unit
(** Begin a labelled phase (e.g. [sequence.iterate_re]); [total] is
    the step budget used for the ETA.  No-op when inactive. *)

val tick : ?step:int -> ?info:string -> unit -> unit
(** Heartbeat from inside the phase: step index (1-based, for the
    [k/n] position and ETA) and a free-form info suffix (cache
    hit-rate, label counts).  Throttled; the first tick of a phase
    always emits; a suppressed tick counts into [progress.dropped]. *)

val finish : unit -> unit
(** End the current phase (later {!tick}s are no-ops until the next
    {!start}). *)

val solver_tick : nodes:int -> unit
(** Heartbeat from the solver's search loop with the cumulative node
    count of the current solve; emits a nodes/s rate line through the
    shared throttle.  A node count lower than the previous one is
    treated as a new solve. *)

val heartbeat_count : unit -> int
(** Total heartbeat lines emitted ([progress.heartbeats] counter). *)

val dropped_count : unit -> int
(** Total suppressed ticks ([progress.dropped] counter): would-be
    heartbeats that fell inside the throttle window. *)

val reset : unit -> unit
(** Forget phase and solver state and re-arm the throttle (tests). *)
