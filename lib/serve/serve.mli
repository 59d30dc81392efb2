(** The [slocal serve] daemon core: a long-lived request loop over a
    Unix-domain socket, speaking a JSONL protocol (DESIGN.md §9), with
    request-scoped observability.

    One process owns the warm state — the cross-invocation RE cache
    ({!Slocal_formalism.Re_step}), the telemetry registry, the interned
    constraint memo tables — and serves {e work} requests ([re],
    [sequence], [solve], [audit]) one at a time, each inside a
    {!Slocal_obs.Telemetry.with_request} window: trace events carry the
    request id, the response reports the window's own counter deltas,
    wall time and allocation, and one [slocal.request/2] ledger record
    ({!Slocal_obs.Ledger.request_record}) is appended per request.
    {e Control} requests ([stats], [metrics], [shutdown]) run outside
    any window, so [stats] reads the registry at a quiescent point and
    can verify the sum invariant: the per-request counter deltas of the
    work requests served so far sum exactly to the registry's delta
    since daemon start, up to the daemon's own out-of-window counters
    ([serve.connections], [serve.heartbeats], [serve.control]).

    {b Protocol.}  One JSON object per line in both directions.
    Request fields: [op] (required), [id] (optional, auto-assigned
    [rN]), [problem]/[graph] (spec strings, as on the CLI), [steps],
    [kernel], [budget], [k], [text].  Responses echo [id] and
    [op], carry [ok] plus [result] or [error], and — for work requests
    — the [request] record and the per-request [counters] object.
    Lines that are not valid JSON get an [ok:false] reply and touch no
    counter (they are not requests).

    The daemon is single-threaded by design, which is what keeps
    request windows non-overlapping and their counter deltas
    disjoint. *)

open Slocal_formalism
module Json = Slocal_obs.Json
module Ledger = Slocal_obs.Ledger

val kernel_name : Re_step.kernel -> string
(** ["fast"] or ["reference"]. *)

(** {1 Daemon state} *)

type config = {
  record : string option;
      (** Append one [slocal.capture/1] line per work request (the
          request JSON plus its summary) to this file. *)
  request_ledger : string option;
      (** Append one [slocal.request/2] record per work request. *)
  heartbeat : out_channel option;
      (** Emit throttled [\[serve\]] heartbeat lines (uptime, served,
          cache hit rate) here; [None] (default) disables them. *)
  heartbeat_interval_ns : int64;
}

val default_config : config
(** No capture, no request ledger, no heartbeat, 500ms
    heartbeat interval. *)

type state
(** One daemon's mutable state: served/error tallies, the summed
    per-request counter deltas, the capture channel. *)

val create : ?config:config -> unit -> state
(** Also snapshots the telemetry registry as the baseline that the
    [stats] op diffs against. *)

val served : state -> int
val errored : state -> int
val stopped : state -> bool
(** [true] once a [shutdown] request was handled. *)

val request_totals : state -> (string * int) list
(** Summed per-request counter deltas over every work request served
    so far, sorted by name. *)

val close : state -> unit
(** Flush and close the capture channel, if any.  Idempotent. *)

(** {1 Request handling} *)

val handle_request : state -> Json.t -> Json.t
(** Handle one parsed request and return the response object.  Never
    raises: op failures become [ok:false] responses (and, for work
    ops, an [outcome:"error"] request record). *)

val handle_line : state -> string -> string
(** {!handle_request} over one protocol line: parse, handle, serialize.
    Invalid JSON yields an [ok:false] error line. *)

(** {1 The socket loop} *)

val serve : socket:string -> state -> unit
(** Bind a Unix-domain socket at [socket] (replacing a stale file),
    accept connections one at a time, and answer one JSONL request per
    line until a [shutdown] request arrives.  [SIGPIPE] is ignored so
    a client hanging up mid-reply never kills the daemon; the socket
    file is removed on the way out. *)

(** {1 Client helpers} *)

type conn
(** One client connection. *)

val connect : ?wait_s:float -> socket:string -> unit -> conn
(** Connect to a serving daemon, retrying for up to [wait_s] seconds
    (default [0.]: a single attempt) while the socket does not exist
    yet or refuses — the daemon may still be binding.
    @raise Unix.Unix_error when the deadline passes. *)

val roundtrip : conn -> Json.t -> (Json.t, string) result
(** Send one request line, read one response line. *)

val disconnect : conn -> unit

(** {1 Capture files} *)

val capture_schema_version : string
(** ["slocal.capture/1"] — one object per line: [schema], the verbatim
    [request], and the [summary] ([slocal.request/2]) it produced. *)

val read_capture : string -> (Json.t * Ledger.request_record option) list * int
(** The captured requests in file order, each with its recorded
    summary when intact ([None] when only the request half survived),
    plus the count of damaged or other-schema lines.
    @raise Sys_error when the file cannot be opened. *)
