(** Read [slocal.trace/5] JSONL traces back into
    {!Telemetry.event} values — the inverse of
    {!Telemetry.event_to_json}.

    Reading is {e tolerant}: lines that are not valid JSON, are
    truncated mid-object (a killed process), or carry an unknown
    event shape are skipped and counted rather than failing the whole
    trace, so [slocal trace report] degrades gracefully on damaged
    files.  Unknown {e fields} on known kinds are ignored.  Only the
    current schema is read: a [span_close] without its [alloc_b],
    [minor_n] and [major_n] fields (an older writer) is a damaged
    line. *)

val schema_version : string
(** ["slocal.trace/5"]. *)

type read_result = {
  events : Telemetry.event list;  (** In file order. *)
  skipped : int;  (** Non-blank lines that failed to parse. *)
  schema : string option;
      (** The [schema] field of the first [trace_start] line, when
          present. *)
}

val event_of_json : Json.t -> (Telemetry.event, string) result
val parse_line : string -> (Telemetry.event, string) result

val read_channel : in_channel -> read_result
(** Consume the channel to EOF.  Blank lines are ignored silently. *)

val read_file : string -> read_result
(** @raise Sys_error when the file cannot be opened. *)
