(** Lints over the condensed textual problem syntax.

    These checks need the original source (a [Problem.of_string]
    document), not just the parsed [Problem.t]: once parsed,
    configuration sets are deduplicated and canonicalized, so
    duplicate condensed lines and non-canonical syntax are invisible.

    Codes: SL000 (unparsable document), SL004 (a configuration
    generated by more than one condensed line), SL005 (non-canonical
    condensed syntax: singleton or duplicated bracket alternatives,
    [^0] / [^1] exponents). *)

open Slocal_formalism

val lint_string : subject:string -> string -> Problem.t option * Diagnostic.t list
(** Parse a problem document and lint its condensed source.  On parse
    failure the problem is [None] and the diagnostics contain exactly
    one SL000 error carrying the parser's message. *)

val lint_file : string -> Problem.t option * Diagnostic.t list
(** {!lint_string} on a file's contents, with the path as subject.
    Unreadable files also report SL000. *)

(** {1 Fast problem-file lint (SL057)}

    A source-only pass over [.slp] documents for defects invisible to
    the parsed representation: labels declared in the alphabet but
    used in no configuration, and configurations generated more than
    once by the {e same} condensed line (SL004 only catches cross-line
    duplicates). *)

val lint_slp : subject:string -> string -> Diagnostic.t list
(** One SL057 warning per unused label and per within-line duplicate
    configuration; a single SL000 error if the document does not
    parse. *)

val lint_slp_file : string -> Diagnostic.t list
(** {!lint_slp} on a file's contents, with the path as subject. *)

(** {1 Telemetry name drift (SL041)}

    Every [Telemetry.counter]/[gauge]/[histogram] name registered with
    a string literal in the library sources must appear in DESIGN.md
    §6's "Counter and gauge names" table. *)

val telemetry_registrations : string -> (string * string) list
(** [(kind, name)] pairs for every [counter "..."], [gauge "..."],
    [histogram "..."] or [span "..."] application found in OCaml source
    text (plain text scan; qualified and unqualified uses alike), sorted
    and deduplicated. *)

val design_metric_names : string -> string list
(** The full dotted metric names documented in a design document's
    "Counter and gauge names" markdown table (rows are
    [| `prefix.` | `name`, `name`, ... |]; non-identifier backticked
    tokens are ignored). *)

val design_span_names : string -> string list
(** The backticked dotted names of a design document's
    ["Span names:"] paragraph (up to the next blank line). *)

val telemetry_name_findings :
  design:string -> (string * string) list -> Diagnostic.t list
(** [telemetry_name_findings ~design sources] checks every
    registration in [sources] ([(subject, text)] pairs) against the
    design table (spans against the span-name paragraph): one SL041
    warning per undocumented name, plus one SL041 warning if [design]
    has no table at all. *)

val ml_files_under : string -> string list
(** Every [.ml] file under a directory, recursively, sorted; an
    unreadable directory is the empty list. *)

val lint_telemetry_files :
  design:string -> src_dirs:string list -> Diagnostic.t list
(** File-level wrapper: scan every [.ml] under [src_dirs]
    (recursively, sorted) against the table in the [design] file.  An
    unreadable design document is a single SL000 error. *)
