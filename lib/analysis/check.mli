(** The check registry and the top-level lint/audit entry points.

    [slocal lint] and [slocal audit] are thin wrappers over this
    module; tests drive it directly.  The {!code_table} is the single
    source of truth for the diagnostic catalogue (the README table is
    generated from the same data via [slocal lint --codes]). *)

open Slocal_formalism

type entry = {
  code : string;
  severity : Diagnostic.severity;
  title : string;  (** One line, suitable for a table. *)
}

val code_table : entry list
(** Every code the analysis can emit, ascending. *)

val find_entry : string -> entry option

val lint_problem :
  ?delta:int -> ?r:int -> ?check_lift:bool -> Problem.t -> Diagnostic.t list
(** Well-formedness + diagram soundness + (when [check_lift], the
    default) the structural invariants of the minimal lift
    [lift_{Δ,r}] with [Δ]/[r] defaulting to the problem's own arities.
    Lift construction is skipped with an SL025 info when the alphabet
    is too large to enumerate right-closed sets; above
    [Bitset.max_universe] labels only the well-formedness checks run,
    plus an SL027 error. *)

val universe_error : subject:string -> int -> Diagnostic.t
(** The SL027 error for a round elimination step (or problem) that
    needs [labels] labels as members of a label set. *)

val lint_file : ?delta:int -> ?r:int -> string -> Diagnostic.t list
(** Source-level lints (SL000/SL004/SL005) plus, when the file parses,
    everything {!lint_problem} reports. *)

val lint_re_chain : Problem.t -> steps:int -> Diagnostic.t list
(** Apply [steps] rounds of the RE operator, checking the grounding
    invariants (SL026) of every intermediate [R]/[R̄] application. *)

val audit :
  support:Slocal_graph.Bipartite.t ->
  last_problem:Problem.t ->
  k:int ->
  ?recheck_budget:int ->
  Supported_local.Framework.result ->
  Diagnostic.t list
(** {!Audit.audit_result} plus {!lint_problem} of the lifted problem
    (a fabricated result should not escape because only its
    certificate was checked). *)

val pp_code_table : Format.formatter -> unit -> unit
(** Render {!code_table} as an aligned text table. *)
