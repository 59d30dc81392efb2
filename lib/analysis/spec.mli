(** The problem and graph spec strings accepted on the command line,
    parsed into typed results.

    Every failure — an unknown spec, a non-integer field, parameters
    a family rejects, an unreadable [file:] path, a document that
    {!Slocal_formalism.Problem.of_string} rejects — is an [SL000]
    error diagnostic whose subject is the spec, never an exception. *)

val problem : string -> (Slocal_formalism.Problem.t, Diagnostic.t) result
(** Parse a problem spec ([matching:D:X:Y], [mm:D], [arb:D:C],
    [ruling:D:C:B], [so:D], [col:D:C], [file:PATH]).  On success the
    problem is noted into the run-ledger context when one is open. *)

val graph : string -> (Slocal_graph.Bipartite.t, Diagnostic.t) result
(** Parse a graph spec ([cycle:K], [kbb:A:B], [cover-petersen],
    [cover-random:N:D:SEED], [biregular:NW:NB:DW:DB:SEED]).
    [cover-random] sends its base graph's measured girth, target and
    {!Slocal_graph.Graph_gen.girth_outcome} as a trace message. *)

val certified :
  n:int -> d:int -> seed:int -> (Slocal_graph.Graph_gen.certified, Diagnostic.t) result
(** The Lemma 2.1 support graph of [slocal gen]:
    {!Slocal_graph.Graph_gen.high_girth_low_independence} from [seed].
    Parameters it rejects ([d < 2], no [d]-regular graph on [n] nodes)
    are an [SL000] error whose subject is [gen -n N -d D]. *)

(** A bound spec of [slocal bounds], evaluated at [n] nodes. *)
type bound =
  | Matching of { delta' : int; bound : Supported_local.Bounds.two_sided }
  | Arbdefective of Supported_local.Bounds.two_sided
  | Ruling_set of Supported_local.Bounds.two_sided
  | Mis of Supported_local.Bounds.mis_corollary

val bound : string -> n:float -> (bound, Diagnostic.t) result
(** Parse and evaluate a bound spec ([matching:D':X:Y],
    [arb:D:D':A:C], [ruling:D:D':A:C:B], [mis]).  Unknown specs,
    non-integer fields and parameters outside a theorem's range are an
    [SL000] error. *)
