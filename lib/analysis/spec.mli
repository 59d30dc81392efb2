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
