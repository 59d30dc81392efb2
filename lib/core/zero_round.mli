(** Theorem 3.2, executable in both directions.

    Forward: a bipartite solution of [lift_{Δ,r}(Π)] on the support
    graph gives a 0-round white algorithm for [Π] in Supported LOCAL —
    {!algorithm_of_lift_solution} builds it and it can be run with
    {!Slocal_model.Supported}.

    Backward: from any correct 0-round table (as searched exhaustively
    by {!Slocal_model.Zero_round_search}), a lift solution can be
    reconstructed by collecting, for each edge, the set of outputs the
    algorithm ever emits on it and right-closing — {!lift_solution_of_table}.

    Decision: {!solvable} decides 0-round solvability of [Π] on a
    (Δ,r)-biregular support graph by solving the lift — the tractable
    route that the paper's framework makes available. *)

open Slocal_graph
open Slocal_formalism
open Slocal_model

exception Unusable_support of { problem : string; reason : string }
(** The support cannot carry [lift_{Δ,r}(Π)] for the problem named
    [problem]: a support graph that is not biregular, a support
    hypergraph that is not regular and uniform, or degrees below the
    problem's arities (Definition 3.1 needs Δ ≥ Δ′ and r ≥ r′).
    [reason] says which, with the degrees involved. *)

val solvable :
  ?max_nodes:int -> Bipartite.t -> Problem.t -> bool option
(** [solvable support Π]: can [Π] be bipartitely solved in 0 rounds by
    a white algorithm in Supported LOCAL on [support]?  The support
    must be (Δ,r)-biregular for some [Δ >= d_white Π],
    [r >= d_black Π]; decided via [lift_{Δ,r}(Π)] and the exact
    solver.  [None] on solver budget exhaustion.
    @raise Unusable_support if the support is not biregular or is too
    small for the problem's arities. *)

val lift_of_support : Bipartite.t -> Problem.t -> Lift.t
(** The lift instance matching a biregular support graph.
    @raise Unusable_support as {!solvable}. *)

val solvable_non_bipartite :
  ?max_nodes:int -> Hypergraph.t -> Problem.t -> bool option
(** Corollary 3.3: 0-round solvability of [Π] on a Δ-regular r-uniform
    support hypergraph, decided through [lift_{Δ,r}(Π)] on the
    incidence graph.
    @raise Unusable_support if the hypergraph is not regular/uniform or
    its parameters are below the problem's arities. *)

val lift_of_hypergraph : Hypergraph.t -> Problem.t -> Lift.t
(** @raise Unusable_support as {!solvable_non_bipartite}. *)

(** {1 The two-label sweep space} *)

val two_label_problems : unit -> Problem.t list
(** The 49-problem two-label sweep space over the alphabet [{A, B}]
    at arity 2: every pair of nonempty subsets of the three
    edge-configuration multisets ([AA], [AB], [BB]) as
    (white, black) constraints.  Fresh problems on every call (so
    each caller owns its instances' memo tables). *)

val algorithm_of_lift_solution :
  Lift.t -> Bipartite.t -> int array -> Supported.white_algorithm
(** The forward construction of Theorem 3.2: from a valid lift
    labeling of the support, a 0-round white algorithm for the base
    problem (correct on inputs of white degree ≤ Δ′, black degree
    ≤ r′). *)

val lift_solution_of_table :
  Lift.t -> Bipartite.t -> d_in_white:int -> Zero_round_search.table -> int array option
(** The backward construction: collect per-edge output sets of a
    0-round table over all full-size patterns, right-close them, and
    translate to lift labels.  [None] if some collected set is not a
    lift label (which cannot happen for a correct table on a biregular
    support). *)
