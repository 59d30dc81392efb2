(** Independence number: exact (branch and bound) and greedy bounds.

    Lemma 2.1 (Alon) provides Δ-regular graphs with independence number
    at most [α·n·log Δ / Δ]; the arbdefective-coloring and ruling-set
    lower bounds (Corollary 5.8, Section 6.2) turn a hypothetical lift
    solution into a coloring with too few colors for such a graph.  The
    reproduction *measures* the independence number of each generated
    support graph instead of assuming it. *)

val greedy : Graph.t -> int list
(** A maximal independent set found greedily by ascending degree. *)

val exact : ?max_nodes:int -> Graph.t -> int option
(** Exact independence number by branch and bound over a bitset of the
    remaining vertices, branching on a vertex of maximum remaining
    degree and pruning with a clique-cover bound (on triangle-free
    graphs: remaining vertices minus a maximal matching of them).
    Returns [None] if the search exceeds [max_nodes] search-tree nodes
    (default [5_000_000]). *)

val upper_bound_alon : n:int -> delta:int -> alpha:float -> float
(** The Lemma 2.1 bound [α · n · log Δ / Δ] (natural log). *)

val chromatic_lower_of_independence : n:int -> independence:int -> int
(** [ceil (n / independence)]: any proper coloring needs at least this
    many colors. *)
