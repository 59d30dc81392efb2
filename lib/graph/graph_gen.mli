(** Graph generators, including the Lemma 2.1 substitute.

    The paper's lower-bound instances (Lemma 2.1, [Alo10]) are
    Δ-regular graphs with girth ≥ ε·log_Δ n and independence number
    ≤ α·n·log Δ/Δ, whose existence is proved probabilistically.  We
    substitute random Δ-regular graphs from the configuration model
    with short cycles destroyed by degree-preserving 2-swaps
    ({!high_girth_low_independence}); callers receive the measured
    girth so that nothing is assumed. *)

val cycle : int -> Graph.t
val path : int -> Graph.t
val complete : int -> Graph.t
val complete_bipartite : int -> int -> Bipartite.t
val star : int -> Graph.t
(** [star k]: center 0 with [k] leaves. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the [d]-dimensional hypercube on [2^d] vertices. *)

val grid : int -> int -> Graph.t
val torus : int -> int -> Graph.t
(** [torus a b] with [a, b >= 3]. *)

val petersen : unit -> Graph.t
(** The Petersen graph: 3-regular, girth 5, independence number 4. *)

val random_tree : Slocal_util.Prng.t -> int -> Graph.t
(** Uniform random labelled tree (Prüfer sequence). *)

val random_regular : Slocal_util.Prng.t -> n:int -> d:int -> Graph.t
(** Random [d]-regular simple graph by the configuration model with
    restarts.  Requires [n·d] even and [d < n]. *)

val random_biregular : Slocal_util.Prng.t -> nw:int -> nb:int -> dw:int -> db:int -> Bipartite.t
(** Random (dw, db)-biregular 2-colored graph.  Requires
    [nw·dw = nb·db], [dw <= nb], [db <= nw]. *)

val improve_girth : Slocal_util.Prng.t -> Graph.t -> min_girth:int -> max_steps:int -> Graph.t
(** Destroy cycles shorter than [min_girth] by random degree-preserving
    2-swaps, each on an edge of a short cycle and kept only if the graph
    stays simple and gains no short cycle (so the girth never drops).
    Stops when no short cycle is left or after [max_steps] swap
    attempts; see {!Girth_repair}. *)

val moore_min_n : d:int -> girth:int -> int
(** The Moore bound: the fewest vertices of a [d]-regular graph of
    girth at least [girth].  For odd [girth = 2r+1] it is
    [1 + d·Σ_{i<r} (d-1)^i], for even [girth = 2r] it is
    [2·Σ_{i<r} (d-1)^i]; [d + 1] for [girth <= 3].  Saturates at
    [2^40]. *)

type girth_outcome =
  | Reached  (** Measured girth at least the target (or a forest). *)
  | Infeasible of { min_n : int }
      (** The target breaks the Moore bound: a [d]-regular graph of
          that girth needs [min_n] vertices.  No swap was tried. *)
  | Budget  (** Feasible target, not reached within the swap budget. *)

val girth_outcome_to_string : girth_outcome -> string
(** ["reached"], ["infeasible below n=MIN_N"] or ["budget"]. *)

type certified = {
  graph : Graph.t;
  girth : int option;  (** Measured girth. *)
  girth_target : int;  (** The girth the swap walk aimed for. *)
  girth_outcome : girth_outcome;
  independence_upper : int;
      (** An upper bound on the independence number: exact when the
          branch-and-bound finishes within its node budget, otherwise
          [n - (greedy matching size)] (each matched edge holds at most
          one vertex of an independent set). *)
  independence_exact : bool;
}

val high_girth_low_independence :
  Slocal_util.Prng.t -> n:int -> d:int -> ?min_girth:int -> unit -> certified
(** The Lemma 2.1 substitute: a [d]-regular graph on ~[n] vertices
    ([n] rounded up to make [n·d] even) with measured girth and
    independence certification.  [min_girth] defaults to
    [max 5 ⌈log_d n⌉].  The target is not lowered when it is
    infeasible: the Moore bound ({!moore_min_n}) is checked first, and
    an infeasible target skips the swap walk and is reported as
    [Infeasible]. *)

val double_cover : Graph.t -> Bipartite.t
(** Re-export of {!Bipartite.double_cover}: the Section 4.2
    construction ("take its bipartite double cover"). *)
