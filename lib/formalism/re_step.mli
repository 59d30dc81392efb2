(** The round elimination operator (Appendix B of the paper).

    [R(Π)] replaces the black constraint by the set of {e maximal}
    configurations of label-{e sets} all whose choices lie in [C_B],
    and the white constraint by the configurations of such sets
    admitting {e some} choice in [C_W].  [R̄] is the same with the two
    roles exchanged, and the full round elimination step is
    [RE(Π) = R̄(R(Π))].

    Lemma B.1: a [T]-round white algorithm for [Π] (on high-girth
    support graphs, in Supported LOCAL) yields a [(T-1)]-round black
    algorithm for [R(Π)]; symmetrically for [R̄]; hence a [T]-round
    white algorithm for [Π] yields a [(T-2)]-round white algorithm for
    [RE(Π)].

    The labels of [R(Π)] are sets of labels of [Π].  This module
    re-grounds them as fresh atomic labels and returns the {e meaning}
    of each new label — the set of old labels it stands for — so that
    steps can be chained.

    {b Kernels.}  Two implementations coexist.  The {e fast} kernel
    (default) finds the maximal good configurations by a top-down
    subset-lattice search that expands only non-good configurations
    (goodness is downward closed), answers constraint queries through
    {!Constr}'s packed-key memo tables, and caches whole RE results
    across invocations keyed by structural problem equality.  The
    {e reference} kernel is the original bottom-up
    enumerate-then-filter implementation, kept verbatim in
    {!Re_reference} as a differential oracle.  {!set_kernel} switches
    the [r_black]/[r_white]/[re]/[is_fixed_point] entry points between
    the two (the CLI exposes it as [--kernel reference|fast]); both
    kernels produce identical problems. *)

type grounding = {
  problem : Problem.t;
  meaning : Slocal_util.Bitset.t array;
      (** [meaning.(l)] is the set of previous-alphabet labels that the
          new label [l] denotes. *)
}

type kernel = Fast | Reference

exception Alphabet_too_large of { problem : string; labels : int }
(** Raised by the fast kernel when a step would index more than
    [Bitset.max_universe] (62) labels as bitset members: the input
    alphabet of the step named [problem] (["R(…)"] or ["R̄(…)"]), or the
    new alphabet of an [R] step — the input of the [R̄] that follows it
    — right after its strong side, before its weak side enumerates over
    it.  [labels] is the offending alphabet size. *)

val set_kernel : kernel -> unit
(** Select the implementation behind {!r_black}, {!r_white}, {!re} and
    {!is_fixed_point}.  Default: [Fast]. *)

val r_black : Problem.t -> grounding
(** The operator [R]: maximality on the black side, existence on the
    white side. *)

val r_white : Problem.t -> grounding
(** The operator [R̄]: maximality on the white side, existence on the
    black side. *)

val re : ?cache:bool -> Problem.t -> Problem.t
(** [RE(Π) = R̄(R(Π))], with fresh atomic labels.  With the fast
    kernel, results are cached across invocations (hits require
    structural {!Problem.equal}; buckets use
    {!Problem.canonical_hash}; [re.cache_hits]/[re.cache_misses]
    count both outcomes).  Pass [~cache:false] to force a full
    recomputation (benchmarks). *)

val is_fixed_point : Problem.t -> bool
(** Is [RE(Π)] equal to [Π] up to label renaming?  (E.g. Lemma 5.4:
    [Π_Δ(k)] is a fixed point whenever [k <= Δ].) *)

val clear_cache : unit -> unit
(** Drop all cached RE results {e and} zero the paired
    [re.cache_hits]/[re.cache_misses] counters, so hit-rate numbers
    measured after an explicit clear are not polluted by pre-clear
    traffic (tests and benchmarks).  The internal capacity eviction
    does {e not} reset the counters. *)

val enumerate_set_configs :
  candidates:Slocal_util.Bitset.t list ->
  arity:int ->
  partial:(Slocal_util.Bitset.t list -> bool) ->
  full:(Slocal_util.Bitset.t list -> bool) ->
  Slocal_util.Bitset.t list list
(** Enumerate multisets of size [arity] over [candidates] (results as
    sorted-by-candidate-order lists), pruning any prefix rejected by
    [partial] and keeping completions accepted by [full].  Shared by
    the weak (existential) side of the [R]/[R̄] operators and the lift
    construction. *)

val set_name : Alphabet.t -> Slocal_util.Bitset.t -> string
(** Printable name of a label set (concatenation for single-character
    member names, ⟨a,b,…⟩ otherwise). *)

val maximal_good_configs :
  candidates:Slocal_util.Bitset.t list ->
  arity:int ->
  Constr.t ->
  Slocal_util.Bitset.t list list
(** The maximal multisets (given as sorted lists) of candidate
    label-sets, of size [arity], all whose choices lie in the given
    constraint — computed by the fast top-down lattice search
    regardless of {!set_kernel} (the reference implementation lives in
    {!Re_reference.maximal_good_configs}).  Visited lattice nodes
    count into [re.enum_nodes]. *)

val violating_choice : int list list -> Constr.t -> (int * int) list option
(** [violating_choice sets constr]: [None] when every per-position
    choice over [sets] lies in [constr]; otherwise a minimal dead pick
    as [(position, label)] pairs — the first pick of the depth-first
    walk over the positions whose multiset no configuration of
    [constr] extends, with every label dropped whose removal leaves the
    pick dead.  The witness that drives the lattice search of
    {!maximal_good_configs}. *)
