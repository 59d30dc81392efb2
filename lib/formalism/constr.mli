(** Constraints: finite sets of same-size configurations.

    A configuration is a multiset of labels; a (white or black)
    constraint is a set of configurations, all of the same size (the
    arity: Δ' for white, r' for black).  Besides membership, the
    operations needed by round elimination, the lift operator and the
    solver are quantified-choice tests over "condensed" configurations
    (one label set per position).  They walk the constraint's
    down-closure automaton — one state per sub-multiset of a
    configuration, one transition per added label — built on the first
    query; a walk allocates nothing. *)

module Config_set : Set.S with type elt = Slocal_util.Multiset.t

type t

val make : arity:int -> Slocal_util.Multiset.t list -> t
(** @raise Invalid_argument if some configuration has the wrong size. *)

val arity : t -> int
val configs : t -> Slocal_util.Multiset.t list
val size : t -> int
(** Number of configurations. *)

val mem : Slocal_util.Multiset.t -> t -> bool

val extendable : Slocal_util.Multiset.t -> t -> bool
(** [extendable partial t]: is [partial] a sub-multiset of some
    configuration of [t]?  ([partial] may have any size up to the
    arity.)  A walk of the down-closure automaton. *)

val extendable_labels : int list -> t -> bool
(** [extendable_labels labels t] is [extendable (Multiset.of_list
    labels) t], for [labels] in any order. *)

val root : t -> int
(** The down-closure automaton's state for the empty multiset: [0], or
    [-1] when [t] has no configurations.  With {!step_state} this lets
    a caller keep one [int] per partial multiset instead of the
    multiset itself. *)

val step_state : t -> int -> int -> int
(** [step_state t s l]: the state of the multiset of state [s] plus
    label [l], or [-1] when that multiset is not {!extendable}.  A dead
    state stays dead: [step_state t (-1) l = -1].  States fix their
    size, so a live state reached in [arity t] steps from {!root} is
    exactly a configuration of [t]. *)

val exists_choice : int list list -> t -> bool
(** [exists_choice sets t]: do per-position picks [ℓ_i ∈ sets_i] exist
    whose multiset is in [t]?  [sets] must have length [arity t].
    Prunes every pick that is not {!extendable}. *)

val for_all_choices : int list list -> t -> bool
(** All per-position picks form configurations of [t].  [sets] must
    have length [arity t].  Vacuously true when some set is empty. *)

val exists_choice_partial : int list list -> t -> bool
(** Like {!exists_choice} but for fewer than [arity] positions: the
    picked multiset only needs to be extendable. *)

val for_all_choices_partial : int list list -> t -> bool
(** All picks over the (possibly fewer than [arity]) positions are
    extendable.  Vacuously true when some set is empty. *)

val first_dead_pick : int list list -> t -> (int * int) list option
(** [first_dead_pick sets t]: the first {e dead} pick — one whose label
    multiset is not {!extendable} — met by the depth-first walk over
    [sets] (positions in order, each set's labels in list order), as
    [(position, label)] pairs for positions [0 .. j]; [None] when the
    walk meets none.  Unmemoized.
    @raise Invalid_argument if [sets] is longer than [arity t]. *)

val labels_used : t -> int list
(** Distinct labels appearing in some configuration. *)

val map_labels : (int -> int) -> t -> t
(** Re-canonicalizes configurations after relabeling. *)

val equal : t -> t -> bool
val subset : t -> t -> bool
(** Configuration-set inclusion. *)

val pp : Alphabet.t -> Format.formatter -> t -> unit
