(** Incremental short-cycle repair, the engine of
    {!Graph_gen.improve_girth}.

    A walk holds a private mutable copy of a graph and destroys cycles
    shorter than [min_girth] by degree-preserving 2-swaps applied in
    place.  A swap is kept only when depth-bounded searches around its
    four endpoints show that neither new edge lies on a short cycle, so
    the set of short cycles only shrinks.  No step runs a full
    all-sources BFS; the graph is rebuilt as a {!Graph.t} only by
    {!to_graph}. *)

type t

val create : Graph.t -> min_girth:int -> t
(** A walk on a copy of the graph; edge ids are kept, so {!to_graph}
    on an untouched walk returns the same edge list. *)

val short_cycle_exists : t -> bool
(** Whether the current graph has a cycle shorter than [min_girth].
    When it has, that cycle becomes the target of the next {!swap}. *)

val swap : t -> Slocal_util.Prng.t -> bool
(** Try to break the target cycle: pick one of its edges {u,v} at
    random and up to 64 random partner edges {x,y}, and apply the
    first swap to {u,x}, {v,y} that keeps the graph simple and creates
    no short cycle.  [false] if none of the 64 did, leaving the graph
    and the target as they were.  Requires the last
    {!short_cycle_exists} to have returned [true], with no successful
    swap since. *)

val to_graph : t -> Graph.t
(** The current graph; edge [i] is the current occupant of the
    original edge slot [i]. *)
