(* Short-cycle repair on a private mutable adjacency.

   The walk keeps the graph as flat int arrays (row [v] of the
   adjacency is [off.(v) .. off.(v+1) - 1], each slot holding a
   neighbour and the id of the edge to it) and applies 2-swaps in
   place.  A swap replaces edges {u,v}, {x,y} by {u,x}, {v,y}; any
   cycle it creates runs through one of the two new edges, so a
   depth-bounded search around the four touched endpoints decides
   whether the swap created a cycle shorter than the target.  Swaps
   that do are undone, so the set of short cycles only shrinks and the
   vertices already found clean stay clean: the set of vertices that
   may still lie on a short cycle is the suffix [cursor .. n-1]. *)

module Prng = Slocal_util.Prng
module Telemetry = Slocal_obs.Telemetry

let c_local_bfs_runs = Telemetry.counter "girth.local_bfs_runs"

type t = {
  n : int;
  min_girth : int;
  off : int array;
  nbr : int array;
  eid : int array;
  eu : int array;  (** Endpoints of each edge id. *)
  ev : int array;
  mark : int array;  (** BFS visit stamps, one per vertex. *)
  dist : int array;
  branch : int array;  (** Child of the root each visited vertex hangs from. *)
  parent : int array;  (** BFS-tree edge to each visited vertex. *)
  mark2 : int array;  (** Stamps of the second half of a meet-in-the-middle. *)
  dist2 : int array;
  queue : int array;
  cycle : int array;  (** Edge ids of the short cycle last found. *)
  scalars : int array;  (** [| next stamp; cursor; cycle length |] *)
}

let stamp_slot = 0
let cursor_slot = 1
let cycle_len_slot = 2

let create g ~min_girth =
  let n = Graph.n g in
  let m = Graph.m g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let nbr = Array.make (2 * m) 0 and eid = Array.make (2 * m) 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i e ->
        nbr.(off.(v) + i) <- Graph.other_end g e v;
        eid.(off.(v) + i) <- e)
      (Graph.incident g v)
  done;
  {
    n;
    min_girth;
    off;
    nbr;
    eid;
    eu = Array.init m (fun e -> fst (Graph.edge g e));
    ev = Array.init m (fun e -> snd (Graph.edge g e));
    mark = Array.make n 0;
    dist = Array.make n 0;
    branch = Array.make n 0;
    parent = Array.make n (-1);
    mark2 = Array.make n 0;
    dist2 = Array.make n 0;
    queue = Array.make (max 1 n) 0;
    cycle = Array.make (max 1 min_girth) 0;
    scalars = [| 0; 0; 0 |];
  }

let to_graph t =
  Graph.create ~n:t.n (List.init (Array.length t.eu) (fun e -> (t.eu.(e), t.ev.(e))))

let fresh_stamp t =
  Telemetry.incr c_local_bfs_runs;
  let s = t.scalars.(stamp_slot) + 1 in
  t.scalars.(stamp_slot) <- s;
  s

let adjacent t a b =
  let rec scan i = i < t.off.(a + 1) && (t.nbr.(i) = b || scan (i + 1)) in
  scan t.off.(a)

(* A cycle of length < min_girth through [s], recorded in [t.cycle].
   BFS from [s] labels every vertex with the child of [s] it descends
   from; a non-tree edge between two branches closes a cycle through
   [s] of length [dist a + dist b + 1], and every cycle through [s]
   has such an edge with both ends no deeper than along the cycle.  So
   only vertices within (min_girth - 2) / 2 of [s] are expanded. *)
let find_cycle_through t s =
  let limit = t.min_girth - 1 in
  let radius = (t.min_girth - 2) / 2 in
  let stamp = fresh_stamp t in
  t.mark.(s) <- stamp;
  t.dist.(s) <- 0;
  t.branch.(s) <- -1;
  t.parent.(s) <- -1;
  t.queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let a = t.queue.(!head) in
    incr head;
    if t.dist.(a) <= radius then begin
      let i = ref t.off.(a) in
      while (not !found) && !i < t.off.(a + 1) do
        let w = t.nbr.(!i) and e = t.eid.(!i) in
        if e <> t.parent.(a) then
          if t.mark.(w) <> stamp then begin
            t.mark.(w) <- stamp;
            t.dist.(w) <- t.dist.(a) + 1;
            t.branch.(w) <- (if a = s then w else t.branch.(a));
            t.parent.(w) <- e;
            t.queue.(!tail) <- w;
            incr tail
          end
          else if
            w <> s
            && t.branch.(w) <> t.branch.(a)
            && t.dist.(a) + t.dist.(w) + 1 <= limit
          then begin
            (* The closing edge, then both tree paths up to [s]. *)
            let len = ref 0 in
            let push e =
              t.cycle.(!len) <- e;
              incr len
            in
            push e;
            let rec climb v =
              if v <> s then begin
                let e = t.parent.(v) in
                push e;
                climb (if t.eu.(e) = v then t.ev.(e) else t.eu.(e))
              end
            in
            climb a;
            climb w;
            t.scalars.(cycle_len_slot) <- !len;
            found := true
          end;
        incr i
      done
    end
  done;
  !found

let short_cycle_exists t =
  let rec advance () =
    let s = t.scalars.(cursor_slot) in
    if s >= t.n then false
    else if find_cycle_through t s then true
    else begin
      t.scalars.(cursor_slot) <- s + 1;
      advance ()
    end
  in
  advance ()

(* Whether edge [e] = {a,b} lies on a cycle shorter than min_girth:
   an a-b path of length <= min_girth - 2 avoiding [e].  Two BFS, of
   radius ceil and floor of half that length, meet on such a path. *)
let on_short_cycle t a b e =
  let len = t.min_girth - 2 in
  len >= 2
  &&
  let bfs root radius mark dist stamp ~meets =
    mark.(root) <- stamp;
    dist.(root) <- 0;
    t.queue.(0) <- root;
    let head = ref 0 and tail = ref 1 in
    let met = ref (meets root) in
    while (not !met) && !head < !tail do
      let v = t.queue.(!head) in
      incr head;
      if dist.(v) < radius then
        for i = t.off.(v) to t.off.(v + 1) - 1 do
          let w = t.nbr.(i) in
          if t.eid.(i) <> e && mark.(w) <> stamp then begin
            mark.(w) <- stamp;
            dist.(w) <- dist.(v) + 1;
            if meets w then met := true;
            t.queue.(!tail) <- w;
            incr tail
          end
        done
    done;
    !met
  in
  let sa = fresh_stamp t in
  ignore (bfs a ((len + 1) / 2) t.mark t.dist sa ~meets:(fun _ -> false));
  let sb = fresh_stamp t in
  bfs b (len / 2) t.mark2 t.dist2 sb ~meets:(fun w -> t.mark.(w) = sa)

(* In row [a], the slot holding neighbour [old] now holds [nw] via
   edge [e]. *)
let relink t a old nw e =
  let i = ref t.off.(a) in
  while t.nbr.(!i) <> old do
    incr i
  done;
  t.nbr.(!i) <- nw;
  t.eid.(!i) <- e

let set_edge t e a b =
  t.eu.(e) <- min a b;
  t.ev.(e) <- max a b

let swap t rng =
  let e = t.cycle.(Prng.int rng t.scalars.(cycle_len_slot)) in
  let u = t.eu.(e) and v = t.ev.(e) in
  let m = Array.length t.eu in
  let rec attempt tries =
    tries > 0
    &&
    let j = Prng.int rng m in
    let x, y = if Prng.bool rng then (t.eu.(j), t.ev.(j)) else (t.ev.(j), t.eu.(j)) in
    if x = u || x = v || y = u || y = v || adjacent t u x || adjacent t v y then
      attempt (tries - 1)
    else begin
      (* {u,v}, {x,y} -> {u,x} (id e), {v,y} (id j) *)
      relink t u v x e;
      relink t v u y j;
      relink t x y u e;
      relink t y x v j;
      set_edge t e u x;
      set_edge t j v y;
      if on_short_cycle t u x e || on_short_cycle t v y j then begin
        relink t u x v e;
        relink t v y u e;
        relink t x u y j;
        relink t y v x j;
        set_edge t e u v;
        set_edge t j x y;
        attempt (tries - 1)
      end
      else true
    end
  in
  attempt 64
