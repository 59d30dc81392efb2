let greedy g =
  let n = Graph.n g in
  let order =
    List.sort
      (fun u v -> compare (Graph.degree g u, u) (Graph.degree g v, v))
      (List.init n (fun v -> v))
  in
  let blocked = Array.make n false in
  let set = ref [] in
  List.iter
    (fun v ->
      if not blocked.(v) then begin
        set := v :: !set;
        blocked.(v) <- true;
        List.iter (fun w -> blocked.(w) <- true) (Graph.neighbors g v)
      end)
    order;
  List.rev !set

exception Budget_exceeded

(* Vertex sets are int-array bitsets of 32 bits per word, so that
   word and bit indices are shifts and masks. *)
let word_shift = 5
let word_mask = (1 lsl word_shift) - 1

(* Index of the lowest set bit of a byte. *)
let ctz8 =
  String.init 256 (fun i ->
      let rec go k = if k >= 8 || (i lsr k) land 1 = 1 then k else go (k + 1) in
      Char.chr (go 0))

let lowest_bit x =
  let rec go x k =
    if x land 0xFF = 0 then go (x lsr 8) (k + 8) else k + Char.code ctz8.[x land 0xFF]
  in
  go x 0

(* Branch and bound over the remaining vertex set P, branching on the
   lowest-numbered vertex of maximum degree in G[P].  All state is
   updated in place and undone from a trail on the way back, so a node
   costs O(d²) for the removals plus a scan of P up to the branching
   vertex:
   - P is a bitset; [deg] holds each vertex's degree in G[P] and
     [count] how many vertices of P have each degree;
   - the bound is a partition of P into cliques, each holding at most
     one vertex of an independent set: the greedy colouring bound for
     maximum clique, applied to the complement.  The partition is
     computed once and inherited: removing a vertex shrinks its
     clique, and a vertex left alone in its clique is merged with a
     lone neighbour, so the 2-cliques stay a maximal matching of G[P].
     On triangle-free graphs the bound is |P| - (that matching);
   - once every degree is at most 1, G[P] is isolated vertices and
     single edges, and α(G[P]) = |P| - (number of edges). *)
let exact ?(max_nodes = 5_000_000) g =
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let adj = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri (fun i w -> adj.(off.(v) + i) <- w) (Graph.neighbors g v)
  done;
  let in_p = Array.make (max 1 ((n + word_mask) lsr word_shift)) 0 in
  let mem v = (in_p.(v lsr word_shift) lsr (v land word_mask)) land 1 = 1 in
  let flip v =
    let i = v lsr word_shift in
    in_p.(i) <- in_p.(i) lxor (1 lsl (v land word_mask))
  in
  for v = 0 to n - 1 do
    flip v
  done;
  let size = ref n in
  let deg = Array.init n (fun v -> off.(v + 1) - off.(v)) in
  let count = Array.make (max 2 (Graph.max_degree g + 1)) 0 in
  Array.iter (fun k -> count.(k) <- count.(k) + 1) deg;
  let shift_degree z delta =
    count.(deg.(z)) <- count.(deg.(z)) - 1;
    deg.(z) <- deg.(z) + delta;
    count.(deg.(z)) <- count.(deg.(z)) + 1
  in
  (* The clique partition: [clique.(v)] names v's clique by its first
     vertex, [members.(c)] counts its vertices in P.  Each clique grows
     greedily from its first vertex through the neighbours adjacent to
     every member so far ([common] counts the members a vertex is
     adjacent to). *)
  let clique = Array.make n (-1) in
  let members = Array.make n 0 in
  let cliques = ref 0 in
  let common = Array.make n 0 in
  let touch u delta =
    for i = off.(u) to off.(u + 1) - 1 do
      common.(adj.(i)) <- common.(adj.(i)) + delta
    done
  in
  for v = 0 to n - 1 do
    if clique.(v) < 0 then begin
      incr cliques;
      let grown = ref [ v ] in
      clique.(v) <- v;
      members.(v) <- 1;
      touch v 1;
      for i = off.(v) to off.(v + 1) - 1 do
        let w = adj.(i) in
        if clique.(w) < 0 && common.(w) = members.(v) then begin
          clique.(w) <- v;
          members.(v) <- members.(v) + 1;
          grown := w :: !grown;
          touch w 1
        end
      done;
      List.iter (fun u -> touch u (-1)) !grown
    end
  done;
  (* The trail: [2u] for "u left P", [2w + 1] with [moved_from.(i)] =
     c for "w, left alone in clique c, joined a lone neighbour". *)
  let trail = Array.make (2 * n + 1) 0 in
  let moved_from = Array.make (2 * n + 1) 0 in
  let top = ref 0 in
  let remove u =
    flip u;
    decr size;
    count.(deg.(u)) <- count.(deg.(u)) - 1;
    for i = off.(u) to off.(u + 1) - 1 do
      if mem adj.(i) then shift_degree adj.(i) (-1)
    done;
    trail.(!top) <- 2 * u;
    incr top;
    let c = clique.(u) in
    members.(c) <- members.(c) - 1;
    if members.(c) = 0 then decr cliques
    else if members.(c) = 1 then begin
      (* The survivor is a neighbour of u. *)
      let i = ref off.(u) in
      while not (mem adj.(!i) && clique.(adj.(!i)) = c) do
        incr i
      done;
      let w = adj.(!i) in
      let j = ref off.(w) in
      while !j < off.(w + 1) && not (mem adj.(!j) && members.(clique.(adj.(!j))) = 1) do
        incr j
      done;
      if !j < off.(w + 1) then begin
        let c' = clique.(adj.(!j)) in
        members.(c) <- 0;
        members.(c') <- 2;
        clique.(w) <- c';
        decr cliques;
        trail.(!top) <- (2 * w) + 1;
        moved_from.(!top) <- c;
        incr top
      end
    end
  in
  let undo mark =
    while !top > mark do
      decr top;
      let x = trail.(!top) in
      let v = x / 2 in
      if x land 1 = 1 then begin
        members.(clique.(v)) <- 1;
        clique.(v) <- moved_from.(!top);
        members.(clique.(v)) <- 1;
        incr cliques
      end
      else begin
        let c = clique.(v) in
        if members.(c) = 0 then incr cliques;
        members.(c) <- members.(c) + 1;
        for i = off.(v) to off.(v + 1) - 1 do
          if mem adj.(i) then shift_degree adj.(i) 1
        done;
        count.(deg.(v)) <- count.(deg.(v)) + 1;
        incr size;
        flip v
      end
    done
  in
  (* The first vertex of P of degree [k]. *)
  let first_of_degree k =
    let rec scan i =
      let rec bits x =
        if x = 0 then scan (i + 1)
        else
          let v = (i lsl word_shift) + lowest_bit x in
          if deg.(v) = k then v else bits (x land (x - 1))
      in
      bits in_p.(i)
    in
    scan 0
  in
  let best = ref (List.length (greedy g)) in
  let nodes = ref 0 in
  let rec branch current =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    if current + !cliques > !best then begin
      let k = ref (Array.length count - 1) in
      while !k > 0 && count.(!k) = 0 do
        decr k
      done;
      if !k <= 1 then begin
        let all = current + !size - (count.(1) / 2) in
        if all > !best then best := all
      end
      else begin
        let v = first_of_degree !k in
        let mark = !top in
        (* Branch 1: include v. *)
        remove v;
        for i = off.(v) to off.(v + 1) - 1 do
          if mem adj.(i) then remove adj.(i)
        done;
        branch (current + 1);
        undo mark;
        (* Branch 2: exclude v. *)
        remove v;
        branch current;
        undo mark
      end
    end
  in
  match branch 0 with
  | () -> Some !best
  | exception Budget_exceeded -> None

let upper_bound_alon ~n ~delta ~alpha =
  alpha *. float_of_int n *. log (float_of_int delta) /. float_of_int delta

let chromatic_lower_of_independence ~n ~independence =
  if independence <= 0 then invalid_arg "chromatic_lower_of_independence";
  (n + independence - 1) / independence
