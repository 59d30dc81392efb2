(* The list-based independence branch-and-bound that
   [Slocal_graph.Independence.exact] replaced, kept verbatim as the
   differential oracle for the bitset search. *)

module Graph = Slocal_graph.Graph

let greedy = Slocal_graph.Independence.greedy

exception Budget_exceeded

(* Branch and bound on the max-degree vertex of the remaining graph.
   The bound is the trivial |remaining| plus current; adequate for the
   small, sparse support graphs used in the experiments. *)
let exact ?(max_nodes = 5_000_000) g =
  let n = Graph.n g in
  let best = ref (List.length (greedy g)) in
  let nodes = ref 0 in
  let alive = Array.make n true in
  let alive_count = ref n in
  let rec branch current =
    incr nodes;
    if !nodes > max_nodes then raise Budget_exceeded;
    if current + !alive_count <= !best then ()
    else begin
      (* pick an alive vertex of max alive-degree *)
      let pick = ref (-1) in
      let pick_deg = ref (-1) in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let d =
            List.length (List.filter (fun w -> alive.(w)) (Graph.neighbors g v))
          in
          if d > !pick_deg then begin
            pick := v;
            pick_deg := d
          end
        end
      done;
      if !pick = -1 then begin
        if current > !best then best := current
      end
      else if !pick_deg <= 1 then begin
        (* Remaining graph is a union of isolated vertices and single
           edges: take one endpoint of each edge and all isolated. *)
        let extra = ref 0 in
        let taken = Array.make n false in
        for v = 0 to n - 1 do
          if alive.(v) && not taken.(v) then begin
            incr extra;
            taken.(v) <- true;
            List.iter
              (fun w -> if alive.(w) then taken.(w) <- true)
              (Graph.neighbors g v)
          end
        done;
        if current + !extra > !best then best := current + !extra
      end
      else begin
        let v = !pick in
        let removed = ref [] in
        let kill u =
          if alive.(u) then begin
            alive.(u) <- false;
            decr alive_count;
            removed := u :: !removed
          end
        in
        (* Branch 1: include v *)
        kill v;
        List.iter kill (Graph.neighbors g v);
        branch (current + 1);
        List.iter
          (fun u ->
            alive.(u) <- true;
            incr alive_count)
          !removed;
        (* Branch 2: exclude v *)
        alive.(v) <- false;
        decr alive_count;
        branch current;
        alive.(v) <- true;
        incr alive_count
      end
    end
  in
  match branch 0 with
  | () -> Some !best
  | exception Budget_exceeded -> None
