(* The exact solver as it was before its nodes kept automaton states:
   every node holds the multiset of its assigned incident labels, and a
   candidate label is checked by merging it into that multiset and
   asking [Constr.extendable] (or, without forward checking, [Constr.mem]
   at full arity).  Kept verbatim bar the telemetry and the progress
   heartbeat, as the oracle for [Solver]: on every input the two must
   return the same outcome, labeling and effort totals. *)

open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset

type stats = { nodes : int; backtracks : int; fc_prunes : int }

exception Budget
exception Found

let edge_order g =
  let m = Graph.m g in
  let seen_edge = Array.make m false in
  let seen_node = Array.make (Graph.n g) false in
  let order = ref [] in
  let q = Queue.create () in
  for start = 0 to Graph.n g - 1 do
    if not seen_node.(start) then begin
      seen_node.(start) <- true;
      Queue.push start q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun e ->
            if not seen_edge.(e) then begin
              seen_edge.(e) <- true;
              order := e :: !order;
              let w = Graph.other_end g e v in
              if not seen_node.(w) then begin
                seen_node.(w) <- true;
                Queue.push w q
              end
            end)
          (Graph.incident g v)
      done
    end
  done;
  Array.of_list (List.rev !order)

let search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes
    ~on_solution bip (p : Problem.t) =
  let g = Bipartite.graph bip in
  let order = edge_order g in
  let m = Graph.m g in
  let sigma = Alphabet.size p.Problem.alphabet in
  let dw = Problem.d_white p and db = Problem.d_black p in
  let constr_of v =
    match Bipartite.color bip v with
    | Bipartite.White -> if Graph.degree g v = dw then Some p.Problem.white else None
    | Bipartite.Black -> if Graph.degree g v = db then Some p.Problem.black else None
  in
  let node_constr = Array.init (Graph.n g) constr_of in
  let partial = Array.make (Graph.n g) Multiset.empty in
  let labeling = Array.make m (-1) in
  let rec assign i =
    incr nodes;
    if !nodes > max_nodes then raise Budget;
    if i = m then on_solution labeling
    else begin
      let e = order.(i) in
      let u, v = Graph.edge g e in
      for l = 0 to sigma - 1 do
        let ok_at w =
          match node_constr.(w) with
          | None -> true
          | Some c ->
              let part = Multiset.add l partial.(w) in
              if forward_checking then
                Constr.extendable part c
                || begin
                     incr prunes;
                     false
                   end
              else Multiset.size part < Constr.arity c || Constr.mem part c
        in
        if ok_at u && ok_at v then begin
          labeling.(e) <- l;
          partial.(u) <- Multiset.add l partial.(u);
          partial.(v) <- Multiset.add l partial.(v);
          assign (i + 1);
          incr backtracks;
          partial.(u) <- Multiset.remove l partial.(u);
          partial.(v) <- Multiset.remove l partial.(v);
          labeling.(e) <- -1
        end
      done
    end
  in
  assign 0

let run ~max_nodes ~forward_checking ~on_solution bip p =
  let nodes = ref 0 and backtracks = ref 0 and prunes = ref 0 in
  let exit_kind =
    match
      search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes
        ~on_solution bip p
    with
    | () -> `Exhausted
    | exception Found -> `Found
    | exception Budget -> `Budget
  in
  (exit_kind, { nodes = !nodes; backtracks = !backtracks; fc_prunes = !prunes })

let solve_stats ?(max_nodes = 20_000_000) ?(forward_checking = true) bip p =
  let result = ref Slocal_model.Solver.No_solution in
  let exit_kind, st =
    run ~max_nodes ~forward_checking
      ~on_solution:(fun labeling ->
        result := Slocal_model.Solver.Solution (Array.copy labeling);
        raise Found)
      bip p
  in
  match exit_kind with
  | `Found | `Exhausted -> (!result, st)
  | `Budget -> (Slocal_model.Solver.Budget_exceeded, st)

let count_solutions ?(max_nodes = 20_000_000) ?(limit = max_int) bip p =
  let count = ref 0 in
  let exit_kind, st =
    run ~max_nodes ~forward_checking:true
      ~on_solution:(fun _ ->
        incr count;
        if !count >= limit then raise Found)
      bip p
  in
  match exit_kind with
  | `Found | `Exhausted -> (Some !count, st)
  | `Budget -> (None, st)
