open Slocal_graph
open Slocal_formalism
module Telemetry = Slocal_obs.Telemetry

type outcome =
  | Solution of int array
  | No_solution
  | Budget_exceeded

type stats = {
  nodes : int;
  backtracks : int;
  fc_prunes : int;
  max_nodes : int;
  budget_exhausted : bool;
}

exception Budget
exception Found

let c_solves = Telemetry.counter "solver.solves"
let c_nodes = Telemetry.counter "solver.nodes"
let c_backtracks = Telemetry.counter "solver.backtracks"
let c_prunes = Telemetry.counter "solver.fc_prunes"
let c_budget = Telemetry.counter "solver.budget_exhausted"
let c_solutions = Telemetry.counter "solver.solutions"

(* Edge ordering: BFS over the graph so that consecutive variables
   share nodes and pruning bites early. *)
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

(* The raw search.  Effort is accumulated into the caller's local
   refs (not the global telemetry counters) so the innermost loop
   costs exactly what it did before instrumentation; callers flush the
   totals into the global counters once per solve.

   Each constrained node keeps the down-closure-automaton state of its
   assigned incident labels ([Constr.root] before any) and how many of
   them it has: a candidate label costs one [Constr.step_state], and
   backtracking restores the two ints. *)
let search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes
    ~on_solution bip (p : Problem.t) =
  let g = Bipartite.graph bip in
  let order = edge_order g in
  let m = Graph.m g in
  let n = Graph.n g in
  let sigma = Alphabet.size p.Problem.alphabet in
  let dw = Problem.d_white p and db = Problem.d_black p in
  let constr_of v =
    match Bipartite.color bip v with
    | Bipartite.White -> if Graph.degree g v = dw then Some p.Problem.white else None
    | Bipartite.Black -> if Graph.degree g v = db then Some p.Problem.black else None
  in
  let node_constr = Array.init n constr_of in
  let state =
    Array.map (function Some c -> Constr.root c | None -> 0) node_constr
  in
  let filled = Array.make n 0 in
  let labeling = Array.make m (-1) in
  (* [next w l]: the state of [w] after adding [l] ([0] at an
     unconstrained node); [accepts w s'] decides the label from it.
     Without forward checking a state may die below full arity and is
     only tested once the node is full, where a live state is exactly
     a configuration. *)
  let next w l =
    match node_constr.(w) with
    | None -> 0
    | Some c -> Constr.step_state c state.(w) l
  in
  let accepts w s' =
    match node_constr.(w) with
    | None -> true
    | Some c ->
        if forward_checking then
          s' >= 0
          || begin
               incr prunes;
               false
             end
        else filled.(w) + 1 < Constr.arity c || s' >= 0
  in
  let rec assign i =
    incr nodes;
    if !nodes > max_nodes then raise Budget;
    (* Live heartbeat for interactive long solves: one cheap masked
       test per node, everything else behind [Progress]'s own
       activity/throttle checks. *)
    if !nodes land 0x3FFF = 0 then
      Slocal_obs.Progress.solver_tick ~nodes:!nodes;
    if i = m then on_solution labeling
    else begin
      let e = order.(i) in
      let u, v = Graph.edge g e in
      let su0 = state.(u) and sv0 = state.(v) in
      for l = 0 to sigma - 1 do
        let su = next u l in
        if accepts u su then begin
          let sv = next v l in
          if accepts v sv then begin
            labeling.(e) <- l;
            state.(u) <- su;
            state.(v) <- sv;
            filled.(u) <- filled.(u) + 1;
            filled.(v) <- filled.(v) + 1;
            assign (i + 1);
            incr backtracks;
            state.(u) <- su0;
            state.(v) <- sv0;
            filled.(u) <- filled.(u) - 1;
            filled.(v) <- filled.(v) - 1;
            labeling.(e) <- -1
          end
        end
      done
    end
  in
  assign 0

(* Run [search_raw] with fresh effort accounting, translate the three
   exit paths through [on_exit], and flush the totals into the global
   telemetry counters exactly once. *)
let instrumented ~max_nodes ~forward_checking ~on_solution ~on_exit bip p =
  Telemetry.incr c_solves;
  let nodes = ref 0 and backtracks = ref 0 and prunes = ref 0 in
  let finish outcome =
    Telemetry.add c_nodes !nodes;
    Telemetry.add c_backtracks !backtracks;
    Telemetry.add c_prunes !prunes;
    ( outcome,
      {
        nodes = !nodes;
        backtracks = !backtracks;
        fc_prunes = !prunes;
        max_nodes;
        budget_exhausted = (outcome = `Budget);
      } )
  in
  let exit_kind, st =
    match
      search_raw ~max_nodes ~forward_checking ~nodes ~backtracks ~prunes
        ~on_solution bip p
    with
    | () -> finish `Exhausted
    | exception Found -> finish `Found
    | exception Budget ->
        Telemetry.incr c_budget;
        finish `Budget
  in
  (on_exit exit_kind, st)

let solve_stats ?(max_nodes = 20_000_000) ?(forward_checking = true) bip p =
  Telemetry.span "solver.solve" @@ fun () ->
  let result = ref No_solution in
  instrumented ~max_nodes ~forward_checking
    ~on_solution:(fun labeling ->
      result := Solution (Array.copy labeling);
      Telemetry.incr c_solutions;
      raise Found)
    ~on_exit:(fun exit_kind ->
      match exit_kind with
      | `Found | `Exhausted -> !result
      | `Budget -> Budget_exceeded)
    bip p

let solve ?max_nodes ?forward_checking bip p =
  fst (solve_stats ?max_nodes ?forward_checking bip p)

let solvable ?max_nodes bip p =
  match solve ?max_nodes bip p with
  | Solution _ -> Some true
  | No_solution -> Some false
  | Budget_exceeded -> None

let count_solutions ?(max_nodes = 20_000_000) ?(limit = max_int) bip p =
  Telemetry.span "solver.count_solutions" @@ fun () ->
  let count = ref 0 in
  fst
    (instrumented ~max_nodes ~forward_checking:true
       ~on_solution:(fun _ ->
         incr count;
         Telemetry.incr c_solutions;
         if !count >= limit then raise Found)
       ~on_exit:(fun exit_kind ->
         match exit_kind with
         | `Found | `Exhausted -> Some !count
         | `Budget -> None)
       bip p)

let solve_non_bipartite ?max_nodes h p =
  solve ?max_nodes (Hypergraph.incidence h) p
