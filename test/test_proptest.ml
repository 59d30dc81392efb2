(* Differential property suite: the fast kernel against the reference
   oracles, on seeded random instances (see [proptest.ml] for the
   harness).

   Two families of properties:

   - whole-step: [Re_step.re] (fast kernel, cache off) produces the
     same problem as [Re_reference.re] up to label renaming, on 200
     random problems per arity profile — including problems where both
     must reject with an empty result constraint;

   - per-query: [Constr]'s memoized membership / extendability /
     quantified-choice queries agree with the unmemoized scans in
     [Constr_reference] on random constraints and random condensed
     queries.

   The seed defaults to a fixed value and can be rotated from the
   environment: PROPTEST_SEED=12345 dune runtest. *)

module Multiset = Slocal_util.Multiset
module Prng = Slocal_util.Prng
open Slocal_formalism

let seed = Proptest.seed_from_env ~default:420824
let () = Printf.printf "proptest: PROPTEST_SEED=%d\n%!" seed

let run p =
  match Proptest.run ~seed p with
  | () -> ()
  | exception Failure msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Fast RE vs reference RE *)

(* Both kernels reject problems whose RE has an empty result
   constraint; agreement includes agreeing to reject. *)
let re_outcome f p =
  match f p with
  | q -> Some q
  | exception Invalid_argument _ -> None

(* RE on a random problem can be genuinely exponential: R can emit a
   large antichain alphabet, and then the candidate family of R̄ (the
   right-closed sets of the new diagram) explodes — in both kernels.
   The R step is always compared; the R̄ step only when its candidate
   enumeration is tractable for the bottom-up reference oracle. *)
let r_bar_tractable q =
  Alphabet.size q.Problem.alphabet <= 12
  &&
  let candidates =
    List.length (Diagram.right_closed_sets (Diagram.white q))
  in
  (* The oracle answers each of the multichoose(c, d) configurations by
     unmemoized scans over the constraint list, so bound the product. *)
  Slocal_util.Combinat.multichoose candidates (Problem.d_white q)
  * Constr.size q.Problem.white
  <= 100_000

let agree p =
  let fast = re_outcome (fun p -> (Re_step.r_black p).Re_step.problem) p
  and slow = re_outcome (fun p -> fst (Re_reference.r_black p)) p in
  match (fast, slow) with
  | None, None -> true
  | Some q1, Some q2 ->
      Problem.equal_up_to_renaming q1 q2
      && (not (r_bar_tractable q1)
         ||
         let fast' =
           re_outcome (fun q -> (Re_step.r_white q).Re_step.problem) q1
         and slow' = re_outcome (fun q -> fst (Re_reference.r_white q)) q1 in
         match (fast', slow') with
         | None, None -> true
         | Some r1, Some r2 -> Problem.equal_up_to_renaming r1 r2
         | _ -> false)
  | _ -> false

let arity_profiles = [ (2, 2); (2, 3); (3, 2); (3, 3) ]

let re_tests =
  List.map
    (fun (d_white, d_black) ->
      let name = Printf.sprintf "re fast = reference (%d,%d)" d_white d_black in
      Alcotest.test_case name `Slow (fun () ->
          Re_step.set_kernel Re_step.Fast;
          run
            (Proptest.property ~count:200 ~name
               ~gen:(Proptest.problem ~d_white ~d_black)
               ~print:Proptest.print_problem ~shrink:Proptest.shrink_problem
               agree)))
    arity_profiles

(* ------------------------------------------------------------------ *)
(* Memoized constraint queries vs the unmemoized oracle *)

type query_case = {
  constr : Constr.t;
  full : int list list; (* arity positions *)
  partial : int list list; (* 1 .. arity-1 positions *)
  m : Multiset.t; (* size 0 .. arity+1 *)
}

let query_gen g =
  let arity = Proptest.int_range 2 3 g in
  let n = Proptest.int_range 2 4 g in
  let labels = List.init n (fun i -> i) in
  let constr = Proptest.constr ~arity ~labels g in
  {
    constr;
    full = Proptest.query ~positions:arity ~labels g;
    partial =
      Proptest.query ~positions:(Proptest.int_range 1 (arity - 1) g) ~labels g;
    m = Proptest.multiset ~size:(Proptest.int_range 0 (arity + 1) g) ~labels g;
  }

let print_query_case c =
  let sets ss =
    String.concat " "
      (List.map
         (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}")
         ss)
  in
  Printf.sprintf "constr (arity %d): %s\nfull: %s\npartial: %s\nm: %s"
    (Constr.arity c.constr)
    (String.concat " | "
       (List.map
          (fun m ->
            String.concat "" (List.map string_of_int (Multiset.to_list m)))
          (Constr.configs c.constr)))
    (sets c.full) (sets c.partial)
    (String.concat "" (List.map string_of_int (Multiset.to_list c.m)))

let queries_agree c =
  let open Constr_reference in
  Constr.mem c.m c.constr = mem c.m c.constr
  && Constr.extendable c.m c.constr = extendable c.m c.constr
  && Constr.exists_choice c.full c.constr = exists_choice c.full c.constr
  && Constr.for_all_choices c.full c.constr = for_all_choices c.full c.constr
  && Constr.exists_choice_partial c.partial c.constr
     = exists_choice_partial c.partial c.constr
  && Constr.for_all_choices_partial c.partial c.constr
     = for_all_choices_partial c.partial c.constr
  (* Ask everything twice: the second round must be answered from the
     memo tables with identical results. *)
  && Constr.exists_choice c.full c.constr = exists_choice c.full c.constr
  && Constr.for_all_choices_partial c.partial c.constr
     = for_all_choices_partial c.partial c.constr

let constr_tests =
  [
    Alcotest.test_case "memoized queries = oracle" `Slow (fun () ->
        run
          (Proptest.property ~count:400 ~name:"constr queries" ~gen:query_gen
             ~print:print_query_case queries_agree));
  ]

(* ------------------------------------------------------------------ *)
(* The down-closure automaton on large constraints

   Constraints up to arity 5 over up to 24 labels with up to a few
   thousand configurations, queried with small position sets drawn
   around actual configurations (so both answers occur), sometimes with
   an empty set or a label no configuration uses.  The queries of two
   constraints are interleaved, so each walk runs on an automaton whose
   stamps the previous walks left behind. *)

type automaton_case = {
  pair : Constr.t * Constr.t;
  queries : (bool * int list list * Multiset.t) list;
      (* (ask the first constraint?, position sets, multiset) *)
}

let big_constr ~arity ~labels g =
  let n = List.length labels in
  let count = Proptest.int_range 1 (min 3000 (Slocal_util.Combinat.multichoose n arity)) g in
  Constr.make ~arity
    (List.init count (fun _ -> Proptest.multiset ~size:arity ~labels g))

(* Per position: the label of a random configuration there (or a random
   label), plus up to two random labels; rarely empty, or a label no
   configuration uses — past the bitset universe half the time, which
   keys the memo tables by label lists instead of bitsets. *)
let sets_around ~positions ~labels c g =
  let base = Array.of_list (Multiset.to_list (Prng.pick g (Constr.configs c))) in
  List.init positions (fun i ->
      match Prng.int g 40 with
      | 0 -> []
      | 1 -> [ (if Prng.bool g then List.length labels + 3 else 70) ]
      | _ ->
          let own =
            if i < Array.length base && Prng.int g 4 > 0 then base.(i)
            else Prng.pick g labels
          in
          own :: List.init (Prng.int g 3) (fun _ -> Prng.pick g labels))

let automaton_gen g =
  let arity = Proptest.int_range 2 5 g in
  let n = Proptest.int_range 2 24 g in
  let labels = List.init n Fun.id in
  let a = big_constr ~arity ~labels g and b = big_constr ~arity ~labels g in
  let queries =
    List.init 12 (fun _ ->
        let first = Prng.bool g in
        let c = if first then a else b in
        let positions = Proptest.int_range 0 arity g in
        let m =
          if Prng.bool g then
            Multiset.of_list
              (List.filteri (fun _ _ -> Prng.bool g)
                 (Multiset.to_list (Prng.pick g (Constr.configs c))))
          else Proptest.multiset ~size:(Proptest.int_range 0 (arity + 1) g) ~labels:(n :: labels) g
        in
        (first, sets_around ~positions ~labels c g, m))
  in
  { pair = (a, b); queries }

let print_automaton_case { pair = a, b; queries } =
  let sets ss =
    String.concat " "
      (List.map (fun s -> "{" ^ String.concat "," (List.map string_of_int s) ^ "}") ss)
  in
  Printf.sprintf "arity %d, %d and %d configurations\n%s" (Constr.arity a)
    (Constr.size a) (Constr.size b)
    (String.concat "\n"
       (List.map
          (fun (first, ss, m) ->
            Printf.sprintf "%s: %s / m = %s" (if first then "A" else "B") (sets ss)
              (String.concat "," (List.map string_of_int (Multiset.to_list m))))
          queries))

let automaton_agrees { pair = a, b; queries } =
  let open Constr_reference in
  List.for_all
    (fun (first, ss, m) ->
      let c = if first then a else b in
      let full = List.length ss = Constr.arity c in
      Constr.extendable m c = extendable m c
      && Constr.extendable_labels (List.rev (Multiset.to_list m)) c = extendable m c
      && Constr.exists_choice_partial ss c = exists_choice_partial ss c
      && Constr.for_all_choices_partial ss c = for_all_choices_partial ss c
      && ((not full)
         || Constr.exists_choice ss c = exists_choice ss c
            && Constr.for_all_choices ss c = for_all_choices ss c
            && Re_step.violating_choice ss c
               = Violating_choice_reference.violating_choice ss c))
    (queries @ queries)

let automaton_tests =
  [
    Alcotest.test_case "automaton queries = oracle (arity <= 5, <= 24 labels)"
      `Slow (fun () ->
        run
          (Proptest.property ~count:60 ~name:"automaton queries" ~gen:automaton_gen
             ~print:print_automaton_case automaton_agrees));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental relaxation search vs the full re-check *)

(* The budget keeps the full re-check's worst cases to milliseconds;
   exhausting it on both sides at the same node is agreement too. *)
let same_search src dst =
  Relaxation.search ~max_nodes:20_000 src dst
  = Relaxation_reference.search ~max_nodes:20_000 src dst

let relaxation_gen g =
  let d_white, d_black = Prng.pick g arity_profiles in
  let src = Proptest.problem ~d_white ~d_black g in
  (* Half the pairs relax RE of a problem back to the problem, as the
     lower-bound sequence checks do (when its R̄ step is tractable, as
     in the RE differential above); half are unrelated. *)
  let re_of p =
    let q = (Re_step.r_black p).Re_step.problem in
    if r_bar_tractable q then Some (Re_step.r_white q).Re_step.problem else None
  in
  match Prng.bool g with
  | true -> (
      match re_of src with
      | Some q -> (q, src)
      | None | (exception (Invalid_argument _ | Re_step.Alphabet_too_large _)) -> (src, src))
  | false -> (src, Proptest.problem ~d_white ~d_black g)

let relaxation_tests =
  let module MF = Slocal_problems.Matching_family in
  [
    Alcotest.test_case "incremental search = full re-check (random pairs)" `Slow
      (fun () ->
        run
          (Proptest.property ~count:300 ~name:"relaxation search"
             ~gen:relaxation_gen
             ~print:(fun (a, b) ->
               Proptest.print_problem a ^ "\n--\n" ^ Proptest.print_problem b)
             (fun (src, dst) -> same_search src dst)));
    Alcotest.test_case "incremental search = full re-check (E-SEQ pairs)" `Slow
      (fun () ->
        Re_step.set_kernel Re_step.Fast;
        let pairs =
          List.map
            (fun (delta, x, y) ->
              (Re_step.re (MF.pi ~delta ~x ~y), MF.pi ~delta ~x:(x + y) ~y))
            [ (3, 0, 1); (4, 0, 1); (4, 1, 1); (4, 2, 1) ]
          @ List.map
              (fun ((x, y), (x', y')) -> (MF.pi ~delta:4 ~x ~y, MF.pi ~delta:4 ~x:x' ~y:y'))
              [ ((0, 1), (1, 1)); ((0, 1), (0, 2)); ((1, 1), (2, 2)) ]
        in
        List.iteri
          (fun i (src, dst) ->
            let ((verdict, _) as fast) = Relaxation.search ~max_nodes:5_000_000 src dst in
            Alcotest.(check bool)
              (Printf.sprintf "pair %d: same verdict, witness and nodes" i)
              true
              (fast = Relaxation_reference.search ~max_nodes:5_000_000 src dst);
            Alcotest.(check bool)
              (Printf.sprintf "pair %d verified" i)
              true
              (match verdict with Some (Some _) -> true | _ -> false))
          pairs);
  ]

(* ------------------------------------------------------------------ *)
(* Flat-state deciders vs the list-based oracles

   [Solver] keeps one automaton state per node and [Zero_round_search]
   compiles its instances to int arrays; both must run exactly the
   search of the oracles in [test/]: same outcome, labeling or table,
   and the same effort, budget exhaustion included.  Supports are
   bipartite cycles and random biregular graphs; problems are random,
   their arities matching the support's degrees or not (a node whose
   degree differs from its side's arity is unconstrained for the
   solver, and the 0-round search caps input degrees at the arities). *)

module Bipartite = Slocal_graph.Bipartite
module Solver = Slocal_model.Solver
module Zrs = Slocal_model.Zero_round_search
module Telemetry = Slocal_obs.Telemetry

let bipartite_cycle k =
  Bipartite.make
    (Slocal_graph.Graph_gen.cycle (2 * k))
    (Array.init (2 * k) (fun v -> if v mod 2 = 0 then Bipartite.White else Bipartite.Black))

(* (white degree, black degree, whites, blacks) of small biregular
   supports, at most [max_edges] edges. *)
let biregular_shapes =
  [ (2, 2, 2, 2); (2, 2, 3, 3); (2, 2, 4, 4); (2, 3, 3, 2); (3, 2, 2, 3);
    (3, 3, 3, 3); (2, 3, 6, 4); (3, 3, 4, 4); (3, 2, 4, 6); (2, 2, 6, 6) ]

let support ~max_edges g =
  let shapes = List.filter (fun (dw, _, nw, _) -> dw * nw <= max_edges) biregular_shapes in
  if Prng.int g 3 = 0 then bipartite_cycle (Proptest.int_range 2 (max_edges / 2) g)
  else
    let dw, db, nw, nb = Prng.pick g shapes in
    Slocal_graph.Graph_gen.random_biregular g ~nw ~nb ~dw ~db

type decider_case = { bip : Bipartite.t; problem : Problem.t; knob : int }

let decider_gen ~max_edges g =
  let bip = support ~max_edges g in
  let d_white, d_black = Prng.pick g arity_profiles in
  { bip; problem = Proptest.problem ~d_white ~d_black g; knob = Prng.int g 6 }

let print_decider_case c =
  let gr = Bipartite.graph c.bip in
  Printf.sprintf "support: %s\nknob %d\n%s"
    (String.concat " "
       (List.map
          (fun (u, v) -> Printf.sprintf "%d-%d" u v)
          (Array.to_list (Slocal_graph.Graph.edges gr))))
    c.knob
    (Proptest.print_problem c.problem)

let counter_delta names f =
  let ms = List.map Telemetry.counter names in
  let before = List.map Telemetry.value ms in
  let r = f () in
  (r, List.map2 (fun m b -> Telemetry.value m - b) ms before)

let solver_budget = 20_000

(* A third of the solves run under a budget small enough to end them. *)
let same_solve { bip; problem; knob } =
  let forward_checking = knob mod 2 = 0 in
  let max_nodes = if knob >= 4 then 40 else solver_budget in
  let outcome, (st : Solver.stats) =
    Solver.solve_stats ~max_nodes ~forward_checking bip problem
  and outcome', (st' : Solver_reference.stats) =
    Solver_reference.solve_stats ~max_nodes ~forward_checking bip problem
  in
  outcome = outcome'
  && (st.Solver.nodes, st.Solver.backtracks, st.Solver.fc_prunes)
     = (st'.Solver_reference.nodes, st'.Solver_reference.backtracks, st'.Solver_reference.fc_prunes)
  && st.Solver.budget_exhausted = (outcome = Solver.Budget_exceeded)

let same_count { bip; problem; knob } =
  let limit = if knob = 0 then max_int else knob in
  let count, deltas =
    counter_delta [ "solver.nodes"; "solver.backtracks"; "solver.fc_prunes" ] (fun () ->
        Solver.count_solutions ~max_nodes:solver_budget ~limit bip problem)
  and count', (st' : Solver_reference.stats) =
    Solver_reference.count_solutions ~max_nodes:solver_budget ~limit bip problem
  in
  count = count'
  && deltas
     = [ st'.Solver_reference.nodes; st'.Solver_reference.backtracks;
         st'.Solver_reference.fc_prunes ]

let zrs_budget = 20_000

let bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let same_search { bip; problem; _ } =
  let d_in_white = Problem.d_white problem and d_in_black = Problem.d_black problem in
  let found, deltas =
    counter_delta
      [ "zrs.assignments"; "zrs.instance_checks"; "zrs.table_hits"; "zrs.table_misses" ]
      (fun () ->
        Zrs.find_algorithm ~max_assignments:zrs_budget bip problem ~d_in_white ~d_in_black)
  and found', (n' : Zero_round_search_reference.counts) =
    Zero_round_search_reference.find_algorithm ~max_assignments:zrs_budget bip problem
      ~d_in_white ~d_in_black
  in
  let open Zero_round_search_reference in
  deltas = [ n'.assignments; n'.instance_checks; n'.table_hits; n'.table_misses ]
  &&
  match (found, found') with
  | None, None | Some None, Some None -> true
  | Some (Some t), Some (Some t') ->
      bindings t = bindings t'
      && Zrs.table_correct bip problem ~d_in_white ~d_in_black t
  | _ -> false

let decider_property ~count ~max_edges ~name prop =
  Proptest.property ~count ~name ~gen:(decider_gen ~max_edges) ~print:print_decider_case prop

let decider_tests =
  [
    Alcotest.test_case "solver = multiset solver (both fc modes)" `Slow (fun () ->
        run (decider_property ~count:300 ~max_edges:18 ~name:"solver" same_solve));
    Alcotest.test_case "count_solutions = multiset solver" `Slow (fun () ->
        run (decider_property ~count:200 ~max_edges:18 ~name:"count" same_count));
    Alcotest.test_case "0-round search = list-based search" `Slow (fun () ->
        run (decider_property ~count:150 ~max_edges:10 ~name:"zrs" same_search));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation determinism: the sequential kernel allocates the same
   number of bytes on every run over the same seeded problems — the
   property underpinning the bench harness's 1.02x allocation gate
   (DESIGN.md, bench schema).  Each sweep regenerates the problems
   from the same seed (fresh constraint memo tables) and runs with the
   cross-invocation cache off, so every sweep performs byte-identical
   work.  One warmup sweep first: lazy global state (metric
   registries, table growth) may allocate once per process, not per
   run. *)

let alloc_determinism_tests =
  [
    Alcotest.test_case "sequential RE allocation deterministic" `Slow
      (fun () ->
        Re_step.set_kernel Re_step.Fast;
        let problems () =
          let g = Slocal_util.Prng.create seed in
          List.init 50 (fun _ -> Proptest.problem ~d_white:2 ~d_black:2 g)
        in
        let alloc_of f =
          (* Minor-words delta with endpoint flushes, the same
             collection-timing-independent measurement the bench
             harness uses for alloc_b (see bench/main.ml): on OCaml
             5.1, [Gc.allocated_bytes] deltas inflate by whatever an
             in-region minor collection happens to promote. *)
          Gc.minor ();
          let m0 = (Gc.quick_stat ()).Gc.minor_words in
          f ();
          Gc.minor ();
          let m1 = (Gc.quick_stat ()).Gc.minor_words in
          int_of_float ((m1 -. m0) *. float_of_int (Sys.word_size / 8))
        in
        let sweep () =
          List.map
            (fun p ->
              alloc_of (fun () ->
                  match Re_step.re ~cache:false p with
                  | (_ : Problem.t) -> ()
                  | exception Invalid_argument _ -> ()))
            (problems ())
        in
        ignore (sweep () : int list);
        let first = sweep () and second = sweep () in
        List.iteri
          (fun i (a, b) ->
            if a <> b then
              Alcotest.fail
                (Printf.sprintf
                   "allocation differs on problem %d of the sweep: %dB vs \
                    %dB; reproduce with PROPTEST_SEED=%d"
                   i a b seed))
          (List.combine first second))
  ]

(* Suite names stay within the 19 characters of "constr-differential":
   Alcotest sizes its name column by the longest suite name and
   truncates test names to fit, so a longer one would change how every
   test in this file is printed and reported. *)
let () =
  Alcotest.run "proptest"
    [
      ("re-differential", re_tests);
      ("constr-differential", constr_tests);
      ("automaton-oracle", automaton_tests);
      ("relaxation-oracle", relaxation_tests);
      ("decider-oracle", decider_tests);
      ("alloc-determinism", alloc_determinism_tests);
    ]
