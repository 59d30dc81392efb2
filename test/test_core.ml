(* Tests for the core framework: the lift operator (Definition 3.1),
   Theorem 3.2 in both directions (including an exhaustive sweep over
   all two-label arity-2 problems on small supports), round counting
   (Theorem B.2), derandomization (Lemma C.2), the bound formulas, and
   the executable counting arguments of Sections 4-6. *)

module Graph = Slocal_graph.Graph
module Bipartite = Slocal_graph.Bipartite
module Hypergraph = Slocal_graph.Hypergraph
module Gen = Slocal_graph.Graph_gen
module Coloring = Slocal_graph.Coloring
module Prng = Slocal_util.Prng
module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Alphabet = Slocal_formalism.Alphabet
module Constr = Slocal_formalism.Constr
module Problem = Slocal_formalism.Problem
module Diagram = Slocal_formalism.Diagram
module Checker = Slocal_model.Checker
module Solver = Slocal_model.Solver
module Supported = Slocal_model.Supported
module Zrs = Slocal_model.Zero_round_search
module MF = Slocal_problems.Matching_family
module CF = Slocal_problems.Coloring_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic
module Lift = Supported_local.Lift
module Zero_round = Supported_local.Zero_round
module Re_supported = Supported_local.Re_supported
module Derandomize = Supported_local.Derandomize
module Bounds = Supported_local.Bounds
module Counting = Supported_local.Counting
module Framework = Supported_local.Framework

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let bipartite_cycle k =
  let g = Gen.cycle (2 * k) in
  Bipartite.make g
    (Array.init (2 * k) (fun v ->
         if v mod 2 = 0 then Bipartite.White else Bipartite.Black))

let coloring2 = Classic.coloring ~delta:2 ~c:2

(* ------------------------------------------------------------------ *)
(* Lift *)

let test_lift_2coloring () =
  let l = Lift.lift ~delta:2 ~r:2 coloring2 in
  (* Right-closed sets of the black diagram of 2-coloring: {c1}, {c2},
     {c1,c2}. *)
  check int_t "three label-sets" 3 (Array.length l.Lift.meaning);
  check int_t "single black config {c1}{c2}" 1 (Constr.size l.Lift.problem.Problem.black);
  check int_t "five white configs" 5 (Constr.size l.Lift.problem.Problem.white)

let test_lift_meanings_right_closed () =
  let p = MF.pi_last ~delta:3 ~y:1 in
  let l = Lift.lift ~delta:5 ~r:5 p in
  let d = Diagram.black p in
  Array.iter
    (fun s ->
      check bool_t "right-closed" true (Diagram.is_right_closed d s);
      check bool_t "non-empty" false (Bitset.is_empty s))
    l.Lift.meaning

let test_lift_rejects_small_degrees () =
  Alcotest.check_raises "delta too small"
    (Invalid_argument "Lift.lift: delta < white arity of base") (fun () ->
      ignore (Lift.lift ~delta:1 ~r:2 coloring2))

let test_lift_label_lookup () =
  let l = Lift.lift ~delta:2 ~r:2 coloring2 in
  Array.iteri
    (fun i s ->
      check (Alcotest.option int_t) "label_of_set roundtrip" (Some i)
        (Lift.label_of_set l s))
    l.Lift.meaning;
  check (Alcotest.option int_t) "empty set is not a label" None
    (Lift.label_of_set l Bitset.empty)

(* The sinkless orientation counting phenomenon: lift_{4,4}(SO_3) is
   solvable on (4,4)-biregular graphs (a 2-factor supplies it), while
   lift_{5,5}(SO_3) is unsolvable on every (5,5)-biregular graph. *)
let test_lift_sinkless_44_solvable () =
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 5 in
  let support = Gen.random_biregular rng ~nw:5 ~nb:5 ~dw:4 ~db:4 in
  let l = Lift.lift ~delta:4 ~r:4 so in
  match Solver.solve support l.Lift.problem with
  | Solver.Solution s ->
      check bool_t "checker accepts" true (Checker.is_solution support l.Lift.problem s)
  | _ -> Alcotest.fail "lift_{4,4}(SO) should be solvable"

let test_lift_sinkless_55_unsolvable () =
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 6 in
  let support = Gen.random_biregular rng ~nw:6 ~nb:6 ~dw:5 ~db:5 in
  check (Alcotest.option bool_t) "unsolvable" (Some false)
    (Zero_round.solvable support so)

(* ------------------------------------------------------------------ *)
(* Theorem 3.2: decision procedure vs exhaustive algorithm search *)

let test_thm32_c4_c6 () =
  check (Alcotest.option bool_t) "C4 2-coloring 0-round" (Some true)
    (Zero_round.solvable (bipartite_cycle 2) coloring2);
  check (Alcotest.option bool_t) "C6 2-coloring not 0-round" (Some false)
    (Zero_round.solvable (bipartite_cycle 3) coloring2)

(* All problems over two labels with arity-2 white and black
   constraints: 7 x 7 = 49 of them. *)
let all_two_label_problems () =
  let configs =
    [ Multiset.of_list [ 0; 0 ]; Multiset.of_list [ 0; 1 ]; Multiset.of_list [ 1; 1 ] ]
  in
  let nonempty_subsets =
    List.filter (fun s -> s <> []) (List.concat_map (fun k -> Combinat.subsets_of_size k configs) [ 1; 2; 3 ])
  in
  let alphabet = Alphabet.of_names [ "A"; "B" ] in
  List.concat_map
    (fun w ->
      List.map
        (fun b ->
          Problem.make ~name:"sweep" ~alphabet
            ~white:(Constr.make ~arity:2 w)
            ~black:(Constr.make ~arity:2 b))
        nonempty_subsets)
    nonempty_subsets

let test_thm32_exhaustive_sweep_c4 () =
  let support = bipartite_cycle 2 in
  List.iter
    (fun p ->
      let via_lift = Zero_round.solvable support p in
      let via_search =
        Zrs.exists_algorithm support p ~d_in_white:2 ~d_in_black:2
      in
      check (Alcotest.option bool_t)
        (Printf.sprintf "agree on %s/%s"
           (String.concat "," (List.map (fun c -> String.concat "" (List.map string_of_int (Multiset.to_list c))) (Constr.configs p.Problem.white)))
           (String.concat "," (List.map (fun c -> String.concat "" (List.map string_of_int (Multiset.to_list c))) (Constr.configs p.Problem.black))))
        via_search via_lift)
    (all_two_label_problems ())

let test_thm32_sample_sweep_c6_c8 () =
  List.iter
    (fun k ->
      let support = bipartite_cycle k in
      let problems = all_two_label_problems () in
      List.iteri
        (fun i p ->
          if i mod 7 = 3 then begin
            let via_lift = Zero_round.solvable support p in
            let via_search =
              Zrs.exists_algorithm support p ~d_in_white:2 ~d_in_black:2
            in
            check (Alcotest.option bool_t)
              (Printf.sprintf "C_%d problem %d" (2 * k) i)
              via_search via_lift
          end)
        problems)
    [ 3; 4 ]

let test_thm32_forward_direction () =
  (* From a lift solution, the constructed 0-round algorithm solves the
     base problem on every valid input. *)
  let support = bipartite_cycle 2 in
  let l = Zero_round.lift_of_support support coloring2 in
  match Solver.solve support l.Lift.problem with
  | Solver.Solution labeling ->
      let algo = Zero_round.algorithm_of_lift_solution l support labeling in
      List.iter
        (fun inst ->
          check bool_t "solves every instance" true
            (Supported.solves algo inst coloring2))
        (Supported.all_instances support ~max_white:2 ~max_black:2)
  | _ -> Alcotest.fail "expected a lift solution on C4"

let test_thm32_backward_direction () =
  (* From a correct 0-round table, a valid lift solution is
     reconstructed. *)
  let support = bipartite_cycle 2 in
  match Zrs.find_algorithm support coloring2 ~d_in_white:2 ~d_in_black:2 with
  | Some (Some table) -> (
      let l = Zero_round.lift_of_support support coloring2 in
      match Zero_round.lift_solution_of_table l support ~d_in_white:2 table with
      | Some labeling ->
          check bool_t "reconstructed lift solution valid" true
            (Checker.is_solution support l.Lift.problem labeling)
      | None -> Alcotest.fail "reconstruction failed")
  | _ -> Alcotest.fail "expected an algorithm on C4"


(* 2-coloring on cycles: an RE fixed point whose lift solvability
   alternates with the parity of the white cycle, giving the tight
   Θ(n) Supported LOCAL bound on C_{4m+2}. *)
let test_two_coloring_cycles () =
  check bool_t "2-coloring is an RE fixed point" true
    (Slocal_formalism.Re_step.is_fixed_point coloring2);
  List.iter
    (fun (k, expected) ->
      check (Alcotest.option bool_t)
        (Printf.sprintf "C_%d" (2 * k))
        (Some expected)
        (Zero_round.solvable (bipartite_cycle k) coloring2))
    [ (3, false); (4, true); (5, false); (6, true) ];
  (* On C_10 the fixed point makes k unbounded; the girth term gives
     (10-4)/2 = 3 deterministic rounds. *)
  let r = Framework.analyze (bipartite_cycle 5) ~last_problem:coloring2 ~k:1000 in
  check (Alcotest.option int_t) "Θ(n) bound on C_10" (Some 3) r.Framework.det_rounds

(* ------------------------------------------------------------------ *)
(* Theorem B.2 / Theorem 3.4 arithmetic *)

let test_theorem_b2 () =
  check int_t "k caps" 6 (Re_supported.theorem_b2 ~k:3 ~girth:100);
  check int_t "girth caps" 3 (Re_supported.theorem_b2 ~k:100 ~girth:10);
  check int_t "hypergraph variant" 3 (Re_supported.corollary_b3 ~k:3 ~girth:100)

let test_theorem_34_shapes () =
  let det k n = Re_supported.theorem_34_det ~k ~eps:1.0 ~c:1.0 ~delta:4 ~r:4 ~n in
  (* Monotone in n until the 2k cap. *)
  check bool_t "growing" true (det 1000 1e6 < det 1000 1e12);
  check bool_t "capped by 2k" true (det 2 1e30 <= 2. *. 2.);
  let rand = Re_supported.theorem_34_rand ~k:1000 ~eps:1.0 ~c:1.0 ~delta:4 ~r:4 ~n:1e12 in
  check bool_t "randomized below deterministic" true (rand <= det 1000 1e12)

(* ------------------------------------------------------------------ *)
(* Derandomization (Appendix C) *)

let test_derandomize_counts () =
  List.iter
    (fun n ->
      let c = Derandomize.graph_instances ~n in
      check bool_t "total below 3n^2" true (c.Derandomize.log2_total <= c.Derandomize.log2_bound);
      let h = Derandomize.hypergraph_instances ~n in
      check bool_t "hyper total below 4n^3" true
        (h.Derandomize.log2_total <= h.Derandomize.log2_bound))
    [ 4; 8; 16; 64; 256 ]

let test_derandomize_monotone () =
  let t n = (Derandomize.graph_instances ~n).Derandomize.log2_total in
  check bool_t "monotone" true (t 8 < t 16 && t 16 < t 32)

let test_deterministic_from_randomized () =
  (* A flat randomized complexity stays flat; the instance size used is
     3n^2 in log2. *)
  check (Alcotest.float 1e-9) "size" 300. (Derandomize.randomized_size_for ~n:10);
  let d = Derandomize.deterministic_from_randomized ~r_complexity:(fun _ -> 7.) ~n:10 in
  check (Alcotest.float 1e-9) "evaluation" 7. d

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_matching () =
  let b = Bounds.matching ~delta:20 ~delta':4 ~x:0 ~y:1 ~eps:1.0 ~n:1e30 in
  (* k = 4 - 2 = 2, bound = 2 - 3 < 0 at this tiny Δ'; just check the
     structure and the upper bound. *)
  check bool_t "upper present" true (b.Bounds.upper = Some 5.);
  let big = Bounds.matching ~delta:160 ~delta':32 ~x:0 ~y:1 ~eps:1.0 ~n:1e30 in
  check bool_t "bound grows with Δ'" true
    (big.Bounds.deterministic > b.Bounds.deterministic);
  check bool_t "randomized <= deterministic" true
    (big.Bounds.randomized <= big.Bounds.deterministic);
  Alcotest.check_raises "ratio enforced"
    (Invalid_argument "Bounds.matching: the Section 4.2 proof needs Δ >= 5Δ'")
    (fun () -> ignore (Bounds.matching ~delta:10 ~delta':4 ~x:0 ~y:1 ~eps:1.0 ~n:1e9))

let test_bounds_matching_crossover () =
  (* For small n the log_Δ n term wins; for large n the linear-in-Δ'
     term k wins. *)
  let small = Bounds.matching ~delta:320 ~delta':64 ~x:0 ~y:1 ~eps:1.0 ~n:1e4 in
  let large = Bounds.matching ~delta:320 ~delta':64 ~x:0 ~y:1 ~eps:1.0 ~n:1e300 in
  check bool_t "crossover" true
    (small.Bounds.deterministic < large.Bounds.deterministic
    && large.Bounds.deterministic = float_of_int (64 - 2) -. 3.)

let test_bounds_arbdefective () =
  check bool_t "applicable" true
    (Bounds.arbdefective_applicable ~delta:4096 ~delta':64 ~alpha:1 ~c:8 ~eps:0.25);
  check bool_t "not applicable when (α+1)c > Δ'" false
    (Bounds.arbdefective_applicable ~delta:4096 ~delta':8 ~alpha:3 ~c:4 ~eps:0.25);
  let b = Bounds.arbdefective ~delta:4096 ~delta':64 ~alpha:1 ~c:8 ~eps:0.25 ~n:1e18 in
  check bool_t "det is log_Δ n" true (abs_float (b.Bounds.deterministic -. (log 1e18 /. log 4096.)) < 1e-9)

let test_bounds_ruling () =
  let b =
    Bounds.ruling_set ~delta:4096 ~delta':256 ~alpha:0 ~c:1 ~beta:1 ~eps:0.25
      ~cbig:2. ~n:1e18
  in
  check bool_t "positive" true (b.Bounds.deterministic > 0.);
  (* β=2 bound is the square root of the β=1 body. *)
  let b2 =
    Bounds.ruling_set ~delta:4096 ~delta':256 ~alpha:0 ~c:1 ~beta:2 ~eps:0.25
      ~cbig:2. ~n:1e18
  in
  check bool_t "deeper β gives smaller body" true
    (b2.Bounds.deterministic <= b.Bounds.deterministic)

let test_bounds_mis_corollary () =
  let c = Bounds.mis_vs_chromatic ~n:1e9 in
  (* Lower bound and χ upper bound are the same order: within a small
     constant factor. *)
  let ratio = c.Bounds.chromatic_upper /. c.Bounds.lower_bound in
  check bool_t "same order" true (ratio > 0.2 && ratio < 5.);
  check bool_t "grows with n" true
    ((Bounds.mis_vs_chromatic ~n:1e18).Bounds.lower_bound > c.Bounds.lower_bound)

(* ------------------------------------------------------------------ *)
(* Counting: Section 4 *)

let test_matching_contradiction_arith () =
  (* With Δ = 5Δ' the two P-bounds always conflict (y <= Δ'). *)
  List.iter
    (fun (delta', y) ->
      let r =
        Counting.matching_contradiction ~delta:(5 * delta') ~delta' ~y ~n:100
      in
      check bool_t
        (Printf.sprintf "contradictory Δ'=%d y=%d" delta' y)
        true r.Counting.contradictory)
    [ (3, 1); (4, 1); (8, 2); (16, 4) ];
  (* Without degree slack there is no contradiction. *)
  let r = Counting.matching_contradiction ~delta:4 ~delta':4 ~y:1 ~n:100 in
  check bool_t "no slack, no contradiction" false r.Counting.contradictory

let test_matching_lemmas_on_actual_solution () =
  (* On a low-girth (4,4)-biregular support, lift(Π_3(x',1)) has
     solutions; Lemmas 4.7 and 4.9 are statements about every solution,
     so the solver's output must satisfy them. *)
  let p = MF.pi_last ~delta:3 ~y:1 in
  let support = Gen.complete_bipartite 4 4 in
  let l = Lift.lift ~delta:4 ~r:4 p in
  match Solver.solve support l.Lift.problem with
  | Solver.Solution labeling ->
      let alphabet = p.Problem.alphabet in
      let m_label = Alphabet.find_exn alphabet "M" in
      let p_label = Alphabet.find_exn alphabet "P" in
      check bool_t "Lemma 4.7: at most y M-edges per black" true
        (Counting.max_per_black_with_base_label l support ~labeling
           ~base_label:m_label
        <= 1);
      check bool_t "Lemma 4.9: at most Δ'-1 P-edges per black" true
        (Counting.max_per_black_with_base_label l support ~labeling
           ~base_label:p_label
        <= 2);
      check bool_t "edge counts consistent" true
        (Counting.edges_with_base_label l ~labeling ~base_label:m_label
        <= Bipartite.m support)
  | Solver.No_solution ->
      Alcotest.fail "lift should be solvable on K_{4,4} (girth 4)"
  | Solver.Budget_exceeded -> Alcotest.fail "budget"

(* ------------------------------------------------------------------ *)
(* Counting: Section 5 (Lemmas 5.7 / 5.9 / 5.10) *)

let test_lemma_5_7_pipeline () =
  (* Support graph C_6 (Δ = 2), input degree Δ' = 2, k = 2:
     lift_{2,2}(Π_2(2)) is solvable on the incidence graph; the
     extracted coloring must be proper with at most 2k = 4 colors. *)
  let g = Gen.cycle 6 in
  let p = CF.pi ~delta:2 ~c:2 in
  let l = Lift.lift ~delta:2 ~r:2 p in
  let h = Hypergraph.of_graph g in
  let inc = Hypergraph.incidence h in
  (match Solver.solve inc l.Lift.problem with
  | Solver.Solution labeling ->
      (* labeling indexes incidence edges: white v, black = edge id. *)
      let inc_graph = Bipartite.graph inc in
      let half v e =
        let black = Graph.n g + e in
        match Graph.find_edge inc_graph v black with
        | Some ie -> labeling.(ie)
        | None -> invalid_arg "not incident"
      in
      let colors =
        Counting.lemma_5_7 l ~graph:g ~half_labeling:half ~in_s:(fun _ -> true)
      in
      check bool_t "proper" true (Coloring.is_proper g colors);
      check bool_t "at most 2k colors" true
        (Array.for_all (fun c -> c >= 0 && c < 4) colors)
  | _ -> Alcotest.fail "lift_{2,2}(Π_2(2)) should be solvable on C6")

let test_coloring_unsolvability_arith () =
  (* Corollary 5.8: 2k below the chromatic lower bound certifies
     unsolvability. *)
  check bool_t "certificate fires" true
    (Counting.coloring_unsolvability ~n:100 ~k:2 ~independence_upper:10);
  check bool_t "no certificate" false
    (Counting.coloring_unsolvability ~n:100 ~k:10 ~independence_upper:30)

(* ------------------------------------------------------------------ *)
(* Counting: Section 6 (Lemma 6.6 classification) *)

let test_ruling_classification () =
  let g = Gen.cycle 6 in
  let p = RF.pi ~delta:2 ~c:1 ~beta:1 in
  let l = Lift.lift ~delta:2 ~r:2 p in
  let h = Hypergraph.of_graph g in
  let inc = Hypergraph.incidence h in
  match Solver.solve inc l.Lift.problem with
  | Solver.Solution labeling ->
      let inc_graph = Bipartite.graph inc in
      let half v e =
        let black = Graph.n g + e in
        match Graph.find_edge inc_graph v black with
        | Some ie -> labeling.(ie)
        | None -> invalid_arg "not incident"
      in
      let types =
        Counting.classify_ruling_nodes l ~graph:g ~half_labeling:half
          ~in_s:(fun _ -> true) ~beta:1 ~delta':2
      in
      check int_t "classified all nodes" 6 (Array.length types);
      (* Untouched nodes really avoid P_β and U_β. *)
      let p1 = RF.label_p p 1 and u1 = RF.label_u p 1 in
      Array.iteri
        (fun v ty ->
          if ty = Counting.Untouched then
            List.iter
              (fun e ->
                let s = l.Lift.meaning.(half v e) in
                check bool_t "untouched has no pointers" false
                  (Bitset.mem p1 s || Bitset.mem u1 s))
              (Graph.incident g v))
        types
  | _ -> Alcotest.fail "lift of MIS family should be solvable on C6"

let test_type1_fraction () =
  check bool_t "3/4 bound at Δ = 3Δ'" true
    (Counting.type1_fraction_bound ~delta:9 ~delta':3 <= 0.75 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Framework pipeline *)

let test_framework_sinkless () =
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 17 in
  let support = Gen.random_biregular rng ~nw:6 ~nb:6 ~dw:5 ~db:5 in
  let r = Framework.analyze support ~last_problem:so ~k:7 in
  check bool_t "unsolvable" true (r.Framework.certificate = Framework.Unsolvable_by_search);
  (match r.Framework.det_rounds with
  | Some d -> check bool_t "positive bound" true (d >= 0)
  | None -> Alcotest.fail "expected a bound");
  check int_t "node count" 12 r.Framework.support_nodes

let test_framework_solvable_no_bound () =
  let support = bipartite_cycle 2 in
  let r = Framework.analyze support ~last_problem:coloring2 ~k:5 in
  (match r.Framework.certificate with
  | Framework.Solvable s ->
      check bool_t "certificate labeling valid" true
        (Checker.is_solution support r.Framework.lift.Lift.problem s)
  | _ -> Alcotest.fail "expected solvable");
  check bool_t "no bound claimed" true (r.Framework.det_rounds = None)


(* ------------------------------------------------------------------ *)
(* The hypergraph track (Corollaries 3.3 / 3.5 / B.3) *)

module Hgen = Slocal_graph.Hypergraph_gen

let test_hypergraph_so_dichotomy () =
  (* The sinkless-orientation counting dichotomy carries over verbatim
     to hypergraph supports through incidence graphs. *)
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 41 in
  let h4 =
    Hgen.random_regular_uniform rng ~n:8 ~degree:4 ~rank:4
      ~require_linear:false ()
  in
  check (Alcotest.option bool_t) "(4,4)-hypergraph solvable" (Some true)
    (Zero_round.solvable_non_bipartite h4 so);
  let h5 =
    Hgen.random_regular_uniform rng ~n:10 ~degree:5 ~rank:5
      ~require_linear:false ()
  in
  check (Alcotest.option bool_t) "(5,5)-hypergraph unsolvable" (Some false)
    (Zero_round.solvable_non_bipartite h5 so)

let test_hypergraph_framework () =
  let so = Classic.sinkless_orientation ~delta:3 in
  let rng = Prng.create 43 in
  let h =
    Hgen.random_regular_uniform rng ~n:10 ~degree:5 ~rank:5
      ~require_linear:false ()
  in
  let r = Framework.analyze_hypergraph h ~last_problem:so ~k:9 in
  check bool_t "unsolvable" true
    (r.Framework.certificate = Framework.Unsolvable_by_search);
  (match (r.Framework.det_rounds, r.Framework.girth) with
  | Some d, Some girth ->
      check int_t "corollary B.3 arithmetic" (max 0 (min 9 ((girth - 4) / 2))) d
  | Some d, None -> check int_t "acyclic: k" 9 d
  | None, _ -> Alcotest.fail "expected a bound")

(* [f ()] must fail with the typed unusable-support error naming [p]. *)
let check_unusable what (p : Problem.t) f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Zero_round.Unusable_support" what
  | exception Zero_round.Unusable_support { problem; reason } ->
      check Alcotest.string (what ^ ": problem named") p.Problem.name problem;
      check bool_t (what ^ ": reason given") true (reason <> "")

let test_hypergraph_rejects () =
  let so = Classic.sinkless_orientation ~delta:3 in
  (* rank 2 < black arity 3. *)
  check_unusable "parameters too small" so (fun () ->
      Zero_round.solvable_non_bipartite (Hgen.tight_cycle 6 2) so);
  (* Vertex 0 lies on two hyperedges, the others on one. *)
  let h = Hypergraph.create ~n:5 [ [ 0; 1; 2 ]; [ 0; 3; 4 ] ] in
  check_unusable "not regular" so (fun () -> Zero_round.lift_of_hypergraph h so)

(* ------------------------------------------------------------------ *)
(* Lift white/black semantics re-checked against Definition 3.1 *)

let definition_3_1_holds (l : Lift.t) =
  let base = l.Lift.base in
  let d_w = Slocal_formalism.Problem.d_white base in
  let r_b = Slocal_formalism.Problem.d_black base in
  let sets_of cfg = List.map (fun lab -> l.Lift.meaning.(lab)) (Multiset.to_list cfg) in
  let subsets k xs = Combinat.subsets_of_size k xs in
  let whites_ok =
    List.for_all
      (fun cfg ->
        List.for_all
          (fun sub ->
            Slocal_formalism.Constr.exists_choice
              (List.map Bitset.to_list sub)
              base.Slocal_formalism.Problem.white)
          (subsets d_w (sets_of cfg)))
      (Slocal_formalism.Constr.configs l.Lift.problem.Slocal_formalism.Problem.white)
  in
  let blacks_ok =
    List.for_all
      (fun cfg ->
        List.for_all
          (fun sub ->
            Slocal_formalism.Constr.for_all_choices
              (List.map Bitset.to_list sub)
              base.Slocal_formalism.Problem.black)
          (subsets r_b (sets_of cfg)))
      (Slocal_formalism.Constr.configs l.Lift.problem.Slocal_formalism.Problem.black)
  in
  whites_ok && blacks_ok

let test_lift_definition_audit () =
  List.iter
    (fun l -> check bool_t "Definition 3.1 audit" true (definition_3_1_holds l))
    [
      Lift.lift ~delta:2 ~r:2 coloring2;
      Lift.lift ~delta:4 ~r:4 (Classic.sinkless_orientation ~delta:3);
      Lift.lift ~delta:5 ~r:5 (MF.pi_last ~delta:3 ~y:1);
      Lift.lift ~delta:4 ~r:2 (CF.pi ~delta:3 ~c:2);
    ]


(* ------------------------------------------------------------------ *)
(* The Lemma 6.6 recursion *)

let ruling_pipeline g ~delta ~delta' ~k ~beta =
  let p = RF.pi ~delta:delta' ~c:k ~beta in
  let l = Lift.lift ~delta ~r:2 p in
  let inc = Hypergraph.incidence (Hypergraph.of_graph g) in
  match Solver.solve ~max_nodes:30_000_000 inc l.Lift.problem with
  | Solver.Solution labeling ->
      let inc_graph = Bipartite.graph inc in
      let half v e =
        match Graph.find_edge inc_graph v (Graph.n g + e) with
        | Some ie -> labeling.(ie)
        | None -> invalid_arg "not incident"
      in
      Some
        (Counting.initial_ruling_state l ~graph:g ~half_labeling:half
           ~in_s:(fun _ -> true))
  | _ -> None

let survivors st =
  Array.fold_left (fun a b -> if b then a + 1 else a) 0 st.Counting.in_s

let test_ruling_recursion_cycle () =
  let g = Gen.cycle 8 in
  match ruling_pipeline g ~delta:2 ~delta':2 ~k:1 ~beta:1 with
  | None -> Alcotest.fail "lift of MIS family should be solvable on C8"
  | Some st0 ->
      check bool_t "initial state valid" true (Counting.check_ruling_state ~graph:g st0);
      let st1 = Counting.eliminate_level ~graph:g st0 in
      check bool_t "level-1 state valid" true (Counting.check_ruling_state ~graph:g st1);
      check int_t "color budget doubled" 2 st1.Counting.k;
      check int_t "beta decreased" 0 st1.Counting.beta;
      check int_t "slack increased" 1 st1.Counting.x;
      check bool_t "survivors remain" true (survivors st1 > 0);
      let colors = Counting.ruling_state_coloring ~graph:g st1 in
      let members =
        List.filter (fun v -> st1.Counting.in_s.(v)) (List.init (Graph.n g) (fun v -> v))
      in
      let sub, map = Graph.induced g members in
      let sub_colors = Array.map (fun v -> colors.(v)) map in
      check bool_t "extracted coloring proper" true (Coloring.is_proper sub sub_colors);
      Array.iter
        (fun c -> check bool_t "within 2k colors" true (c >= 0 && c < 2 * st1.Counting.k))
        sub_colors

let test_ruling_recursion_beta2 () =
  let g = Gen.cycle 8 in
  match ruling_pipeline g ~delta:2 ~delta':2 ~k:1 ~beta:2 with
  | None -> Alcotest.fail "lift should be solvable on C8"
  | Some st0 ->
      check bool_t "initial valid" true (Counting.check_ruling_state ~graph:g st0);
      let st1 = Counting.eliminate_level ~graph:g st0 in
      check bool_t "after level 1" true (Counting.check_ruling_state ~graph:g st1);
      let st2 = Counting.eliminate_level ~graph:g st1 in
      check bool_t "after level 2" true (Counting.check_ruling_state ~graph:g st2);
      check int_t "k = 4" 4 st2.Counting.k;
      check int_t "beta = 0" 0 st2.Counting.beta;
      if survivors st2 > 0 then begin
        let colors = Counting.ruling_state_coloring ~graph:g st2 in
        let members =
          List.filter (fun v -> st2.Counting.in_s.(v)) (List.init (Graph.n g) (fun v -> v))
        in
        let sub, map = Graph.induced g members in
        check bool_t "coloring proper" true
          (Coloring.is_proper sub (Array.map (fun v -> colors.(v)) map))
      end

let test_ruling_recursion_petersen () =
  (* Δ = 3 > Δ' = 2: the genuine support/input degree gap. *)
  let g = Gen.petersen () in
  match ruling_pipeline g ~delta:3 ~delta':2 ~k:1 ~beta:1 with
  | None -> Alcotest.fail "lift solvable on Petersen at these parameters"
  | Some st0 ->
      check bool_t "initial valid" true (Counting.check_ruling_state ~graph:g st0);
      let st1 = Counting.eliminate_level ~graph:g st0 in
      check bool_t "after elimination" true (Counting.check_ruling_state ~graph:g st1);
      check bool_t "some survivors" true (survivors st1 > 0)

let test_ruling_recursion_guards () =
  let g = Gen.cycle 8 in
  match ruling_pipeline g ~delta:2 ~delta':2 ~k:1 ~beta:1 with
  | None -> Alcotest.fail "solvable"
  | Some st0 ->
      let st1 = Counting.eliminate_level ~graph:g st0 in
      Alcotest.check_raises "beta exhausted"
        (Invalid_argument "Counting.eliminate_level: beta = 0") (fun () ->
          ignore (Counting.eliminate_level ~graph:g st1))


(* ------------------------------------------------------------------ *)
(* Additional bounds / counting coverage *)

let test_ruling_bar_delta_monotone () =
  let bar beta =
    Bounds.ruling_bar_delta ~delta:4096 ~delta':512 ~eps:0.5 ~cbig:1.0 ~beta
  in
  check bool_t "decreasing in beta" true (bar 1 > bar 2 && bar 2 > bar 3);
  check bool_t "positive" true (bar 4 > 0.)

let test_counting_edge_labels_constructed () =
  (* Hand-build a lift labeling on K_{3,3} and count M-containing
     edges. *)
  let p = MF.pi_last ~delta:3 ~y:1 in
  let support = Gen.complete_bipartite 3 3 in
  let l = Lift.lift ~delta:3 ~r:3 p in
  let with_m =
    List.filter
      (fun i ->
        Bitset.mem
          (Alphabet.find_exn p.Problem.alphabet "M")
          l.Lift.meaning.(i))
      (List.init (Array.length l.Lift.meaning) (fun i -> i))
  in
  match with_m with
  | lab :: _ ->
      let labeling = Array.make (Bipartite.m support) lab in
      check int_t "all edges counted" (Bipartite.m support)
        (Counting.edges_with_base_label l ~labeling
           ~base_label:(Alphabet.find_exn p.Problem.alphabet "M"))
  | [] -> Alcotest.fail "expected an M-containing lift label"

let test_derandomize_hypergraph_bounds () =
  List.iter
    (fun n ->
      let c = Derandomize.hypergraph_instances ~n in
      check bool_t "inputs dominate asymptotically" true
        (c.Derandomize.log2_inputs <= c.Derandomize.log2_bound))
    [ 4; 16; 64 ]

let test_framework_k_caps_bound () =
  (* On C_10 with a short sequence, the k term rather than the girth
     term binds: min{2*1, 3} = 2. *)
  let r = Framework.analyze (bipartite_cycle 5) ~last_problem:coloring2 ~k:1 in
  check (Alcotest.option int_t) "2k cap" (Some 2) r.Framework.det_rounds

let test_zero_round_biregular_guard () =
  (* A non-biregular support is rejected. *)
  let b = Bipartite.of_sides ~nw:2 ~nb:2 [ (0, 0); (0, 1); (1, 0) ] in
  check_unusable "non-biregular support" coloring2 (fun () ->
      Zero_round.solvable b coloring2);
  (* K_{2,3}: white degree 3, black degree 2 < black arity 3 of mm:3. *)
  let mm3 = MF.maximal_matching ~delta:3 in
  check_unusable "degrees below arities" mm3 (fun () ->
      Zero_round.lift_of_support (Gen.complete_bipartite 2 3) mm3)

let test_lift_names_unique () =
  (* Lift alphabets never collide even with multi-character base
     names. *)
  let base =
    Slocal_formalism.Problem.parse ~name:"multi" ~labels:[ "Aa"; "Bb" ]
      ~white:"Aa Aa | Bb Bb" ~black:"Aa Bb"
  in
  let l = Lift.lift ~delta:2 ~r:2 base in
  let names =
    Slocal_formalism.Alphabet.names l.Lift.problem.Slocal_formalism.Problem.alphabet
  in
  check int_t "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))


(* ------------------------------------------------------------------ *)
(* Lemma B.1, executable *)

module Round_step = Supported_local.Round_step

let eliminate_round_roundtrip support problem =
  match Zrs.find_algorithm support problem ~d_in_white:2 ~d_in_black:2 with
  | Some (Some table) ->
      let zero = Zrs.algorithm_of_table table in
      let one_round = { zero with Supported.rounds = 1 } in
      let grounding, black_algo =
        Round_step.eliminate ~support ~problem ~d_in_white:2 ~d_in_black:2 one_round
      in
      check int_t "A* runs in T-1 rounds" 0 black_algo.Supported.rounds;
      check bool_t "A* solves R(Π)" true
        (Round_step.solves_r ~support
           ~r_problem:grounding.Slocal_formalism.Re_step.problem ~d_in_white:2
           ~d_in_black:2 black_algo)
  | Some None -> Alcotest.fail "expected a 0-round algorithm to wrap"
  | None -> Alcotest.fail "search budget"

let test_lemma_b1_2coloring () =
  eliminate_round_roundtrip (bipartite_cycle 4) coloring2

let test_lemma_b1_3coloring () =
  eliminate_round_roundtrip (bipartite_cycle 4) (Classic.coloring ~delta:2 ~c:3)

let test_lemma_b1_matching () =
  let mm2 =
    Slocal_formalism.Problem.parse ~name:"mm2" ~labels:[ "M"; "O"; "P" ]
      ~white:"M O | P^2" ~black:"M [O P] | O^2"
  in
  eliminate_round_roundtrip (bipartite_cycle 4) mm2

let test_lemma_b1_full_re_chain () =
  (* A 2-round white algorithm for Π becomes, through R then R̄, a
     0-round white algorithm for RE(Π) — the full Appendix B step on
     algorithms, on the both-sides-full instance class. *)
  let support = bipartite_cycle 5 in
  let p = Classic.coloring ~delta:2 ~c:3 in
  match Zrs.find_algorithm support p ~d_in_white:2 ~d_in_black:2 with
  | Some (Some table) ->
      let a2 = { (Zrs.algorithm_of_table table) with Supported.rounds = 2 } in
      let g1, a1 =
        Round_step.eliminate ~both_full:true ~support ~problem:p ~d_in_white:2
          ~d_in_black:2 a2
      in
      check bool_t "intermediate solves R(Π)" true
        (Round_step.solves_r ~both_full:true ~support
           ~r_problem:g1.Slocal_formalism.Re_step.problem ~d_in_white:2
           ~d_in_black:2 a1);
      let g2, a0 =
        Round_step.eliminate_black ~both_full:true ~support
          ~problem:g1.Slocal_formalism.Re_step.problem ~d_in_white:2
          ~d_in_black:2 a1
      in
      check int_t "two rounds eliminated" 0 a0.Supported.rounds;
      check bool_t "final solves R̄(R(Π))" true
        (Round_step.solves_r_bar ~both_full:true ~support
           ~r_problem:g2.Slocal_formalism.Re_step.problem ~d_in_white:2
           ~d_in_black:2 a0);
      check bool_t "R̄(R(Π)) is RE(Π)" true
        (Slocal_formalism.Problem.equal_up_to_renaming
           g2.Slocal_formalism.Re_step.problem
           (Slocal_formalism.Re_step.re p))
  | _ -> Alcotest.fail "expected a base algorithm"

let test_lemma_b1_guards () =
  Alcotest.check_raises "oversized support"
    (Invalid_argument "Round_step.eliminate: support too large for enumeration")
    (fun () ->
      let support = bipartite_cycle 12 in
      ignore
        (Round_step.eliminate ~support ~problem:coloring2 ~d_in_white:2
           ~d_in_black:2
           { Supported.rounds = 1; output = (fun _ -> []) }))

let prop_lift_white_grows_with_delta =
  QCheck.Test.make ~name:"lift labels fixed, white configs grow with Δ" ~count:10
    QCheck.(int_range 3 6)
    (fun delta ->
      let p = MF.pi_last ~delta:3 ~y:1 in
      let l1 = Lift.lift ~delta ~r:3 p in
      let l2 = Lift.lift ~delta:(delta + 1) ~r:3 p in
      Array.length l1.Lift.meaning = Array.length l2.Lift.meaning
      && Slocal_formalism.Constr.size
           l1.Lift.problem.Slocal_formalism.Problem.white
         <= Slocal_formalism.Constr.size
              l2.Lift.problem.Slocal_formalism.Problem.white)

let prop_eliminate_level_shrinks_s =
  QCheck.Test.make ~name:"eliminate_level: S' ⊆ S and parameters update" ~count:8
    QCheck.(int_range 4 7)
    (fun k ->
      let g = Gen.cycle (2 * k) in
      match ruling_pipeline g ~delta:2 ~delta':2 ~k:1 ~beta:1 with
      | None -> true
      | Some st0 ->
          let st1 = Counting.eliminate_level ~graph:g st0 in
          st1.Counting.k = 2 * st0.Counting.k
          && st1.Counting.beta = st0.Counting.beta - 1
          && st1.Counting.x = st0.Counting.x + 1
          && Array.for_all2
               (fun after before -> (not after) || before)
               st1.Counting.in_s st0.Counting.in_s)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lift_white_grows_with_delta;
      prop_eliminate_level_shrinks_s;
      QCheck.Test.make
        ~name:"Thm 3.2 forward: lift solutions yield correct 0-round algorithms"
        ~count:20
        QCheck.(pair (int_range 2 4) (int_bound 6))
        (fun (k, pi) ->
          let support = bipartite_cycle k in
          let problems = all_two_label_problems () in
          let p = List.nth problems (pi * 7) in
          let l = Zero_round.lift_of_support support p in
          match Solver.solve support l.Lift.problem with
          | Solver.Solution labeling ->
              let algo = Zero_round.algorithm_of_lift_solution l support labeling in
              List.for_all
                (fun inst -> Supported.solves algo inst p)
                (Supported.all_instances support ~max_white:2 ~max_black:2)
          | Solver.No_solution | Solver.Budget_exceeded -> true);
      QCheck.Test.make ~name:"Thm 3.2 equivalence on random two-label problems (C4)"
        ~count:25
        QCheck.(pair (int_bound 6) (int_bound 6))
        (fun (wi, bi) ->
          let problems = all_two_label_problems () in
          let p = List.nth problems ((wi * 7) + bi) in
          let support = bipartite_cycle 2 in
          Zero_round.solvable support p
          = Zrs.exists_algorithm support p ~d_in_white:2 ~d_in_black:2);
      QCheck.Test.make ~name:"lift labels are right-closed for random family members"
        ~count:20
        QCheck.(pair (int_range 1 2) (int_range 3 4))
        (fun (y, delta') ->
          if y >= delta' then true
          else begin
            let p = MF.pi_last ~delta:delta' ~y in
            let l = Lift.lift ~delta:(delta' + 1) ~r:(delta' + 1) p in
            let d = Diagram.black p in
            Array.for_all (fun s -> Diagram.is_right_closed d s) l.Lift.meaning
          end);
    ]

let () =
  Alcotest.run "core"
    [
      ( "lift",
        [
          Alcotest.test_case "2-coloring lift" `Quick test_lift_2coloring;
          Alcotest.test_case "meanings right-closed" `Quick test_lift_meanings_right_closed;
          Alcotest.test_case "rejects small degrees" `Quick test_lift_rejects_small_degrees;
          Alcotest.test_case "label lookup" `Quick test_lift_label_lookup;
          Alcotest.test_case "SO lift (4,4) solvable" `Quick test_lift_sinkless_44_solvable;
          Alcotest.test_case "SO lift (5,5) unsolvable" `Quick test_lift_sinkless_55_unsolvable;
        ] );
      ( "theorem 3.2",
        [
          Alcotest.test_case "C4 vs C6" `Quick test_thm32_c4_c6;
          Alcotest.test_case "exhaustive sweep on C4" `Slow test_thm32_exhaustive_sweep_c4;
          Alcotest.test_case "sample sweep on C6/C8" `Slow test_thm32_sample_sweep_c6_c8;
          Alcotest.test_case "forward direction" `Quick test_thm32_forward_direction;
          Alcotest.test_case "backward direction" `Quick test_thm32_backward_direction;
          Alcotest.test_case "2-coloring on cycles" `Quick test_two_coloring_cycles;
        ] );
      ( "round counting",
        [
          Alcotest.test_case "theorem B.2" `Quick test_theorem_b2;
          Alcotest.test_case "theorem 3.4 shapes" `Quick test_theorem_34_shapes;
        ] );
      ( "derandomization",
        [
          Alcotest.test_case "instance counts" `Quick test_derandomize_counts;
          Alcotest.test_case "monotone" `Quick test_derandomize_monotone;
          Alcotest.test_case "lifting evaluation" `Quick test_deterministic_from_randomized;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "matching" `Quick test_bounds_matching;
          Alcotest.test_case "matching crossover" `Quick test_bounds_matching_crossover;
          Alcotest.test_case "arbdefective" `Quick test_bounds_arbdefective;
          Alcotest.test_case "ruling sets" `Quick test_bounds_ruling;
          Alcotest.test_case "MIS corollary" `Quick test_bounds_mis_corollary;
        ] );
      ( "counting",
        [
          Alcotest.test_case "matching contradiction" `Quick test_matching_contradiction_arith;
          Alcotest.test_case "matching lemmas on solutions" `Quick
            test_matching_lemmas_on_actual_solution;
          Alcotest.test_case "Lemma 5.7 pipeline" `Quick test_lemma_5_7_pipeline;
          Alcotest.test_case "Corollary 5.8 arithmetic" `Quick test_coloring_unsolvability_arith;
          Alcotest.test_case "Lemma 6.6 classification" `Quick test_ruling_classification;
          Alcotest.test_case "type-1 fraction" `Quick test_type1_fraction;
        ] );
      ( "hypergraphs",
        [
          Alcotest.test_case "SO dichotomy" `Quick test_hypergraph_so_dichotomy;
          Alcotest.test_case "framework pipeline" `Quick test_hypergraph_framework;
          Alcotest.test_case "rejects" `Quick test_hypergraph_rejects;
          Alcotest.test_case "Definition 3.1 audit" `Quick test_lift_definition_audit;
        ] );
      ( "lemma B.1",
        [
          Alcotest.test_case "2-coloring on C8" `Quick test_lemma_b1_2coloring;
          Alcotest.test_case "3-coloring on C8" `Quick test_lemma_b1_3coloring;
          Alcotest.test_case "degree-2 matching" `Quick test_lemma_b1_matching;
          Alcotest.test_case "full RE chain" `Quick test_lemma_b1_full_re_chain;
          Alcotest.test_case "guards" `Quick test_lemma_b1_guards;
        ] );
      ( "lemma 6.6 recursion",
        [
          Alcotest.test_case "single level on C8" `Quick test_ruling_recursion_cycle;
          Alcotest.test_case "two levels on C8" `Quick test_ruling_recursion_beta2;
          Alcotest.test_case "petersen Δ>Δ'" `Quick test_ruling_recursion_petersen;
          Alcotest.test_case "guards" `Quick test_ruling_recursion_guards;
        ] );
      ( "framework",
        [
          Alcotest.test_case "sinkless pipeline" `Quick test_framework_sinkless;
          Alcotest.test_case "solvable support" `Quick test_framework_solvable_no_bound;
          Alcotest.test_case "k caps the bound" `Quick test_framework_k_caps_bound;
          Alcotest.test_case "biregular guard" `Quick test_zero_round_biregular_guard;
        ] );
      ( "extras",
        [
          Alcotest.test_case "bar-delta monotone" `Quick test_ruling_bar_delta_monotone;
          Alcotest.test_case "edge label counting" `Quick test_counting_edge_labels_constructed;
          Alcotest.test_case "hypergraph accounting" `Quick test_derandomize_hypergraph_bounds;
          Alcotest.test_case "lift name uniqueness" `Quick test_lift_names_unique;
        ] );
      ("properties", qsuite);
    ]
