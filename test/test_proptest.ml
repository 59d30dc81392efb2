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

let () =
  Alcotest.run "proptest"
    [
      ("re-differential", re_tests);
      ("constr-differential", constr_tests);
      ("alloc-determinism", alloc_determinism_tests);
    ]
