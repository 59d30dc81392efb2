open Slocal_formalism
module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Lift = Supported_local.Lift
module D = Diagnostic

let config_string alphabet c =
  String.concat " " (List.map (Alphabet.name alphabet) (Multiset.to_list c))

(* ------------------------------------------------------------------ *)
(* Problem well-formedness (SL00x)                                     *)

let problem_checks ?delta ?r (p : Problem.t) =
  let subject = p.Problem.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Plain arrays, not bitsets: these checks hold on any alphabet size. *)
  let used c =
    let u = Array.make (Alphabet.size p.Problem.alphabet) false in
    List.iter (fun l -> u.(l) <- true) (Constr.labels_used c);
    u
  in
  let used_w = used p.Problem.white and used_b = used p.Problem.black in
  for l = 0 to Alphabet.size p.Problem.alphabet - 1 do
    let name = Alphabet.name p.Problem.alphabet l in
    let in_w = used_w.(l) and in_b = used_b.(l) in
    if (not in_w) && not in_b then
      add
        (D.warning ~code:"SL001" ~subject ~location:(D.Label name)
           "label declared but used in no configuration")
    else if in_w && not in_b then
      add
        (D.warning ~code:"SL002" ~subject ~location:(D.Label name)
           "label appears in the white constraint only: unusable on \
            biregular supports (every edge has a constrained black endpoint)")
    else if in_b && not in_w then
      add
        (D.warning ~code:"SL002" ~subject ~location:(D.Label name)
           "label appears in the black constraint only: unusable on \
            biregular supports (every edge has a constrained white endpoint)")
  done;
  if Constr.size p.Problem.white = 0 then
    add
      (D.error ~code:"SL003" ~subject
         "white constraint has no configurations: the problem is \
          trivially unsolvable wherever a white node is constrained");
  if Constr.size p.Problem.black = 0 then
    add
      (D.error ~code:"SL003" ~subject
         "black constraint has no configurations: the problem is \
          trivially unsolvable wherever a black node is constrained");
  (match delta with
  | Some d when d < Problem.d_white p ->
      add
        (D.error ~code:"SL006" ~subject
           (Printf.sprintf
              "target support white degree %d is below the white arity %d: \
               lift_{Δ,r} is undefined (Definition 3.1 needs Δ ≥ Δ')"
              d (Problem.d_white p)))
  | _ -> ());
  (match r with
  | Some r when r < Problem.d_black p ->
      add
        (D.error ~code:"SL006" ~subject
           (Printf.sprintf
              "target support black degree %d is below the black arity %d: \
               lift_{Δ,r} is undefined (Definition 3.1 needs r ≥ r')"
              r (Problem.d_black p)))
  | _ -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Diagram soundness (SL01x)                                           *)

(* Independent recomputation of the strength relation, straight from
   the definition: x is at least as strong as y iff replacing any
   positive number of copies of y by x maps every configuration
   containing y back into the constraint.  Closure is then taken by
   saturation (repeated relational composition) rather than the
   Floyd-Warshall pass used by [Diagram.of_constraint], so the two
   implementations share no code. *)
let recompute_relation constr n =
  let subst_ok x y =
    x = y
    || List.for_all
         (fun cfg ->
           let k = Multiset.count y cfg in
           let rec strip j acc =
             if j > k then true
             else
               let acc = Multiset.add x (Multiset.remove y acc) in
               Constr.mem acc constr && strip (j + 1) acc
           in
           k = 0 || strip 1 cfg)
         (Constr.configs constr)
  in
  let rel = Array.init n (fun y -> Array.init n (fun x -> subst_ok x y)) in
  let changed = ref true in
  while !changed do
    changed := false;
    for y = 0 to n - 1 do
      for z = 0 to n - 1 do
        if rel.(y).(z) then
          for x = 0 to n - 1 do
            if rel.(z).(x) && not rel.(y).(x) then begin
              rel.(y).(x) <- true;
              changed := true
            end
          done
      done
    done
  done;
  rel

let diagram_side_checks ~subject ~side_name (p : Problem.t) constr =
  let alphabet = p.Problem.alphabet in
  let n = Alphabet.size alphabet in
  let dia = Diagram.of_constraint ~alphabet_size:n constr in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let name = Alphabet.name alphabet in
  let expected = recompute_relation constr n in
  (* SL010: full relation agreement. *)
  for y = 0 to n - 1 do
    for x = 0 to n - 1 do
      if Diagram.stronger dia x y <> expected.(y).(x) then
        add
          (D.error ~code:"SL010" ~subject
             ~location:(D.Label_pair (name y, name x))
             (Printf.sprintf
                "%s diagram disagrees with the independently recomputed \
                 strength relation: stronger(%s,%s) is %b, expected %b"
                side_name (name x) (name y)
                (Diagram.stronger dia x y)
                expected.(y).(x)))
    done
  done;
  (* SL011 / SL012: reflexivity and transitivity of the published relation. *)
  for x = 0 to n - 1 do
    if not (Diagram.stronger dia x x) then
      add
        (D.error ~code:"SL011" ~subject ~location:(D.Label (name x))
           (Printf.sprintf "%s strength relation is not reflexive at %s"
              side_name (name x)))
  done;
  for y = 0 to n - 1 do
    for z = 0 to n - 1 do
      if Diagram.stronger dia z y then
        for x = 0 to n - 1 do
          if Diagram.stronger dia x z && not (Diagram.stronger dia x y) then
            add
              (D.error ~code:"SL012" ~subject
                 ~location:(D.Label_pair (name y, name x))
                 (Printf.sprintf
                    "%s strength relation is not transitive: %s ≤ %s ≤ %s \
                     but not %s ≤ %s"
                    side_name (name y) (name z) (name x) (name y) (name x)))
        done
    done
  done;
  (* SL013: the right-closed family is exactly the fixpoints of
     right-closure.  Exhaustive over all non-empty subsets when the
     alphabet is small enough. *)
  let closed = Diagram.right_closed_sets dia in
  let set_name s = Re_step.set_name alphabet s in
  List.iter
    (fun s ->
      if Bitset.is_empty s then
        add
          (D.error ~code:"SL013" ~subject
             "right_closed_sets contains the empty set");
      if not (Diagram.is_right_closed dia s) then
        add
          (D.error ~code:"SL013" ~subject ~location:(D.Label (set_name s))
             (Printf.sprintf "%s right-closed family contains %s, which is \
                              not right-closed" side_name (set_name s)));
      if not (Bitset.equal (Diagram.right_closure dia s) s) then
        add
          (D.error ~code:"SL013" ~subject ~location:(D.Label (set_name s))
             (Printf.sprintf
                "%s right-closed family member %s is not a fixpoint of \
                 right_closure" side_name (set_name s))))
    closed;
  let sorted = List.sort Bitset.compare closed in
  if List.length (List.sort_uniq Bitset.compare closed) <> List.length sorted
  then
    add
      (D.error ~code:"SL013" ~subject
         (Printf.sprintf "%s right-closed family contains duplicates"
            side_name));
  if n <= 16 then begin
    (* Independent membership test from the recomputed relation. *)
    let closed_indep s =
      Bitset.for_all
        (fun l ->
          let ok = ref true in
          for x = 0 to n - 1 do
            if expected.(l).(x) && not (Bitset.mem x s) then ok := false
          done;
          !ok)
        s
    in
    List.iter
      (fun s ->
        let expected_mem = (not (Bitset.is_empty s)) && closed_indep s in
        let actual_mem = List.exists (Bitset.equal s) closed in
        if expected_mem && not actual_mem then
          add
            (D.error ~code:"SL013" ~subject ~location:(D.Label (set_name s))
               (Printf.sprintf
                  "%s right-closed family is missing the right-closed set %s"
                  side_name (set_name s)));
        if actual_mem && not expected_mem then
          add
            (D.error ~code:"SL013" ~subject ~location:(D.Label (set_name s))
               (Printf.sprintf
                  "%s right-closed family wrongly contains %s" side_name
                  (set_name s)));
        (* Closure must be the smallest right-closed superset. *)
        let closure = Diagram.right_closure dia s in
        if
          (not (Bitset.subset s closure))
          || (not (Bitset.is_empty s)) && not (closed_indep closure)
        then
          add
            (D.error ~code:"SL013" ~subject ~location:(D.Label (set_name s))
               (Printf.sprintf
                  "%s right_closure(%s) = %s is not a right-closed superset"
                  side_name (set_name s) (set_name closure))))
      (Bitset.subsets (Bitset.full n))
  end
  else
    add
      (D.info ~code:"SL014" ~subject
         (Printf.sprintf
            "%s diagram: exhaustive right-closed enumeration skipped \
             (alphabet size %d > 16)" side_name n));
  List.rev !diags

let diagram_checks (p : Problem.t) =
  diagram_side_checks ~subject:p.Problem.name ~side_name:"black" p
    p.Problem.black
  @ diagram_side_checks ~subject:p.Problem.name ~side_name:"white" p
      p.Problem.white

(* ------------------------------------------------------------------ *)
(* Lift structural invariants (SL02x)                                  *)

let sub_multisets_of_sets k sets =
  Combinat.subsets_of_size k (List.mapi (fun i s -> (i, s)) sets)
  |> List.map (fun chosen -> List.map snd chosen)
  |> List.sort_uniq compare

let lift_checks ?(completeness_budget = 200_000) (l : Lift.t) =
  let base = l.Lift.base in
  let lifted = l.Lift.problem in
  let subject = lifted.Problem.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let dia = Diagram.black base in
  let expected_sets = Diagram.right_closed_sets dia in
  let meanings = Array.to_list l.Lift.meaning in
  let set_name s = Re_step.set_name base.Problem.alphabet s in
  (* SL022: arities and metadata. *)
  if Problem.d_white lifted <> l.Lift.delta then
    add
      (D.error ~code:"SL022" ~subject
         (Printf.sprintf "lift white arity %d differs from recorded Δ = %d"
            (Problem.d_white lifted) l.Lift.delta));
  if Problem.d_black lifted <> l.Lift.r then
    add
      (D.error ~code:"SL022" ~subject
         (Printf.sprintf "lift black arity %d differs from recorded r = %d"
            (Problem.d_black lifted) l.Lift.r));
  if l.Lift.delta < Problem.d_white base || l.Lift.r < Problem.d_black base
  then
    add
      (D.error ~code:"SL022" ~subject
         (Printf.sprintf
            "lift degrees (Δ=%d, r=%d) are below the base arities (%d, %d)"
            l.Lift.delta l.Lift.r (Problem.d_white base)
            (Problem.d_black base)));
  if Alphabet.size lifted.Problem.alphabet <> Array.length l.Lift.meaning then
    add
      (D.error ~code:"SL022" ~subject
         (Printf.sprintf
            "lift alphabet has %d labels but the meaning array has %d entries"
            (Alphabet.size lifted.Problem.alphabet)
            (Array.length l.Lift.meaning)));
  (* SL021: each meaning is a non-empty right-closed base label-set. *)
  Array.iteri
    (fun i m ->
      let lname =
        if i < Alphabet.size lifted.Problem.alphabet then
          Alphabet.name lifted.Problem.alphabet i
        else Printf.sprintf "#%d" i
      in
      if Bitset.is_empty m then
        add
          (D.error ~code:"SL021" ~subject ~location:(D.Label lname)
             "lift label denotes the empty base label-set")
      else if not (Diagram.is_right_closed dia m) then
        add
          (D.error ~code:"SL021" ~subject ~location:(D.Label lname)
             (Printf.sprintf
                "lift label denotes %s, which is not right-closed w.r.t. the \
                 black diagram of %s" (set_name m) base.Problem.name)))
    l.Lift.meaning;
  (* SL020: the alphabet is exactly the right-closed family. *)
  let canon sets = List.sort_uniq Bitset.compare sets in
  if canon meanings <> canon expected_sets then begin
    let missing =
      List.filter
        (fun s -> not (List.exists (Bitset.equal s) meanings))
        expected_sets
    and extra =
      List.filter
        (fun s -> not (List.exists (Bitset.equal s) expected_sets))
        meanings
    in
    add
      (D.error ~code:"SL020" ~subject
         (Printf.sprintf
            "lift alphabet is not the family of non-empty right-closed sets \
             of the black diagram of %s (missing: {%s}; extraneous: {%s})"
            base.Problem.name
            (String.concat "; " (List.map set_name missing))
            (String.concat "; " (List.map set_name extra))))
  end;
  (* SL023 / SL024: Definition 3.1, soundness and (budgeted)
     completeness, recomputed by brute-force enumeration with no
     pruning shared with the Lift implementation. *)
  let d' = Problem.d_white base and r' = Problem.d_black base in
  let sets_of_config c =
    List.map (fun lbl -> l.Lift.meaning.(lbl)) (Multiset.to_list c)
  in
  let black_good sets =
    List.for_all
      (fun sub ->
        Constr.for_all_choices
          (List.map Bitset.to_list sub)
          base.Problem.black)
      (sub_multisets_of_sets r' sets)
  in
  let white_good sets =
    List.for_all
      (fun sub ->
        Constr.exists_choice (List.map Bitset.to_list sub) base.Problem.white)
      (sub_multisets_of_sets d' sets)
  in
  let in_range c =
    List.for_all
      (fun lbl -> lbl >= 0 && lbl < Array.length l.Lift.meaning)
      (Multiset.to_list c)
  in
  let soundness side good constr =
    List.iter
      (fun c ->
        if not (in_range c) then ()
        else if not (good (sets_of_config c)) then
          add
            (D.error ~code:"SL023" ~subject
               ~location:
                 (D.Config (side, config_string lifted.Problem.alphabet c))
               "configuration violates the choice conditions of \
                Definition 3.1"))
      (Constr.configs constr)
  in
  soundness D.Black black_good lifted.Problem.black;
  soundness D.White white_good lifted.Problem.white;
  let m = Array.length l.Lift.meaning in
  let completeness side good arity constr =
    if Combinat.multichoose m arity > completeness_budget then
      add
        (D.info ~code:"SL025" ~subject
           (Printf.sprintf
              "%s completeness check skipped: %d candidate configurations \
               exceed the budget %d"
              (match side with D.White -> "white" | D.Black -> "black")
              (Combinat.multichoose m arity) completeness_budget))
    else
      List.iter
        (fun labels ->
          let c = Multiset.of_list labels in
          let sets = sets_of_config c in
          if good sets && not (Constr.mem c constr) then
            add
              (D.error ~code:"SL024" ~subject
                 ~location:
                   (D.Config (side, config_string lifted.Problem.alphabet c))
                 "configuration satisfies Definition 3.1 but is missing \
                  from the lift constraint"))
        (Combinat.multisets_of_size arity (List.init m (fun i -> i)))
  in
  completeness D.Black black_good l.Lift.r lifted.Problem.black;
  completeness D.White white_good l.Lift.delta lifted.Problem.white;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* RE grounding invariants (SL026)                                     *)

let grounding_checks ~prev (g : Re_step.grounding) =
  let subject = g.Re_step.problem.Problem.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n = Alphabet.size g.Re_step.problem.Problem.alphabet in
  let prev_n = Alphabet.size prev.Problem.alphabet in
  if Array.length g.Re_step.meaning <> n then
    add
      (D.error ~code:"SL026" ~subject
         (Printf.sprintf
            "grounding has %d meanings for %d generated labels"
            (Array.length g.Re_step.meaning) n));
  Array.iteri
    (fun i m ->
      let lname =
        if i < n then Alphabet.name g.Re_step.problem.Problem.alphabet i
        else Printf.sprintf "#%d" i
      in
      if Bitset.is_empty m then
        add
          (D.error ~code:"SL026" ~subject ~location:(D.Label lname)
             "generated label denotes the empty label-set");
      List.iter
        (fun lbl ->
          if lbl < 0 || lbl >= prev_n then
            add
              (D.error ~code:"SL026" ~subject ~location:(D.Label lname)
                 (Printf.sprintf
                    "meaning mentions label %d outside the previous \
                     alphabet of %s (size %d)"
                    lbl prev.Problem.name prev_n)))
        (Bitset.to_list m))
    g.Re_step.meaning;
  let ms = Array.to_list g.Re_step.meaning in
  if List.length (List.sort_uniq Bitset.compare ms) <> List.length ms then
    add
      (D.error ~code:"SL026" ~subject
         "two generated labels denote the same label-set");
  (* Constraints must only mention generated labels. *)
  List.iter
    (fun (side, constr) ->
      List.iter
        (fun lbl ->
          if lbl < 0 || lbl >= n then
            add
              (D.error ~code:"SL026" ~subject
                 (Printf.sprintf
                    "%s constraint mentions label %d outside the generated \
                     alphabet (size %d)" side lbl n)))
        (Constr.labels_used constr))
    [
      ("white", g.Re_step.problem.Problem.white);
      ("black", g.Re_step.problem.Problem.black);
    ];
  List.rev !diags
