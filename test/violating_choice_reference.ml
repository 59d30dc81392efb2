(* The violating-choice walk of the fast RE kernel's strong side as it
   was before the down-closure automaton: a depth-first walk over the
   positions that tests every partial pick for deadness as a fresh
   multiset, then the same greedy minimization.  Deadness here is
   decided by the unmemoized scans of [Constr_reference], so the oracle
   shares nothing with [Constr]'s automaton.  [Re_step.violating_choice]
   must return the very same witness. *)

open Slocal_formalism
module Multiset = Slocal_util.Multiset

let violating_choice sets constr =
  if Constr_reference.for_all_choices sets constr then None
  else
    let dead picked =
      not
        (Constr_reference.extendable
           (Multiset.of_list (List.map snd picked))
           constr)
    in
    let minimize witness =
      let rec go kept = function
        | [] -> List.rev kept
        | e :: rest ->
            if dead (List.rev_append kept rest) then go kept rest
            else go (e :: kept) rest
      in
      go [] witness
    in
    let rec go j picked = function
      | [] ->
          let m = Multiset.of_list (List.map snd picked) in
          if Constr_reference.mem m constr then None else Some (List.rev picked)
      | s :: rest ->
          if dead picked then Some (List.rev picked)
          else
            let rec first = function
              | [] -> None
              | l :: ls -> (
                  match go (j + 1) ((j, l) :: picked) rest with
                  | Some _ as w -> w
                  | None -> first ls)
            in
            first s
    in
    Option.map minimize (go 0 [] sets)
