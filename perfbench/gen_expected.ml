(* Writes the expected RE outputs of the re-sequence members, computed
   by the reference kernel (Re_reference), one line per step:

     <member> <step> <canonical hash>

   Lines are flushed as each step finishes, so a run cut short by a
   time limit still yields every step it reached.

     perfbench/gen_expected.exe [MEMBER...] > perfbench/expected_re.txt *)

open Slocal_formalism

let () =
  let wanted = List.tl (Array.to_list Sys.argv) in
  Printf.printf "# member step canonical_hash (reference RE kernel)\n%!";
  List.iter
    (fun { Workloads.member; family; steps; _ } ->
      if wanted = [] || List.mem member wanted then begin
        let p = ref (Workloads.family_problem family) in
        for step = 1 to steps do
          p := Re_reference.re !p;
          Printf.printf "%s %d %d\n%!" member step (Problem.canonical_hash !p)
        done
      end)
    Workloads.re_members
