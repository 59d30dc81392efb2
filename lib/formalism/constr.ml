module Bitset = Slocal_util.Bitset
module Multiset = Slocal_util.Multiset
module Config_key = Slocal_util.Config_key
module Telemetry = Slocal_obs.Telemetry

let c_memo_hits = Telemetry.counter "constr.memo_hits"
let c_memo_misses = Telemetry.counter "constr.memo_misses"

module Config_set = Set.Make (struct
  type t = Multiset.t

  let compare = Multiset.compare
end)

(* Down-closure automaton.  States are the distinct sub-multisets of the
   configurations, of every size 0 .. arity; state 0 is the empty
   multiset (the root).  [trans.(s * nl + l)] is the state for s + l,
   or -1 when s + l is a sub-multiset of no configuration; labels
   [>= nl] occur in no configuration and are dead.  Multiset addition
   commutes, so walking the labels of a multiset in any order reaches
   the same state, and a state fixes its depth (its size): within one
   query, a mark on a state is a mark on (position, state).  [stamp]
   holds those marks — [stamp.(s) = gen] means "marked in the current
   query" — and [path] the labels of the current pick of
   {!first_dead_pick}. *)
(* staticcheck: shared-cache-needs-lock per-query stamps, generation counter and pick path of one constraint's automaton, written by every walk *)
type automaton = {
  nl : int;
  trans : int array;
  stamp : int array;
  mutable gen : int;
  path : int array;
}

(* Canonical memo key of a query (see [canonical_sets]). *)
type memo_key = Bits of int list | Lists of int list list

(* staticcheck: shared-cache-needs-lock per-constraint memo tables and the down-closure automaton are filled on demand *)
type t = {
  arity : int;
  configs : Config_set.t;
  label_bound : int;  (* 1 + the largest label of a configuration (≥ 1) *)
  bits : int;
      (* Key width for the packed-configuration encoding: enough bits
         for [label_bound].  All keys of one constraint use it. *)
  member : unit Config_key.Tbl.t;
  mutable automaton : automaton option;  (* built by the first query *)
  (* Memoized quantified-choice queries, one table per quantifier,
     keyed by the canonicalized position sets (each set deduplicated,
     the positions sorted — the answers only depend on the multiset of
     position sets). *)
  memo_exists : (memo_key, bool) Hashtbl.t;
  memo_for_all : (memo_key, bool) Hashtbl.t;
  memo_exists_partial : (memo_key, bool) Hashtbl.t;
  memo_for_all_partial : (memo_key, bool) Hashtbl.t;
}

let key t c = Config_key.of_multiset ~bits:t.bits c

let make ~arity config_list =
  List.iter
    (fun c ->
      if Multiset.size c <> arity then
        invalid_arg "Constr.make: configuration has wrong size")
    config_list;
  let configs = Config_set.of_list config_list in
  let label_bound =
    Config_set.fold
      (fun c acc ->
        List.fold_left (fun acc l -> max acc (l + 1)) acc (Multiset.to_list c))
      configs 1
  in
  let bits = Config_key.bits_for label_bound in
  let member = Config_key.Tbl.create (max 16 (Config_set.cardinal configs)) in
  Config_set.iter
    (fun c ->
      Config_key.Tbl.replace member (Config_key.of_multiset ~bits c) ())
    configs;
  {
    arity;
    configs;
    label_bound;
    bits;
    member;
    automaton = None;
    memo_exists = Hashtbl.create 64;
    memo_for_all = Hashtbl.create 64;
    memo_exists_partial = Hashtbl.create 64;
    memo_for_all_partial = Hashtbl.create 64;
  }

let arity t = t.arity
let configs t = Config_set.elements t.configs
let size t = Config_set.cardinal t.configs
let mem c t = Config_key.Tbl.mem t.member (key t c)

(* One pass per configuration c over its sub-multisets, indexed in
   mixed radix by the multiplicity kept of each distinct label of c:
   every sub-multiset gets its state (interned by packed key), and each
   one-label step inside c becomes a transition.  A transition s → s + l
   exists iff s + l lies below some configuration, which is then the c
   that sets it. *)
let build t =
  let nl = t.label_bound in
  let ids = Config_key.Tbl.create 1024 in
  let trans = ref (Array.make (64 * nl) (-1)) in
  let n = ref 0 in
  let state_of m =
    let k = key t m in
    match Config_key.Tbl.find_opt ids k with
    | Some s -> s
    | None ->
        let s = !n in
        incr n;
        if !n * nl > Array.length !trans then begin
          let bigger = Array.make (2 * Array.length !trans) (-1) in
          Array.blit !trans 0 bigger 0 (s * nl);
          trans := bigger
        end;
        Config_key.Tbl.add ids k s;
        s
  in
  Config_set.iter
    (fun c ->
      let labels = Array.of_list (Multiset.support c) in
      let g = Array.length labels in
      let mult = Array.map (fun l -> Multiset.count l c) labels in
      let stride = Array.make (g + 1) 1 in
      for i = 0 to g - 1 do
        stride.(i + 1) <- stride.(i) * (mult.(i) + 1)
      done;
      let states =
        Array.init stride.(g) (fun idx ->
            let m = ref [] in
            for i = g - 1 downto 0 do
              let kept = idx / stride.(i) mod (mult.(i) + 1) in
              for _ = 1 to kept do
                m := labels.(i) :: !m
              done
            done;
            state_of (Multiset.of_list !m))
      in
      Array.iteri
        (fun idx s ->
          for i = 0 to g - 1 do
            if idx / stride.(i) mod (mult.(i) + 1) < mult.(i) then
              !trans.((s * nl) + labels.(i)) <- states.(idx + stride.(i))
          done)
        states)
    t.configs;
  {
    nl;
    trans = Array.sub !trans 0 (!n * nl);
    stamp = Array.make !n 0;
    gen = 0;
    path = Array.make (max 1 t.arity) 0;
  }

let automaton t =
  match t.automaton with
  | Some a -> a
  | None ->
      let a = build t in
      t.automaton <- Some a;
      a

(* Whether state 0, the empty multiset, exists: a constraint without
   configurations has no state at all. *)
let has_root t = not (Config_set.is_empty t.configs)

let[@inline] step a s l = if l < 0 || l >= a.nl then -1 else a.trans.((s * a.nl) + l)

let root t = if has_root t then 0 else -1

let step_state t s l = if s < 0 then -1 else step (automaton t) s l

let next_gen a =
  a.gen <- a.gen + 1;
  a.gen

let extendable_labels labels t =
  let a = automaton t in
  let rec go s = function
    | [] -> true
    | l :: rest ->
        let s' = step a s l in
        s' >= 0 && go s' rest
  in
  List.compare_length_with labels t.arity <= 0 && has_root t && go 0 labels

let extendable partial t = extendable_labels (Multiset.to_list partial) t

(* Quantified-choice walks: a DFS over (position, state), where the
   state of a pick is that of its label multiset.  A pick that reaches
   the end of [sets] has a state, so it is extendable — at full arity,
   a configuration — and the full and partial queries share one walk
   each.  [exists_walk] stamps the states from which no completion
   exists, [for_all_walk] those from which every completion stays
   alive; neither allocates. *)

let rec exists_walk a gen s = function
  | [] -> true
  | set :: rest ->
      a.stamp.(s) <> gen
      && (exists_set a gen s set rest
         ||
         (a.stamp.(s) <- gen;
          false))

and exists_set a gen s set rest =
  match set with
  | [] -> false
  | l :: ls ->
      (let s' = step a s l in
       s' >= 0 && exists_walk a gen s' rest)
      || exists_set a gen s ls rest

let rec for_all_walk a gen s = function
  | [] -> true
  | set :: rest ->
      a.stamp.(s) = gen
      || for_all_set a gen s set rest
         &&
         (a.stamp.(s) <- gen;
          true)

and for_all_set a gen s set rest =
  match set with
  | [] -> true
  | l :: ls ->
      (let s' = step a s l in
       s' >= 0 && for_all_walk a gen s' rest)
      && for_all_set a gen s ls rest

let exists_pick sets t =
  let a = automaton t in
  has_root t && exists_walk a (next_gen a) 0 sets

(* An empty position set makes the product empty and the universal
   test vacuously true, whatever the other positions hold. *)
let for_all_pick sets t =
  List.exists (fun s -> s = []) sets
  ||
  let a = automaton t in
  has_root t && for_all_walk a (next_gen a) 0 sets

(* Depth of the first dead pick in DFS order (its labels in
   [a.path.(0 .. depth)]), or -1 when every pick stays alive. *)
let rec dead_walk a gen s depth = function
  | [] -> -1
  | set :: rest ->
      if a.stamp.(s) = gen then -1
      else
        let d = dead_set a gen s depth set rest in
        if d < 0 then a.stamp.(s) <- gen;
        d

and dead_set a gen s depth set rest =
  match set with
  | [] -> -1
  | l :: ls ->
      a.path.(depth) <- l;
      let s' = step a s l in
      if s' < 0 then depth
      else
        let d = dead_walk a gen s' (depth + 1) rest in
        if d >= 0 then d else dead_set a gen s depth ls rest

let first_dead_pick sets t =
  if List.compare_length_with sets t.arity > 0 then
    invalid_arg "Constr.first_dead_pick";
  if not (has_root t) then Some []
  else
    let a = automaton t in
    let d = dead_walk a (next_gen a) 0 0 sets in
    if d < 0 then None else Some (List.init (d + 1) (fun j -> (j, a.path.(j))))

(* Each query is memoized per constraint under its canonical key: the
   multiset of position sets, each set deduplicated.  Sets that fit a
   [Bitset] — every RE query — key as the sorted list of their bitsets,
   a few words per position; other sets as sorted label lists. *)

let bits_of_set s =
  if List.for_all (fun l -> 0 <= l && l < Bitset.max_universe) s then
    (Bitset.of_list s :> int)
  else -1

let canonical_sets sets =
  let bits = List.map bits_of_set sets in
  if List.for_all (fun b -> b >= 0) bits then Bits (List.sort Int.compare bits)
  else Lists (List.sort compare (List.map (fun s -> List.sort_uniq compare s) sets))

let memoized tbl sets compute =
  let k = canonical_sets sets in
  match Hashtbl.find_opt tbl k with
  | Some v ->
      Telemetry.incr c_memo_hits;
      v
  | None ->
      Telemetry.incr c_memo_misses;
      let v = compute () in
      Hashtbl.add tbl k v;
      v

let exists_choice sets t =
  if List.length sets <> t.arity then invalid_arg "Constr.exists_choice: arity mismatch";
  memoized t.memo_exists sets @@ fun () -> exists_pick sets t

let for_all_choices sets t =
  if List.length sets <> t.arity then invalid_arg "Constr.for_all_choices: arity mismatch";
  memoized t.memo_for_all sets @@ fun () -> for_all_pick sets t

let exists_choice_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.exists_choice_partial";
  memoized t.memo_exists_partial sets @@ fun () -> exists_pick sets t

let for_all_choices_partial sets t =
  if List.length sets > t.arity then invalid_arg "Constr.for_all_choices_partial";
  memoized t.memo_for_all_partial sets @@ fun () -> for_all_pick sets t

let labels_used t =
  Config_set.fold
    (fun c acc -> List.fold_left (fun acc l -> l :: acc) acc (Multiset.support c))
    t.configs []
  |> List.sort_uniq compare

let map_labels f t =
  make ~arity:t.arity
    (List.map (fun c -> Multiset.map f c) (configs t))

let equal a b = a.arity = b.arity && Config_set.equal a.configs b.configs
let subset a b = Config_set.subset a.configs b.configs

let pp alphabet fmt t =
  let pp_config fmt c =
    Multiset.pp (fun fmt l -> Alphabet.pp_label alphabet fmt l) fmt c
  in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_newline fmt ())
    pp_config fmt (configs t)
