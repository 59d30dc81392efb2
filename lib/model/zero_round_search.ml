open Slocal_graph
open Slocal_formalism
module Multiset = Slocal_util.Multiset
module Combinat = Slocal_util.Combinat
module Telemetry = Slocal_obs.Telemetry

type table = (int * int list, int list) Hashtbl.t

let c_searches = Telemetry.counter "zrs.searches"
let c_assignments = Telemetry.counter "zrs.assignments"
let c_instance_checks = Telemetry.counter "zrs.instance_checks"
let c_table_hits = Telemetry.counter "zrs.table_hits"
(* Registered so every report keeps it; it stays 0, since the search
   checks an instance only once every pattern it reads is assigned. *)
let (_ : Telemetry.metric) = Telemetry.counter "zrs.table_misses"
let c_budget = Telemetry.counter "zrs.budget_exhausted"

let patterns_of support ~d_in_white =
  let g = Bipartite.graph support in
  List.concat_map
    (fun v ->
      let inc = Graph.incident g v in
      List.concat_map
        (fun k -> List.map (fun s -> (v, s)) (Combinat.subsets_of_size k inc))
        (List.init (min d_in_white (List.length inc)) (fun i -> i + 1)))
    (Bipartite.whites support)

(* Candidate output tuples for a pattern: full-size patterns must emit
   white-valid configurations (the pattern alone is a valid instance in
   which the node has full input degree), smaller patterns may emit
   anything. *)
let domain (p : Problem.t) ~d_in_white pattern_size =
  let sigma = Alphabet.size p.Problem.alphabet in
  let all = List.init sigma (fun l -> l) in
  if pattern_size = d_in_white then
    List.concat_map
      (fun cfg -> Combinat.permutations (Multiset.to_list cfg))
      (Constr.configs p.Problem.white)
    |> List.sort_uniq compare
  else
    Combinat.cartesian (List.init pattern_size (fun _ -> all))

let table_correct support (p : Problem.t) ~d_in_white ~d_in_black (tbl : table) =
  let g = Bipartite.graph support in
  let instances = Supported.all_instances support ~max_white:d_in_white ~max_black:d_in_black in
  let white_pattern marks v =
    List.filter (fun e -> marks.(e)) (Graph.incident g v)
  in
  let label_of marks e =
    (* The white endpoint of [e] labels it according to its pattern. *)
    let u, w = Graph.edge g e in
    let v = if Bipartite.color support u = Bipartite.White then u else w in
    let pat = white_pattern marks v in
    match Hashtbl.find_opt tbl (v, pat) with
    | None -> None
    | Some tuple ->
        let rec find es ls =
          match (es, ls) with
          | e' :: _, l :: _ when e' = e -> Some l
          | _ :: es', _ :: ls' -> find es' ls'
          | _ -> None
        in
        find pat tuple
  in
  List.for_all
    (fun inst ->
      let marks = inst.Supported.marks in
      let whites_ok =
        List.for_all
          (fun v ->
            let pat = white_pattern marks v in
            if List.length pat <> Problem.d_white p then true
            else
              match Hashtbl.find_opt tbl (v, pat) with
              | None -> false
              | Some tuple -> Constr.mem (Multiset.of_list tuple) p.Problem.white)
          (Bipartite.whites support)
      in
      whites_ok
      && List.for_all
           (fun u ->
             let pat = white_pattern marks u in
             if List.length pat <> Problem.d_black p then true
             else
               let labels = List.map (label_of marks) pat in
               if List.exists (fun l -> l = None) labels then false
               else
                 Constr.mem
                   (Multiset.of_list (List.filter_map (fun l -> l) labels))
                   p.Problem.black)
           (Bipartite.blacks support))
    instances

exception Budget
exception Found

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* The input instances of one [find_algorithm] call, compiled to flat
   int arrays.  An instance is an edge mask; the valid ones are exactly
   those of [Supported.all_instances], in the same increasing-mask
   order, and are numbered from 0.  Patterns are numbered in search
   order.  Each per-instance or per-pattern list is the slice
   [off.(i) .. off.(i + 1) - 1] of one flat array. *)
type compiled = {
  needed : int array;  (* per instance: how many patterns it induces *)
  user_off : int array;
  users : int array;
      (* per pattern: the instances inducing it, latest first *)
  white_off : int array;
  white_pat : int array;
      (* per instance: the patterns of its full-degree whites, in
         [Bipartite.whites] order *)
  black_off : int array;
      (* per instance: its full-degree blacks, in [Bipartite.blacks]
         order; black [b] of the slice reads its [d_black] labels at
         entries [b * d_black ..] of [black_at] *)
  black_at : int array;
      (* for each edge of such a black, in edge order: [k lsl 5 lor j]
         for label [j] of pattern [k]'s tuple ([j < 32]: a pattern has
         at most 20 edges) *)
}

let compile support (patterns : (int * int list) array) ~d_in_white ~d_in_black =
  let g = Bipartite.graph support in
  let m = Graph.m g in
  if m > 20 then invalid_arg "Zero_round_search: support too large";
  let whites = Array.of_list (Bipartite.whites support)
  and blacks = Array.of_list (Bipartite.blacks support) in
  let nw = Array.length whites and nb = Array.length blacks in
  let mask_of es = List.fold_left (fun acc e -> acc lor (1 lsl e)) 0 es in
  let white_mask = Array.map (fun v -> mask_of (Graph.incident g v)) whites
  and black_mask = Array.map (fun v -> mask_of (Graph.incident g v)) blacks in
  let black_inc = Array.map (fun v -> Array.of_list (Graph.incident g v)) blacks in
  (* A non-empty pattern lies at one white node, so its edge mask
     identifies it: [pattern_at.(w)] maps white [w]'s marked edges,
     packed with bit j for its j-th incident edge, to the pattern. *)
  let white_inc = Array.map (fun v -> Array.of_list (Graph.incident g v)) whites in
  let packed w mask =
    let ie = white_inc.(w) and acc = ref 0 in
    for j = 0 to Array.length ie - 1 do
      acc := !acc lor (((mask lsr ie.(j)) land 1) lsl j)
    done;
    !acc
  in
  let white_of_edge = Array.make m (-1) in
  Array.iteri (fun w ie -> Array.iter (fun e -> white_of_edge.(e) <- w) ie) white_inc;
  let pattern_at = Array.map (fun ie -> Array.make (1 lsl Array.length ie) (-1)) white_inc in
  Array.iteri
    (fun k (_, s) ->
      let w = white_of_edge.(List.hd s) in
      pattern_at.(w).(packed w (mask_of s)) <- k)
    patterns;
  let full_white = Array.map (fun (_, s) -> List.length s = d_in_white) patterns in
  (* The valid instances: input degrees within the arities, which only
     nodes of a larger support degree can exceed. *)
  let over = Array.to_list (Array.map (fun im -> (im, d_in_white)) white_mask)
    @ Array.to_list (Array.map (fun im -> (im, d_in_black)) black_mask)
    |> List.filter (fun (im, limit) -> popcount im > limit)
    |> Array.of_list
  in
  let fits mask =
    let ok = ref true and i = ref 0 in
    while !ok && !i < Array.length over do
      let im, limit = over.(!i) in
      ok := popcount (mask land im) <= limit;
      incr i
    done;
    !ok
  in
  let inst = ref (Array.make 256 0) and ninst = ref 0 in
  for mask = 0 to (1 lsl m) - 1 do
    if fits mask then begin
      if !ninst = Array.length !inst then begin
        let bigger = Array.make (2 * !ninst) 0 in
        Array.blit !inst 0 bigger 0 !ninst;
        inst := bigger
      end;
      !inst.(!ninst) <- mask;
      incr ninst
    end
  done;
  let inst = !inst and ninst = !ninst in
  (* Each instance's pattern at each white (-1: none), then every slice
     sized before it is filled. *)
  let pat = Array.make (ninst * nw) (-1) in
  let needed = Array.make ninst 0 in
  let user_off = Array.make (Array.length patterns + 1) 0 in
  let white_off = Array.make (ninst + 1) 0 and black_off = Array.make (ninst + 1) 0 in
  for i = 0 to ninst - 1 do
    let mask = inst.(i) in
    let fw = ref 0 and fb = ref 0 in
    for w = 0 to nw - 1 do
      if mask land white_mask.(w) <> 0 then begin
        let k = pattern_at.(w).(packed w mask) in
        pat.((i * nw) + w) <- k;
        needed.(i) <- needed.(i) + 1;
        user_off.(k + 1) <- user_off.(k + 1) + 1;
        if full_white.(k) then incr fw
      end
    done;
    for b = 0 to nb - 1 do
      if popcount (mask land black_mask.(b)) = d_in_black then incr fb
    done;
    white_off.(i + 1) <- white_off.(i) + !fw;
    black_off.(i + 1) <- black_off.(i) + !fb
  done;
  for k = 0 to Array.length patterns - 1 do
    user_off.(k + 1) <- user_off.(k + 1) + user_off.(k)
  done;
  let white_pat = Array.make white_off.(ninst) 0 in
  let black_at = Array.make (black_off.(ninst) * d_in_black) 0 in
  for i = 0 to ninst - 1 do
    let mask = inst.(i) in
    let x = ref white_off.(i) in
    for w = 0 to nw - 1 do
      let k = pat.((i * nw) + w) in
      if k >= 0 && full_white.(k) then begin
        white_pat.(!x) <- k;
        incr x
      end
    done;
    let q = ref (black_off.(i) * d_in_black) in
    for b = 0 to nb - 1 do
      if popcount (mask land black_mask.(b)) = d_in_black then begin
        let ie = black_inc.(b) in
        for x = 0 to Array.length ie - 1 do
          let e = ie.(x) in
          if (mask lsr e) land 1 = 1 then begin
            let w = white_of_edge.(e) in
            let j = popcount (mask land white_mask.(w) land ((1 lsl e) - 1)) in
            black_at.(!q) <- (pat.((i * nw) + w) lsl 5) lor j;
            incr q
          end
        done
      end
    done
  done;
  (* Users: each pattern's instances in decreasing order, as the
     search has always checked them. *)
  let fill = Array.sub user_off 0 (Array.length patterns) in
  let users = Array.make user_off.(Array.length patterns) 0 in
  for i = ninst - 1 downto 0 do
    for w = 0 to nw - 1 do
      let k = pat.((i * nw) + w) in
      if k >= 0 then begin
        users.(fill.(k)) <- i;
        fill.(k) <- fill.(k) + 1
      end
    done
  done;
  { needed; user_off; users; white_off; white_pat; black_off; black_at }

(* The search assigns an output tuple to every (node, pattern) variable
   in order.  Pruning: an input instance becomes fully determined as
   soon as all the patterns it induces are assigned; it is validated at
   that moment, so an inconsistent prefix is cut at the first instance
   it breaks rather than at the leaves.

   Every assigned tuple is an [int array]; an instance check reads
   full-degree whites from the precomputed validity of their tuples
   and walks the black constraint's automaton over each full-degree
   black's labels, allocating nothing.  [zrs.table_hits] counts one
   table read per full-degree white and per edge of a full-degree
   black that a check reaches. *)
let search ~max_assignments (p : Problem.t) patterns domains white_valid c =
  let npat = Array.length patterns in
  let remaining = Array.copy c.needed in
  let cur = Array.make npat 0 in
  let tuple = Array.make npat [||] in
  let black = p.Problem.black in
  let db = Problem.d_black p in
  let root = Constr.root black in
  let checks = ref 0 and hits = ref 0 in
  let rec black_ok q stop s =
    if q = stop then s >= 0
    else
      let at = c.black_at.(q) in
      let s = Constr.step_state black s tuple.(at lsr 5).(at land 31) in
      s >= 0 && black_ok (q + 1) stop s
  in
  let rec blacks_ok b stop =
    b = stop
    || begin
         hits := !hits + db;
         black_ok (b * db) ((b + 1) * db) root
       end
       && blacks_ok (b + 1) stop
  in
  let rec whites_ok x stop =
    x = stop
    || begin
         incr hits;
         white_valid.(cur.(c.white_pat.(x)))
       end
       && whites_ok (x + 1) stop
  in
  let check_instance i =
    incr checks;
    whites_ok c.white_off.(i) c.white_off.(i + 1)
    && blacks_ok c.black_off.(i) c.black_off.(i + 1)
  in
  let rec consistent x stop =
    x = stop
    || (let j = c.users.(x) in
        remaining.(j) > 0 || check_instance j)
       && consistent (x + 1) stop
  in
  let steps = ref 0 in
  let rec go i =
    incr steps;
    if !steps > max_assignments then raise Budget;
    if i = npat then raise Found
    else begin
      let dom = domains.(i) in
      let u0 = c.user_off.(i) and u1 = c.user_off.(i + 1) in
      for t = 0 to Array.length dom - 1 do
        cur.(i) <- t;
        tuple.(i) <- dom.(t);
        for x = u0 to u1 - 1 do
          remaining.(c.users.(x)) <- remaining.(c.users.(x)) - 1
        done;
        if consistent u0 u1 then go (i + 1);
        for x = u0 to u1 - 1 do
          remaining.(c.users.(x)) <- remaining.(c.users.(x)) + 1
        done
      done
    end
  in
  let outcome =
    match go 0 with
    | () -> Some None
    | exception Found ->
        let tbl : table = Hashtbl.create 64 in
        Array.iteri (fun k key -> Hashtbl.replace tbl key (Array.to_list tuple.(k))) patterns;
        Some (Some tbl)
    | exception Budget ->
        Telemetry.incr c_budget;
        None
  in
  Telemetry.add c_assignments !steps;
  Telemetry.add c_instance_checks !checks;
  Telemetry.add c_table_hits !hits;
  outcome

let find_algorithm ?(max_assignments = 50_000_000) support p ~d_in_white
    ~d_in_black =
  Telemetry.span "zrs.find_algorithm" @@ fun () ->
  Telemetry.incr c_searches;
  if d_in_white <> Problem.d_white p then
    invalid_arg "Zero_round_search: d_in_white must equal the white arity";
  if d_in_black <> Problem.d_black p then
    invalid_arg "Zero_round_search: d_in_black must equal the black arity";
  let patterns, domains, white_valid, compiled =
    Telemetry.span "zrs.compile" @@ fun () ->
    let patterns = Array.of_list (patterns_of support ~d_in_white) in
    (* One domain per pattern size, shared by the patterns of that size;
       a full-degree white's pattern always has the full size. *)
    let by_size =
      Array.init (d_in_white + 1) (fun k ->
          if Array.exists (fun (_, s) -> List.length s = k) patterns then
            Array.of_list (List.map Array.of_list (domain p ~d_in_white k))
          else [||])
    in
    let white_valid =
      Array.map
        (fun t -> Constr.mem (Multiset.of_list (Array.to_list t)) p.Problem.white)
        by_size.(d_in_white)
    in
    ( patterns,
      Array.map (fun (_, s) -> by_size.(List.length s)) patterns,
      white_valid,
      compile support patterns ~d_in_white ~d_in_black )
  in
  Telemetry.span "zrs.search" @@ fun () ->
  search ~max_assignments p patterns domains white_valid compiled

let exists_algorithm ?max_assignments support p ~d_in_white ~d_in_black =
  match find_algorithm ?max_assignments support p ~d_in_white ~d_in_black with
  | None -> None
  | Some (Some _) -> Some true
  | Some None -> Some false

let algorithm_of_table (tbl : table) =
  {
    Supported.rounds = 0;
    output =
      (fun view ->
        let v = View.center view in
        let pat = View.center_input_edges view in
        match Hashtbl.find_opt tbl (v, pat) with
        | None -> []
        | Some tuple -> List.combine pat tuple);
  }
