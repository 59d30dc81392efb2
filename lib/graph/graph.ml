module Int_tbl = Hashtbl.Make (Int)

type t = {
  n : int;
  edges : (int * int) array;
  inc : int list array;
}

let create ~n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative n";
  (* Duplicates are detected on the int key [u*n + v] of the
     normalized pair: cheaper to hash than the tuple. *)
  let seen = Int_tbl.create (List.length edge_list) in
  let norm (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.create: vertex out of range";
    if u = v then invalid_arg "Graph.create: self-loop";
    if u < v then (u, v) else (v, u)
  in
  let edges =
    List.map
      (fun e ->
        let ((u, v) as e) = norm e in
        let key = (u * n) + v in
        if Int_tbl.mem seen key then invalid_arg "Graph.create: duplicate edge";
        Int_tbl.add seen key ();
        e)
      edge_list
  in
  let edges = Array.of_list edges in
  let inc = Array.make n [] in
  Array.iteri
    (fun i (u, v) ->
      inc.(u) <- i :: inc.(u);
      inc.(v) <- i :: inc.(v))
    edges;
  for v = 0 to n - 1 do
    inc.(v) <- List.rev inc.(v)
  done;
  { n; edges; inc }

let n g = g.n
let m g = Array.length g.edges
let edge g e = g.edges.(e)
let edges g = Array.copy g.edges
let incident g v = g.inc.(v)

let other_end g e v =
  let u, w = g.edges.(e) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.other_end: vertex not an endpoint"

let neighbors g v = List.map (fun e -> other_end g e v) g.inc.(v)
let degree g v = List.length g.inc.(v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    d := max !d (degree g v)
  done;
  !d

let min_degree g =
  if g.n = 0 then 0
  else begin
    let d = ref max_int in
    for v = 0 to g.n - 1 do
      d := min !d (degree g v)
    done;
    !d
  end

let is_regular g d =
  let ok = ref true in
  for v = 0 to g.n - 1 do
    if degree g v <> d then ok := false
  done;
  !ok

let find_edge g u v =
  List.find_opt (fun e -> other_end g e u = v) g.inc.(u)

let mem_edge g u v = find_edge g u v <> None

let bfs_dist g src =
  let dist = Array.make g.n max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.push w q
        end)
      (neighbors g v)
  done;
  dist

let ball g v r =
  let dist = bfs_dist g v in
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    if dist.(u) <= r then acc := u :: !acc
  done;
  !acc

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for v = 0 to g.n - 1 do
    if not seen.(v) then begin
      let comp = ref [] in
      let q = Queue.create () in
      seen.(v) <- true;
      Queue.push v q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        comp := u :: !comp;
        List.iter
          (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.push w q
            end)
          (neighbors g u)
      done;
      comps := List.rev !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g = g.n <= 1 || List.length (components g) = 1

let induced g vs =
  let map = Array.of_list vs in
  let back = Array.make g.n (-1) in
  Array.iteri (fun i v -> back.(v) <- i) map;
  let edge_list = ref [] in
  Array.iter
    (fun (u, v) ->
      if back.(u) >= 0 && back.(v) >= 0 then
        edge_list := (back.(u), back.(v)) :: !edge_list)
    g.edges;
  (create ~n:(Array.length map) !edge_list, map)

let spanning_subgraph g ~keep =
  let edge_list = ref [] in
  Array.iteri (fun i e -> if keep i then edge_list := e :: !edge_list) g.edges;
  create ~n:g.n (List.rev !edge_list)

let disjoint_union a b =
  let shift (u, v) = (u + a.n, v + a.n) in
  create ~n:(a.n + b.n)
    (Array.to_list a.edges @ List.map shift (Array.to_list b.edges))

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d)" g.n (m g)
