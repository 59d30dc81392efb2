(* In-memory spans recorded by the benchmark around each call into a
   library layer.  The library's own telemetry sink stays off: these
   spans live only in this process and are written out at exit. *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  name : string;  (** [<layer>.<function>], or [bench.item] for an item root. *)
  item : string;  (** The item id shared by every span of one item. *)
  start_ns : int;
  end_ns : int;
  alloc_bytes : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []
let current_item = ref ""

let now_ns () = Int64.to_int (Slocal_obs.Telemetry.now_ns ())

let reset () =
  recorded := [];
  next_id := 0;
  open_stack := []

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      let a1 = Gc.allocated_bytes () in
      open_stack := List.tl !open_stack;
      recorded :=
        {
          id;
          parent;
          name;
          item = !current_item;
          start_ns = t0;
          end_ns = t1;
          alloc_bytes = a1 -. a0;
        }
        :: !recorded
    in
    Fun.protect ~finally:close f
  end

let item_span item f =
  current_item := item;
  span "bench.item" f

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Total length of the union of [(start, end)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur_s cur_e = function
    | [] -> acc + (cur_e - cur_s)
    | (s, e) :: rest ->
        if s > cur_e then go (acc + (cur_e - cur_s)) s e rest
        else go acc cur_s (max cur_e e) rest
  in
  match sorted with [] -> 0 | (s, e) :: rest -> go 0 s e rest

(* Each span's self time (its duration minus the part of it its child
   spans cover) and self allocation (minus the children's). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let covered =
        union_length
          (List.filter_map
             (fun k ->
               let a = max s.start_ns k.start_ns and b = min s.end_ns k.end_ns in
               if b > a then Some (a, b) else None)
             kids)
      in
      let kid_alloc = List.fold_left (fun acc k -> acc +. k.alloc_bytes) 0. kids in
      (s, s.end_ns - s.start_ns - covered, s.alloc_bytes -. kid_alloc))
    spans

type layer = { mutable calls : int; mutable self_ns : int; mutable alloc : float }

(* Per-layer totals of calls, self time and self allocation, keyed by
   the span name's prefix.  [bench.item] self time is the runner's own
   work between layer calls. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self_ns, self_alloc) ->
      let l = layer_of s.name in
      let r =
        match Hashtbl.find_opt tbl l with
        | Some r -> r
        | None ->
            let r = { calls = 0; self_ns = 0; alloc = 0. } in
            Hashtbl.add tbl l r;
            r
      in
      r.calls <- r.calls + 1;
      r.self_ns <- r.self_ns + self_ns;
      r.alloc <- r.alloc +. self_alloc)
    (self_times spans);
  tbl

let write_jsonl file spans =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"item\":%S,\"start_ns\":%d,\"end_ns\":%d,\"alloc_bytes\":%.0f}\n"
        s.id s.parent s.name s.item s.start_ns s.end_ns s.alloc_bytes)
    (List.sort (fun a b -> compare a.id b.id) spans);
  close_out oc

(* Self times of a well-nested item must add up to the item's wall
   time.  Checked on a synthetic span list with two levels of nesting
   and a gap between children. *)
let self_test () =
  let mk id parent name s e =
    { id; parent; name; item = "synthetic"; start_ns = s; end_ns = e; alloc_bytes = 0. }
  in
  let spans =
    [
      mk 0 (-1) "bench.item" 0 100;
      mk 1 0 "re_step.re" 10 40;
      mk 2 1 "constr.query" 15 20;
      mk 3 0 "relaxation.exists" 50 90;
      mk 4 0 "girth.girth" 95 100;
    ]
  in
  let selfs = self_times spans in
  let total = List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 selfs in
  let self_of id =
    List.find_map (fun (s, ns, _) -> if s.id = id then Some ns else None) selfs
  in
  total = 100
  && self_of 0 = Some 25
  && self_of 1 = Some 25
  && union_length [ (0, 10); (5, 15); (20, 30) ] = 25
