(* Parsing and gate evaluation for slocal.bench/1 reports.

   The bench harness writes these documents and its compare / report /
   history subcommands gate on them; the extraction and gate logic
   lives here so the forward-compatibility contract (older reports
   lacking the allocation fields must skip-and-note, never crash) is
   unit-testable without running an experiment. *)

module Json = Slocal_obs.Json

let schema_version = "slocal.bench/1"

type experiment = {
  ex_id : string;
  ex_wall_ns : int option;
  ex_alloc_b : int option;
  ex_minor_n : int option;
  ex_major_n : int option;
  ex_counters : (string * int) list;
}

let experiments_of json =
  match Json.member "experiments" json with
  | None -> []
  | Some exps ->
      List.filter_map
        (fun e ->
          match Option.bind (Json.member "id" e) Json.as_string with
          | None -> None
          | Some id ->
              let int k = Option.bind (Json.member k e) Json.as_int in
              let counters =
                match Option.bind (Json.member "counters" e) Json.as_obj with
                | None -> []
                | Some kvs ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun n -> (k, n)) (Json.as_int v))
                      kvs
              in
              Some
                {
                  ex_id = id;
                  ex_wall_ns = int "wall_ns";
                  ex_alloc_b = int "alloc_b";
                  ex_minor_n = int "minor_n";
                  ex_major_n = int "major_n";
                  ex_counters = counters;
                })
        (Option.value ~default:[] (Json.as_list exps))

let enum_nodes json =
  List.filter_map
    (fun e ->
      Option.map
        (fun n -> (e.ex_id, n))
        (List.assoc_opt "re.enum_nodes" e.ex_counters))
    (experiments_of json)

let benchmarks_of json =
  match Json.member "benchmarks" json with
  | None -> []
  | Some l ->
      List.filter_map
        (fun b ->
          match
            ( Option.bind (Json.member "name" b) Json.as_string,
              Option.bind (Json.member "ns_per_run" b) Json.as_float )
          with
          | Some name, Some ns -> Some (name, ns)
          | _ -> None)
        (Option.value ~default:[] (Json.as_list l))

(* The enum-nodes CI gate: current may not exceed baseline by more
   than 10% (the counter is deterministic per experiment but the
   experiment set varies between quick and full runs). *)
let gate_ratio = 1.10

(* The deterministic effort counters held to [gate_ratio], one per
   searching layer: RE enumeration, the exact solver, and the 0-round
   table search. *)
let gated_counters = [ "re.enum_nodes"; "solver.nodes"; "zrs.instance_checks" ]

(* The allocation gate is far tighter: bytes allocated by the
   sequential kernels are deterministic for a fixed seed (the
   allocation-determinism proptest pins this down), so 2% headroom is
   pure safety margin for runtime-version drift. *)
let alloc_gate_ratio = 1.02

let ratio_of cur base = float_of_int cur /. float_of_int (max 1 base)
let breaches ~ratio ~base ~cur = float_of_int cur > float_of_int base *. ratio

type alloc_check = {
  ac_id : string;
  ac_base : int;
  ac_cur : int;
  ac_breach : bool;
}

type alloc_result = {
  checks : alloc_check list;  (* shared experiments with data on both sides *)
  skipped : string list;
      (* shared experiments where at least one report predates the
         alloc fields — skip-and-note, never a failure *)
}

let alloc_gate ~baseline ~current =
  let cur_exps = experiments_of current in
  let checks = ref [] and skipped = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun c -> c.ex_id = b.ex_id) cur_exps with
      | None -> ()
      | Some c -> (
          match (b.ex_alloc_b, c.ex_alloc_b) with
          | Some base, Some cur ->
              checks :=
                {
                  ac_id = b.ex_id;
                  ac_base = base;
                  ac_cur = cur;
                  ac_breach = breaches ~ratio:alloc_gate_ratio ~base ~cur;
                }
                :: !checks
          | _ -> skipped := b.ex_id :: !skipped))
    (experiments_of baseline);
  { checks = List.rev !checks; skipped = List.rev !skipped }

type counter_check = {
  cc_id : string;
  cc_counter : string;
  cc_base : int;
  cc_cur : int;
  cc_breach : bool;
}

let counter_gate ~baseline ~current =
  let cur_exps = experiments_of current in
  List.concat_map
    (fun b ->
      match List.find_opt (fun c -> c.ex_id = b.ex_id) cur_exps with
      | None -> []
      | Some c ->
          List.filter_map
            (fun k ->
              match (List.assoc_opt k b.ex_counters, List.assoc_opt k c.ex_counters) with
              | Some base, Some cur ->
                  Some
                    {
                      cc_id = b.ex_id;
                      cc_counter = k;
                      cc_base = base;
                      cc_cur = cur;
                      cc_breach = breaches ~ratio:gate_ratio ~base ~cur;
                    }
              | _ -> None)
            gated_counters)
    (experiments_of baseline)
