open Slocal_formalism
module Gen = Slocal_graph.Graph_gen
module Bipartite = Slocal_graph.Bipartite
module Ledger = Slocal_obs.Ledger
module Telemetry = Slocal_obs.Telemetry
module MF = Slocal_problems.Matching_family
module CF = Slocal_problems.Coloring_family
module RF = Slocal_problems.Ruling_family
module Classic = Slocal_problems.Classic
module Bounds = Supported_local.Bounds

exception Bad of string

let int v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> raise (Bad (Printf.sprintf "field %S is not an integer" v))

(* Run a spec parser, turning every expected failure into one SL000
   error about [spec]: [Bad] from the spec grammar, [Invalid_argument]
   from a family constructor or the document parser. *)
let typed ~what spec f =
  let error msg =
    Error
      (Diagnostic.error ~code:"SL000" ~subject:spec
         (Printf.sprintf "unparsable %s: %s" what msg))
  in
  match f () with
  | v -> Ok v
  | exception Bad msg -> error msg
  | exception Invalid_argument msg -> error msg

let problem spec =
  typed ~what:"problem" spec @@ fun () ->
  let p =
    match String.split_on_char ':' spec with
    | [ "matching"; d; x; y ] -> MF.pi ~delta:(int d) ~x:(int x) ~y:(int y)
    | [ "mm"; d ] -> MF.maximal_matching ~delta:(int d)
    | [ "arb"; d; c ] -> CF.pi ~delta:(int d) ~c:(int c)
    | [ "ruling"; d; c; b ] -> RF.pi ~delta:(int d) ~c:(int c) ~beta:(int b)
    | [ "so"; d ] -> Classic.sinkless_orientation ~delta:(int d)
    | [ "col"; d; c ] -> Classic.coloring ~delta:(int d) ~c:(int c)
    | "file" :: rest ->
        let path = String.concat ":" rest in
        let text =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error msg -> raise (Bad ("unreadable file: " ^ msg))
        in
        Problem.of_string text
    | _ -> raise (Bad "unknown problem spec")
  in
  (* No-op unless a run context is open (kernel-facing subcommands). *)
  Ledger.note_problem ~name:p.Problem.name ~hash:(Problem.canonical_hash p);
  p

let certify ~n ~d ~seed =
  Gen.high_girth_low_independence (Slocal_util.Prng.create seed) ~n ~d ()

let certified ~n ~d ~seed =
  typed ~what:"graph" (Printf.sprintf "gen -n %d -d %d" n d) @@ fun () ->
  certify ~n ~d ~seed

let graph spec =
  typed ~what:"graph" spec @@ fun () ->
  let bipartite_cycle k =
    let g = Gen.cycle (2 * k) in
    Bipartite.make g
      (Array.init (2 * k) (fun v ->
           if v mod 2 = 0 then Bipartite.White else Bipartite.Black))
  in
  match String.split_on_char ':' spec with
  | [ "cycle"; k ] -> bipartite_cycle (int k)
  | [ "kbb"; a; b ] -> Gen.complete_bipartite (int a) (int b)
  | [ "cover-petersen" ] -> Gen.double_cover (Gen.petersen ())
  | [ "cover-random"; n; d; seed ] ->
      let c = certify ~n:(int n) ~d:(int d) ~seed:(int seed) in
      Telemetry.message
        (Printf.sprintf "%s: base girth %s, target %d %s" spec
           (match c.Gen.girth with None -> "∞" | Some x -> string_of_int x)
           c.Gen.girth_target
           (Gen.girth_outcome_to_string c.Gen.girth_outcome));
      Gen.double_cover c.Gen.graph
  | [ "biregular"; nw; nb; dw; db; seed ] ->
      let rng = Slocal_util.Prng.create (int seed) in
      Gen.random_biregular rng ~nw:(int nw) ~nb:(int nb) ~dw:(int dw)
        ~db:(int db)
  | _ -> raise (Bad "unknown graph spec")

type bound =
  | Matching of { delta' : int; bound : Bounds.two_sided }
  | Arbdefective of Bounds.two_sided
  | Ruling_set of Bounds.two_sided
  | Mis of Bounds.mis_corollary

let bound spec ~n =
  typed ~what:"bound" spec @@ fun () ->
  match String.split_on_char ':' spec with
  | [ "matching"; d'; x; y ] ->
      let delta' = int d' in
      Matching
        {
          delta';
          bound =
            Bounds.matching ~delta:(5 * delta') ~delta' ~x:(int x) ~y:(int y)
              ~eps:0.1 ~n;
        }
  | [ "arb"; d; d'; a; c ] ->
      Arbdefective
        (Bounds.arbdefective ~delta:(int d) ~delta':(int d') ~alpha:(int a)
           ~c:(int c) ~eps:0.25 ~n)
  | [ "ruling"; d; d'; a; c; beta ] ->
      Ruling_set
        (Bounds.ruling_set ~delta:(int d) ~delta':(int d') ~alpha:(int a)
           ~c:(int c) ~beta:(int beta) ~eps:0.25 ~cbig:2. ~n)
  | [ "mis" ] -> Mis (Bounds.mis_vs_chromatic ~n)
  | _ ->
      raise
        (Bad "unknown bound spec (matching:D':X:Y | arb:D:D':A:C | ruling:D:D':A:C:B | mis)")
