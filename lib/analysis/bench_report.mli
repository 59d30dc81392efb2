(** Parsing and gate evaluation for [slocal.bench/1] documents.

    The bench harness ([bench/main.ml]) writes these reports; its
    [compare], [report] and [history] subcommands extract experiments
    and evaluate the regression gates through this module, so the
    forward-compatibility contract — reports written before the
    allocation fields existed are skipped-and-noted, never a crash —
    is unit-testable from the test suite.

    Two gates exist.  The effort gate holds each of
    {!gated_counters} to {!gate_ratio} (1.10x) because the experiment
    mix varies; the allocation gate allows only {!alloc_gate_ratio}
    (1.02x) because sequential-kernel allocation is deterministic for a
    fixed seed (pinned down by the allocation-determinism proptest). *)

val schema_version : string
(** ["slocal.bench/1"].  The per-experiment [alloc_b] / [minor_n] /
    [major_n] fields are additive: older reports simply lack them. *)

type experiment = {
  ex_id : string;
  ex_wall_ns : int option;
  ex_alloc_b : int option;
      (** Bytes allocated by the experiment; [None] on reports from
          older writers. *)
  ex_minor_n : int option;
  ex_major_n : int option;
  ex_counters : (string * int) list;
}

val experiments_of : Slocal_obs.Json.t -> experiment list
(** In file order; entries without a string [id] are dropped. *)

val enum_nodes : Slocal_obs.Json.t -> (string * int) list
(** [(id, re.enum_nodes)] for experiments that report the counter. *)

val benchmarks_of : Slocal_obs.Json.t -> (string * float) list

val gate_ratio : float
(** [1.10] — the effort gate. *)

val gated_counters : string list
(** The deterministic effort counters the effort gate holds:
    [re.enum_nodes], [solver.nodes] and [zrs.instance_checks]. *)

val alloc_gate_ratio : float
(** [1.02] — the allocation gate. *)

val ratio_of : int -> int -> float
(** [ratio_of cur base], with [base] clamped to at least 1. *)

val breaches : ratio:float -> base:int -> cur:int -> bool

type alloc_check = {
  ac_id : string;
  ac_base : int;
  ac_cur : int;
  ac_breach : bool;  (** [cur > base * alloc_gate_ratio]. *)
}

type alloc_result = {
  checks : alloc_check list;
      (** Shared experiments carrying [alloc_b] on both sides. *)
  skipped : string list;
      (** Shared experiments where at least one side predates the
          alloc fields — noted, never an error. *)
}

val alloc_gate : baseline:Slocal_obs.Json.t -> current:Slocal_obs.Json.t -> alloc_result
(** Evaluate the allocation gate over the experiments shared by two
    reports. *)

type counter_check = {
  cc_id : string;
  cc_counter : string;  (** One of {!gated_counters}. *)
  cc_base : int;
  cc_cur : int;
  cc_breach : bool;  (** [cur > base * gate_ratio]. *)
}

val counter_gate :
  baseline:Slocal_obs.Json.t -> current:Slocal_obs.Json.t -> counter_check list
(** Evaluate the effort gate: one check per experiment shared by the
    two reports and gated counter both of them carry, in baseline
    order, counters in {!gated_counters} order. *)
