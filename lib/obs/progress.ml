(* Live progress heartbeat for long-horizon runs.

   One throttled line at a time to stderr (never stdout, so JSON and
   table output stay machine-parseable), driven from the sequence
   iteration loop and the solver's node counter.  Inactive unless the
   CLI opts a command in: [Auto] emits only when stderr is a TTY,
   [Forced] (the --progress flag) emits unconditionally, [Off] (the
   library default) never emits, so instrumented kernels running under
   tests or the bench harness stay silent.

   Every would-be heartbeat throttles through one last-emit timestamp:
   a tick inside the current interval bumps the [progress.dropped]
   counter instead of emitting. *)

type mode = Off | Auto | Forced

let mode = ref Off (* staticcheck: immutable-after-init set once by the CLI before kernels run *)
let out = ref stderr (* staticcheck: immutable-after-init set once by the CLI before kernels run *)
let interval_ns = ref 500_000_000L (* staticcheck: immutable-after-init set once by the CLI before kernels run *)
let heartbeats = Telemetry.counter "progress.heartbeats"
let dropped = Telemetry.counter "progress.dropped"

(* stderr's TTY-ness cannot change mid-process; cache the syscall so
   [Auto]-mode ticks from the solver hot loop stay cheap. *)
(* staticcheck: immutable-after-init forcing races are idempotent (same syscall result) *)
let stderr_tty = lazy (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

let is_active () =
  match !mode with
  | Off -> false
  | Forced -> true
  | Auto -> Lazy.force stderr_tty

let set_mode m = mode := m
let set_output oc = out := oc
let set_interval_ns ns = interval_ns := ns
let heartbeat_count () = Telemetry.value heartbeats
let dropped_count () = Telemetry.value dropped

(* The single last-emit timestamp: all heartbeat sources (phase ticks
   and solver ticks) throttle through it.  0L means "emit immediately"
   (fresh phase). *)
let last_emit = ref 0L (* staticcheck: per-call throttle cell of the one heartbeat stream *)

(* [true] for at most one tick per interval window; a tick that comes
   too early counts as dropped. *)
let claim_emit t =
  let last = !last_emit in
  if last = 0L || Int64.compare (Int64.sub t last) !interval_ns >= 0 then begin
    last_emit := t;
    true
  end
  else begin
    Telemetry.incr dropped;
    false
  end

let emit_line line =
  Telemetry.incr heartbeats;
  (try
     output_string !out ("[progress] " ^ line ^ "\n");
     flush !out
   with Sys_error _ -> ())

let pp_secs s =
  if s >= 3600. then Printf.sprintf "%dh%02dm" (int_of_float s / 3600)
      (int_of_float s mod 3600 / 60)
  else if s >= 60. then Printf.sprintf "%dm%02ds" (int_of_float s / 60)
      (int_of_float s mod 60)
  else Printf.sprintf "%.1fs" s

(* ------------------------------------------------------------------ *)
(* Phase progress: an explicit start/tick/finish protocol used by
   [Sequence.iterate_re], with an ETA from the target-length budget. *)

let ph_label = ref "" (* staticcheck: per-call one phase display active at a time *)
let ph_total = ref None (* staticcheck: per-call one phase display active at a time *)
let ph_t0 = ref 0L (* staticcheck: per-call one phase display active at a time *)
let ph_started = ref false (* staticcheck: per-call one phase display active at a time *)

let start ?total label =
  if is_active () then begin
    ph_label := label;
    ph_total := total;
    ph_t0 := Telemetry.now_ns ();
    (* A fresh phase emits its first tick immediately. *)
    last_emit := 0L;
    ph_started := true
  end

let tick ?step ?info () =
  if !ph_started && is_active () then begin
    let t = Telemetry.now_ns () in
    if claim_emit t then begin
      let elapsed = Int64.to_float (Int64.sub t !ph_t0) /. 1e9 in
      let pos =
        match (step, !ph_total) with
        | Some k, Some n when n > 0 ->
            let eta =
              if k > 0 then
                Printf.sprintf " eta %s"
                  (pp_secs (elapsed /. float_of_int k *. float_of_int (n - k)))
              else ""
            in
            Printf.sprintf " %d/%d%s" k n eta
        | Some k, _ -> Printf.sprintf " %d" k
        | None, _ -> ""
      in
      let info = match info with None -> "" | Some s -> " | " ^ s in
      emit_line
        (Printf.sprintf "%s%s | elapsed %s%s" !ph_label pos (pp_secs elapsed)
           info)
    end
  end

let finish () = ph_started := false

(* ------------------------------------------------------------------ *)
(* Solver heartbeat: called from the search hot loop with the
   cumulative node count of the current solve.  The nodes/s rate
   needs a previous (nodes, t) observation; emission rights go through
   the shared [last_emit] throttle.  A node count below the last one
   means a new solve began. *)

let sv_nodes = ref 0 (* staticcheck: per-call node count of the last solver observation *)
let sv_t = ref 0L (* staticcheck: per-call time of the last solver observation *)

let solver_tick ~nodes =
  if is_active () then begin
    let t = Telemetry.now_ns () in
    if !sv_t = 0L || nodes < !sv_nodes then begin
      sv_t := t;
      sv_nodes := nodes
    end
    else if Int64.compare (Int64.sub t !sv_t) !interval_ns >= 0 then begin
      if claim_emit t then begin
        let dt = Int64.to_float (Int64.sub t !sv_t) /. 1e9 in
        let rate = float_of_int (nodes - !sv_nodes) /. dt in
        emit_line (Printf.sprintf "solver %d nodes (%.0f nodes/s)" nodes rate)
      end;
      (* Start a fresh rate window whether or not this tick emitted. *)
      sv_t := t;
      sv_nodes := nodes
    end
  end

let reset () =
  ph_started := false;
  last_emit := 0L;
  sv_nodes := 0;
  sv_t := 0L
