(** Microbenchmark for the compiled-replay path ({!Pi_uarch.Replay}).

    Times plan compilation, the legacy interpreter
    ({!Pi_uarch.Pipeline.run_unoptimized}) and plan replay over the same
    placements, verifies both produce identical counts, and renders the
    numbers as JSON for the perf trajectory ([BENCH_pipeline.json]).

    Two legs. The default config's bump heap gives every seed the same
    data layout, so replay runs the way campaigns run it: the data side
    ({!Pi_uarch.Replay.data_side}) is built once, timed on its own, and
    shared by every placement. Under heap randomization every seed has its
    own data layout, so each replay builds its own data side. *)

type result = {
  bench : string;
  scale : int;
  layouts : int;  (** placements timed per path *)
  blocks : int;  (** dynamic blocks per observation *)
  mem_events : int;
  plan_words : int;  (** plan footprint, machine words *)
  trace_seconds : float;
      (** best-of-5 wall time of the one-pass {!Pi_layout.Run_limiter.trace} *)
  trace_identical : bool;  (** that trace = {!two_pass_trace}, field for field *)
  compile_seconds : float;
  data_side_seconds : float;  (** the shared data side, built once *)
  legacy_seconds : float;  (** total for [layouts] legacy observations *)
  replay_seconds : float;  (** same placements through the compiled plan *)
  legacy_obs_per_sec : float;
  replay_obs_per_sec : float;
  replay_blocks_per_sec : float;
  speedup : float;  (** legacy_seconds / replay_seconds *)
  identical : bool;  (** replay counts = legacy counts on every placement *)
  heap_random_legacy_seconds : float;  (** the heap-randomized leg *)
  heap_random_replay_seconds : float;  (** per-seed data side builds included *)
  heap_random_replay_obs_per_sec : float;
  heap_random_speedup : float;
  heap_random_identical : bool;
}

val run : ?bench:string -> ?scale:int -> ?layouts:int -> unit -> result
(** Build the benchmark (default 400.perlbench at scale 4), trace it (and
    time that, best of five, against {!two_pass_trace}), then time
    [layouts] observations through each path on each leg. Both paths are
    warmed with an extra untimed placement first. *)

val two_pass_trace : ?seed:int -> Pi_isa.Program.t -> budget_blocks:int -> Pi_isa.Trace.t
(** The reference for {!Pi_layout.Run_limiter.trace}: the paper's two
    separate executions, composed from {!Pi_layout.Run_limiter.choose},
    {!Pi_layout.Run_limiter.limits} and {!Pi_isa.Interp.run} — profile,
    then run again under the instrumentation's limits (or the profile's
    own, when there is nothing to instrument). *)

val to_json : result -> string
val write_json : path:string -> result -> unit

val summary : result -> string
(** Human-readable multi-line summary. *)

(** {1 Fused-sweep benchmark}

    Times the 145-configuration grid ({!Pi_uarch.Sweep.run_grid}) through the
    sequential per-config loop ([fused:false]) and the fused one-pass engine,
    verifies the full studies ({!Pi_uarch.Sweep.run_study}) are bit-identical
    across the two paths, and renders the throughput numbers as JSON
    ([BENCH_sweep.json]). *)

type sweep_result = {
  sweep_bench : string;
  sweep_scale : int;
  study_configs : int;  (** grid configurations timed per study (145) *)
  fused_lanes : int;  (** configurations swept by the one-pass engine *)
  fallback_lanes : int;  (** configurations on the per-config path *)
  blocks_per_pass : int;  (** dynamic blocks walked per study pass *)
  baseline_seconds : float;
      (** best-of-5 wall time of the 145-config grid, sequential path *)
  fused_seconds : float;  (** best-of-5 wall time of the grid, fused path *)
  baseline_configs_per_sec : float;
  fused_configs_per_sec : float;
  lane_blocks_per_sec : float;  (** fused_lanes x blocks / fused_seconds *)
  sweep_speedup : float;  (** baseline_seconds / fused_seconds *)
  sweep_identical : bool;  (** fused study = sequential study, bit for bit *)
}

val run_sweep : ?bench:string -> ?scale:int -> unit -> sweep_result
(** Build the benchmark (default 400.perlbench at scale 4), trace it once,
    then time {!Sweep.run_grid} through each path on the same placement —
    best of five reps per path, so a scheduler hiccup in one rep cannot
    fail the gate. The perfect/L-TAGE references and the regression are
    identical sequential work on both paths and are excluded from timing;
    [sweep_identical] still compares the two {e full} studies (and the two
    grids) bit for bit. Both paths are warmed by one untimed fused study
    first. *)

val sweep_to_json : sweep_result -> string
val write_sweep_json : path:string -> sweep_result -> unit

val sweep_summary : sweep_result -> string
(** Human-readable multi-line summary. *)

(** {1 Cache-axis sweep benchmark}

    Same protocol as {!run_sweep} for the cache axis: times the
    100-geometry grid ({!Pi_uarch.Sweep.run_cache_grid}) through the
    sequential per-geometry loop and the fused one-pass cache batch,
    verifies the full studies ({!Pi_uarch.Sweep.run_cache_study}) are
    bit-identical across the two paths, and renders the throughput
    numbers as JSON ([BENCH_cache_sweep.json]). *)

type cache_sweep_result = {
  cache_bench : string;
  cache_scale : int;
  cache_study_configs : int;  (** grid geometries timed per study (100) *)
  cache_fused_lanes : int;  (** always the whole grid — no fallback lanes *)
  cache_blocks_per_pass : int;
  cache_baseline_seconds : float;
      (** best-of-5 wall time of the 100-geometry grid, sequential path *)
  cache_fused_seconds : float;
  cache_baseline_configs_per_sec : float;
  cache_fused_configs_per_sec : float;
  cache_lane_blocks_per_sec : float;
  cache_speedup : float;  (** baseline_seconds / fused_seconds *)
  cache_identical : bool;  (** fused study = sequential study, bit for bit *)
}

val run_cache_sweep : ?bench:string -> ?scale:int -> unit -> cache_sweep_result
(** Build the benchmark (default 400.perlbench at scale 4), trace it once,
    then time {!Sweep.run_cache_grid} through each path on the same
    placement — best of five reps per path. The degradation-model fit is
    identical sequential work on both paths and is excluded from timing;
    [cache_identical] still compares the two full studies bit for bit. *)

val cache_sweep_to_json : cache_sweep_result -> string
val write_cache_sweep_json : path:string -> cache_sweep_result -> unit

val cache_sweep_summary : cache_sweep_result -> string
(** Human-readable multi-line summary. *)

(** {1 Flight-recorder overhead benchmark}

    Times the fused sweep grid with the recorder fully on — background
    {!Pi_obs.Timeseries} scrape loop at a 10 ms cadence (100× harsher
    than the daemon's 1 s default) plus a per-job {!Pi_obs.Span}
    collector, i.e. what a daemon job pays — against the same grid with
    the recorder off. [make perf] gates [rec_overhead_percent] at 5%
    ([PI_RECORDER_GATE]); the numbers land in [BENCH_recorder.json]. *)

type recorder_result = {
  rec_bench : string;
  rec_scale : int;
  rec_configs : int;  (** grid configurations per timed rep *)
  rec_scrape_interval : float;  (** seconds between recorder scrapes *)
  rec_off_seconds : float;  (** best-of-5 grid wall time, recorder off *)
  rec_on_seconds : float;  (** same grid, scrape loop + span collector on *)
  rec_off_configs_per_sec : float;
  rec_on_configs_per_sec : float;
  rec_overhead_percent : float;  (** (on − off) / off × 100 *)
  rec_points : int;  (** raw time-series points captured during the on pass *)
  rec_spans : int;  (** spans captured by the per-job collector *)
  rec_identical : bool;  (** grid points identical across recorder on/off *)
}

val run_recorder : ?bench:string -> ?scale:int -> unit -> recorder_result
(** Same protocol as {!run_sweep}: compile once, warm once, best-of-5
    timed grids per mode. Restores the global tracing flag on exit. *)

val recorder_to_json : recorder_result -> string
val write_recorder_json : path:string -> recorder_result -> unit

val recorder_summary : recorder_result -> string
(** Human-readable multi-line summary. *)

(** {1 Surrogate-steered sweep benchmark}

    Runs the steered [Max_err] predictor study
    ({!Pi_uarch.Sweep.run_study} with [surrogate]) against the golden
    full fused study on the same compiled plan, and records the pruning
    claim — how few grid lanes the steering replayed — next to the
    accuracy claim — every predicted lane within the tolerance of the
    golden CPI ([BENCH_surrogate.json]). [make perf] gates the prune
    factor at 5× ([PI_SURROGATE_GATE]); replayed-lane bit-identity and
    predicted-lane accuracy are enforced whenever the result is gated,
    including [make surrogate-smoke]. *)

type surrogate_result = {
  sur_bench : string;
  sur_scale : int;
  sur_grid_configs : int;  (** grid lanes in the full study (145) *)
  sur_max_err_percent : float;  (** the [Max_err] steering tolerance *)
  sur_replayed_lanes : int;  (** lanes carrying simulated truth *)
  sur_pruned_lanes : int;  (** lanes filled in by the surrogate *)
  sur_prune_factor : float;  (** [grid_configs / replayed_lanes] *)
  sur_rounds : int;  (** steering fit-replay rounds *)
  sur_holdout_max_err : float;
      (** the model's own pre-replay holdout error, percent CPI *)
  sur_holdout_mean_err : float;
  sur_predicted_max_err : float;
      (** max CPI error of the predicted lanes against the golden study,
          percent — the acceptance bound *)
  sur_full_seconds : float;  (** best-of-3 full fused study wall time *)
  sur_steered_seconds : float;  (** best-of-3 steered study, fits included *)
  sur_replay_seconds : float;  (** that study's time in fused replay *)
  sur_model_seconds : float;  (** that study's steering time outside replay *)
  sur_speedup : float;  (** [full_seconds / steered_seconds] *)
  sur_replayed_identical : bool;
      (** every replayed lane bit-identical to the golden study *)
  sur_within_tolerance : bool;
      (** [predicted_max_err <= max_err_percent] *)
}

val run_surrogate :
  ?bench:string -> ?scale:int -> ?max_err:float -> unit -> surrogate_result
(** Build the benchmark (default 183.equake at scale 2 — a smooth
    response surface the steering prunes hard), trace and compile once,
    warm with one untimed fused grid, then time the full fused study and
    the steered [Max_err max_err] study (default tolerance 1.0%), best of
    three each. Steering is deterministic, so the gated lane counts are
    identical across reps; only the wall times vary. *)

val surrogate_to_json : surrogate_result -> string
val write_surrogate_json : path:string -> surrogate_result -> unit

val surrogate_summary : surrogate_result -> string
(** Human-readable multi-line summary. *)

val surrogate_failures : gate:float -> surrogate_result -> string list
(** Gate verdicts, empty when the result passes: replayed-lane
    divergence and tolerance violations always fail; a positive [gate]
    additionally requires [sur_prune_factor >= gate]. Shared by
    [bench/perf.exe] and [bench/surrogate.exe] so [make perf] and
    [make surrogate-smoke] enforce identical rules. *)

(** {1 History metric bags}

    The flat numbers each benchmark contributes to the run-history
    ledger ({!Pi_obs.History}); names reuse the BENCH JSON field names
    so [interferometry compare] lines up across record sources. *)

val history_metrics : result -> (string * float) list
val sweep_history_metrics : sweep_result -> (string * float) list
val cache_sweep_history_metrics : cache_sweep_result -> (string * float) list
val recorder_history_metrics : recorder_result -> (string * float) list
val surrogate_history_metrics : surrogate_result -> (string * float) list
