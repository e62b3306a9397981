(** The 145-configuration predictor sweep of the paper's Section 3.

    The paper validates linearity of CPI in MPKI by simulating 145 branch
    predictor configurations of varying accuracy (plus a perfect predictor
    and L-TAGE) in MASE, regressing CPI on MPKI over the imperfect
    configurations, and checking the regression's prediction at MPKI = 0
    against true perfect-prediction CPI, and at L-TAGE's MPKI against true
    L-TAGE CPI. We run the same study on our pipeline model. *)

val configurations : unit -> (string * (unit -> Predictor.t)) list
(** Exactly 145 imperfect configurations: bimodal, gshare, GAs and hybrid
    predictors over a range of table sizes and history lengths, plus the
    static predictors. The list is memoized (the grid is immutable and each
    [make] is a pure constructor), so repeated calls return the same list;
    a grid edit that changes the count raises [Invalid_argument] with the
    observed count. *)

type point = { config_name : string; mpki : float; cpi : float }

type source = Replayed | Predicted
(** How a grid point's values were obtained: simulated truth, or filled in
    by the steering surrogate. *)

type steering =
  | Budget of int
      (** replay at most this many grid lanes (clamped to [2 .. n]; a
          budget covering the whole grid shortcuts to the plain fused
          path, bit-identically) *)
  | Max_err of float
      (** keep replaying until the surrogate's relative CPI uncertainty is
          below this percentage everywhere (reaching the whole grid in the
          worst case) *)

type study = {
  benchmark : string;
  points : point array;  (** the 145 imperfect configurations *)
  perfect_cpi : float;  (** simulated perfect-prediction CPI *)
  ltage_point : point;  (** simulated L-TAGE *)
  regression : Pi_stats.Linreg.t;  (** CPI ~ MPKI over [points] *)
  predicted_perfect_cpi : float;
  perfect_error_percent : float;  (** |predicted - actual| / actual * 100 *)
  predicted_ltage_cpi : float;
  ltage_error_percent : float;
  warmup_blocks : int;  (** leading blocks excluded from every count *)
  fused_lanes : int;  (** configurations swept by the fused one-pass engine *)
  fallback_lanes : int;  (** configurations on the sequential per-config path
      (all of them when [fused=false]) *)
  shards : int;  (** fused sub-batches executed (0 when [fused=false]) *)
  sources : source array;  (** aligned with [points]; all [Replayed] unless
      the study was surrogate-steered *)
  replayed_lanes : int;  (** grid points carrying simulated truth *)
  surrogate_rounds : int;  (** steering fit-replay rounds (0 when unsteered) *)
  surrogate_max_abs_err : float;
      (** max abs CPI error, percent, of the surrogate's pre-replay
          predictions against the replayed holdout lanes (0 when unsteered
          or when no steering round ran) *)
  surrogate_mean_abs_err : float;  (** mean of the same holdout errors *)
  grid_seconds : float;  (** wall seconds spent replaying the grid *)
  model_seconds : float;
      (** steered studies: wall seconds of steering outside replay (fits,
          scoring, sampling); 0 for an unsteered study *)
  lane_seconds : float;  (** [grid_seconds / replayed_lanes] — the measured
      per-lane replay cost steering budgets against *)
}

type shard_map = (int -> Pipeline.counts array) -> int -> Pipeline.counts array array
(** [map f n] evaluates [f 0 .. f (n-1)] — sequentially or in parallel —
    and returns the results in index order. {!Pi_campaign.Campaign.sweep_shard_map}
    provides a domain-parallel implementation; the default is sequential. *)

val run_grid :
  ?base:Pipeline.config ->
  ?plan:Replay.plan ->
  ?warmup_blocks:int ->
  ?shards:int ->
  ?map_shards:shard_map ->
  ?fused:bool ->
  Pi_isa.Trace.t ->
  Pi_layout.Placement.t ->
  point array * int * int * int * float
(** Just the 145-configuration grid of {!run_study}, without the perfect
    and L-TAGE reference simulations or the regression: the unit the fused
    engine accelerates, and the timing target of the sweep benchmark
    ([BENCH_sweep.json]). Returns
    [(points, fused_lanes, fallback_lanes, shards, grid_seconds)]; all
    arguments behave as in {!run_study}. *)

val run_study :
  ?base:Pipeline.config ->
  ?plan:Replay.plan ->
  ?warmup_blocks:int ->
  ?shards:int ->
  ?map_shards:shard_map ->
  ?fused:bool ->
  ?surrogate:steering ->
  benchmark:string ->
  Pi_isa.Trace.t ->
  Pi_layout.Placement.t ->
  study
(** Simulate every configuration on the given trace/placement (noise-free,
    as a simulator would) and evaluate the linear extrapolations. [base]
    defaults to {!Machine.xeon_e5440}. [plan] supplies a precompiled plan
    for [base] and the trace (callers running several studies on one trace
    — a placement sweep, or benchmarking — compile once and pass it here);
    it must be [Replay.compile base trace] or the study is meaningless.
    The study simulates the placement's data side ({!Replay.data_side})
    once and every replay in it, fused or sequential, shares it; a
    repeated study of the same plan and placement reuses the last one.

    By default ([fused], on) every kernel-bearing configuration is swept in
    one {!Replay.run_many} pass over the compiled plan — optionally split
    into [shards] lane shards (default 1) evaluated through [map_shards]
    (default sequential; pass a {!shard_map} backed by
    [Pi_campaign.Scheduler] for domain parallelism) — and only the
    kernel-less configurations (the static predictors), plus perfect and
    L-TAGE, take the sequential per-config path. [fused:false] forces the
    sequential loop for everything; results are bit-identical either way,
    and the merge order is deterministic regardless of [shards].

    [surrogate] switches on steering: the study seeds with a deterministic
    space-filling subset of the grid (anchored on the static predictors),
    fits a {!Pi_stats.Surrogate} per target metric in log space, and
    replays — fused, each round a selection ({!Replay.select}) of the
    memoized grid batch, sharded like the full grid, with no predictor
    built — only the lanes whose predicted CPI uncertainty still exceeds
    the tolerance ([Max_err]) or ranks highest under the lane budget
    ([Budget]), filling the rest from the model. A round replays up to 5
    of the most uncertain lanes. Under [Max_err], a round doubles that
    size whenever the count above tolerance fell by no more than it
    since the last round (the refit learned nothing beyond the lanes it
    was given), so a grid the model cannot certify costs a few rounds,
    not one per 5 lanes. [sources] tags each point, and
    [surrogate_max_abs_err]/[surrogate_mean_abs_err] report the model's
    pre-replay predictions against every lane that was subsequently
    replayed. Steering is deterministic: no RNG anywhere, so two steered
    runs of the same study replay the same lanes. *)

(** {1 The cache-geometry axis}

    INTERPLAY (PAPERS.md) predicts performance degradation under
    multi-cache way-disabling with a trained model; interferometry answers
    the same question with a regression over simulated geometry variants.
    The grid sweeps 10 variants of each seed cache — way-disabling to
    1..8 ways (set count preserved, capacity shrunk) plus a half-size and
    a double-size geometry at the seed associativity — crossed over L1I
    and L2: 100 points, one of which ([l1i-w8+l2-w8] on the 8-way seed
    machines) is the seed machine itself. *)

type cache_variant =
  | Ways of int  (** way-disable to [k] ways; sets constant *)
  | Half  (** half capacity at seed associativity *)
  | Double  (** double capacity at seed associativity *)

val cache_configurations : unit -> (string * cache_variant * cache_variant) list
(** Exactly 100 symbolic (name, L1I variant, L2 variant) descriptors,
    memoized like {!configurations}; a grid edit that changes the count
    raises [Invalid_argument] with the observed count. Descriptors are
    materialized against a machine's seed geometries by the cache sweep,
    which validates every variant ([Ways k] with [k] above the seed
    associativity, or a half-size that breaks the set-count power of two,
    raises [Invalid_argument]); duplicate materialized geometry pairs are
    rejected by {!Replay.cache_batch_of}. *)

val apply_cache_variant : Cache.geometry -> cache_variant -> Cache.geometry
(** Materialize one variant against a seed geometry, validating it (see
    {!cache_configurations}). [Ways k] preserves the set count; [Half] and
    [Double] preserve the associativity. *)

type cache_point = {
  geometry_name : string;
  l1i_geometry : Cache.geometry;
  l2_geometry : Cache.geometry;
  l1i_mpki : float;  (** L1I misses per kilo-instruction *)
  l2_mpki : float;  (** L2 misses per kilo-instruction *)
  cache_cpi : float;
}

type cache_study = {
  cache_benchmark : string;
  cache_points : cache_point array;  (** all 100 geometries, grid order *)
  seed_point : cache_point;  (** the lane matching the seed geometries *)
  degradation : Pi_stats.Multireg.t;
      (** CPI ~ (L1I MPKI, L2 MPKI) over the 99 degraded points. A miss
          rate flat across them is left out of the fit (coefficient 0,
          standard error 0; [k] stays 2); with both flat the fit is the
          mean CPI ([r_squared] 0, [f_p_value] 1). *)
  predicted_seed_cpi : float;  (** the model at the seed point's miss rates *)
  seed_error_percent : float;  (** |predicted - actual| / actual * 100 *)
  cache_warmup_blocks : int;
  cache_fused_lanes : int;
  cache_fallback_lanes : int;  (** all of them when [fused=false], else 0 *)
  cache_shards : int;  (** fused sub-batches executed (0 when [fused=false]) *)
  cache_sources : source array;  (** aligned with [cache_points] *)
  cache_replayed_lanes : int;
  cache_surrogate_rounds : int;
  cache_surrogate_max_abs_err : float;  (** percent CPI, replayed holdouts *)
  cache_surrogate_mean_abs_err : float;
  cache_grid_seconds : float;
  cache_model_seconds : float;  (** as [model_seconds] *)
  cache_lane_seconds : float;
}

val run_cache_grid :
  ?base:Pipeline.config ->
  ?plan:Replay.plan ->
  ?warmup_blocks:int ->
  ?shards:int ->
  ?map_shards:shard_map ->
  ?fused:bool ->
  Pi_isa.Trace.t ->
  Pi_layout.Placement.t ->
  cache_point array * int * int * int * float
(** Just the 100-geometry grid of {!run_cache_study}, without the
    regression: the unit the fused cache axis accelerates, and the timing
    target of [BENCH_cache_sweep.json]. Returns
    [(points, fused_lanes, fallback_lanes, shards, grid_seconds)]; all
    arguments behave as in {!run_study} (the fused batch is one
    {!Replay.cache_batch_of} pack, built once per call or study, and a
    steered study's rounds replay selections ({!Replay.select}) of it;
    its passes borrow the domain's pooled scratch, so concurrent grids
    never share tag state).
    The pack orders lanes by L2 geometry, so the grid replays as 10 groups
    of 10 lanes, each group sharing one L2 image until lanes whose L1Is
    disagree split a set; points still come back in grid order. *)

val run_cache_study :
  ?base:Pipeline.config ->
  ?plan:Replay.plan ->
  ?warmup_blocks:int ->
  ?shards:int ->
  ?map_shards:shard_map ->
  ?fused:bool ->
  ?surrogate:steering ->
  benchmark:string ->
  Pi_isa.Trace.t ->
  Pi_layout.Placement.t ->
  cache_study
(** Simulate every geometry on the given trace/placement, fit the
    degradation model over the 99 degraded points and evaluate its
    prediction at the seed point's miss rates against the simulated seed
    CPI. Sharding/fusion arguments behave exactly as in {!run_study};
    results are bit-identical across [fused] and [shards] settings.
    [surrogate] steers exactly as in {!run_study}, on
    {!Pi_stats.Surrogate.geometry_features} of the L1I/L2 pair, with the
    seed machine's lane anchored into the replayed set. *)
