(** Learned response-surface surrogates for configuration sweeps.

    A sweep replays one compiled trace under hundreds of configurations,
    but the (config, placement) → (MPKI, CPI) surface is close to
    low-dimensional: CPI is (mostly) linear in a handful of miss/mispredict
    event rates — the paper's own thesis — and those rates vary smoothly
    with predictor table geometry and cache shape. This module learns that
    surface from a handful of replayed points so {!Pi_uarch.Sweep} can
    prune the rest of the grid, replaying only where the model is
    uncertain.

    Pure OCaml; no external dependencies. Everything
    here is deterministic: no RNG, ties broken by lowest index, so a
    steered sweep is reproducible run to run. *)

(** {1 Standardization} *)

type scaler
(** Per-column z-score parameters (mean, standard deviation). *)

val scaler_fit : float array array -> scaler
(** Column means and population standard deviations. Constant columns
    (std below 1e-12) standardize to 0 and invert back exactly. *)

val scaler_transform : scaler -> float array -> float array
val scaler_inverse : scaler -> float array -> float array
(** [scaler_inverse s (scaler_transform s x) = x] up to rounding, constant
    columns exactly. *)

(** {1 Ridge regression} *)

type ridge = {
  weights : float array;
  bias : float;
  lambda_used : float;
      (** the regularizer the condition-number guard settled on — the
          requested [lambda] unless the normal equations were too
          ill-conditioned, in which case it was escalated ×10 until the
          Cholesky diagonal spread fell under 1e10 *)
}

val ridge_fit : ?lambda:float -> float array array -> float array -> ridge
(** [ridge_fit xs ys] solves the regularized normal equations
    [(Xᶜ'Xᶜ + λ n I) w = Xᶜ'yᶜ] on mean-centered data (the intercept is
    not penalized), with a condition-number guard: if the Cholesky factor
    reports a diagonal spread above 1e10 — or fails outright — [lambda]
    is escalated ×10 and the solve retried, so a rank-deficient design
    (collinear or constant features) degrades to a shrunk fit instead of
    raising. Default [lambda] 1e-4. *)

val ridge_predict : ridge -> float array -> float

(** {1 Gradient-boosted stumps}

    A small additive ensemble of depth-1 regression trees fit to the
    residual of the ridge fit — the nonlinear correction for kinks the
    linear model cannot express (family switches, capacity cliffs).
    Deterministic: splits are chosen by exact SSE over midpoint
    thresholds, ties to the lowest feature/threshold. *)

type stump = { feat : int; thresh : float; left : float; right : float }

val boost_fit :
  ?rounds:int -> ?rate:float -> float array array -> float array -> stump array
(** Fit [rounds] (default 24) stumps to [ys] by gradient boosting with
    shrinkage [rate] (default 0.5); stops early when the best split's SSE
    gain vanishes. *)

val boost_predict : stump array -> float array -> float

(** {1 The surrogate model}

    Ridge + boosted-stump residual on standardized features, with
    uncertainty from a leave-out ensemble: [folds] sub-models are each
    trained with a deterministic slice of the data held out, and a
    prediction's uncertainty combines the ensemble's spread at that point
    with the 90th-percentile out-of-fold training error — so uncertainty
    is calibrated against errors the model actually made on points it had
    not seen. *)

type t

val fit :
  ?lambda:float ->
  ?boost_rounds:int ->
  ?folds:int ->
  float array array ->
  float array ->
  t
(** [fit xs ys] with at least 2 points. [folds] defaults to 5 (clamped to
    [n]); with fewer than 4 points the ensemble degenerates and
    uncertainty falls back to the full-fit residual RMS. Each feature
    column is sorted once per fit and every ridge solve of the ensemble
    shares one float workspace, so a fit costs O(d n log n) to presort
    plus O(folds (n d^2 + rounds n d)) to train. *)

val predict : t -> float array -> float

val uncertainty : t -> float array -> float
(** Absolute-scale uncertainty at a point: leave-out ensemble spread plus
    the out-of-fold p90 error. Conservative by construction — it can only
    understate the error where every fold model agrees on a surface the
    training data never contradicted. *)

val oof_p90 : t -> float
(** The 90th-percentile absolute out-of-fold error on the training set
    (0 when the ensemble degenerated). *)

val oof_residuals : t -> float array
(** Signed held-out residuals [y_i - fold_prediction_i], aligned with the
    training rows: each row is predicted by the fold member whose training
    slice excluded it, so these are honest out-of-sample errors even when
    the full fit interpolates the data. Empty when the ensemble
    degenerated ([n < 4] or fewer than 2 folds). *)

(** {1 Deterministic space-filling sampling} *)

val sample_order : ?anchors:int list -> float array array -> int array
(** Greedy farthest-point traversal of the (standardized) feature rows: a
    permutation of [0 .. n-1] whose every prefix is a space-filling
    design. Starts from [anchors] (default [[0]]; out-of-range anchors
    ignored), then repeatedly appends the point farthest from everything
    chosen so far, ties to the lowest index. Deterministic — the seeded
    subset of a steered sweep is the same on every run. *)

(** {1 Nearest neighbours} *)

val nearest :
  float array array -> int array -> float array -> dist:float array -> idx:int array -> int
(** [nearest zs ks z ~dist ~idx] finds the rows [zs.(j)], [j] in [ks],
    closest to [z] in squared Euclidean distance, and writes the closest
    [k = min (Array.length idx) (Array.length dist)] of them to [idx], with
    their squared distances in [dist]: the first [k] entries of every
    [(dist2, j)] pair sorted by [compare], so ties go to the lower index.
    Returns how many entries it wrote, [min k (Array.length ks)]. A top-k
    insertion: it allocates nothing and sorts nothing. *)

(** {1 Feature extraction} *)

val predictor_features : string -> float array
(** Features of a predictor-sweep configuration {e name} as generated by
    {!Pi_uarch.Sweep.configurations} — ["bimodal-12"], ["gshare-14/10"],
    ["gas-11/9"], ["hybrid-13/8"], ["static-taken"], ["static-not-taken"]:
    family one-hot (6), global log2 table entries and history length, and
    a per-family quadratic block in (entries, history) — [el], [h], [el^2],
    [h^2], [el*h] gated by the family indicator — so a single ridge fit
    decouples into per-family response surfaces (25 total). Raises
    [Invalid_argument] on names outside the grid grammar. *)

val predictor_feature_dim : int

val geometry_features :
  sets:int -> ways:int -> line_bytes:int -> size_bytes:int -> float array
(** Features of one cache geometry: log2 sets, ways, line and total size
    (4 per cache; a cache-axis lane concatenates the L1I and L2 vectors).
    All arguments must be positive. *)

val geometry_feature_dim : int
