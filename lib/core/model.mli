(** The per-benchmark performance model: [CPI = slope * MPKI + intercept].

    This is the paper's Table 1 artifact. The slope is the effective cycle
    cost of one extra misprediction per kilo-instruction; the intercept is
    the estimated CPI under perfect branch prediction; prediction intervals
    at MPKI = 0 bound that estimate with 95% confidence. *)

type t = {
  benchmark : string;
  regression : Pi_stats.Linreg.t;
  n_layouts : int;
  mean_mpki : float;
  mean_cpi : float;
  perfect_prediction : Pi_stats.Linreg.interval;
      (** 95% prediction interval at MPKI = 0 (Table 1 Low/High) *)
}

val fit : Experiment.dataset -> t
(** [fit_observations] over the dataset's observations, in a [fit] span. *)

val fit_observations : bench:string -> Experiment.observation array -> t
(** The CPI ~ MPKI fit of bare observations, for callers that hold no
    {!Experiment.prepared} (cache-served observations, campaign manifests).
    Raises whatever {!Pi_stats.Linreg.fit} raises on a degenerate sample. *)

val predict_cpi : ?level:float -> t -> mpki:float -> Pi_stats.Linreg.interval
(** Prediction interval for the CPI of a hypothetical predictor achieving
    [mpki] on this benchmark. *)

val confidence_cpi : ?level:float -> t -> mpki:float -> Pi_stats.Linreg.interval
(** Confidence interval for the mean response (used for the real,
    observed predictor in Figure 8). *)

val improvement_percent : t -> from_mpki:float -> to_mpki:float -> float
(** Estimated CPI improvement moving between two MPKI operating points
    (the paper's "halving the MPKI improves CPI by 13%" arithmetic). *)

val mpki_reduction_for_cpi_gain : t -> at_mpki:float -> gain_percent:float -> float option
(** Percent MPKI reduction required for a given CPI improvement at an
    operating point ("a 10% CPI improvement requires a 38% misprediction
    reduction"); [None] if the slope is non-positive. *)

val table1_header : string
val table1_row : t -> string
(** "Benchmark | Slope | y-intercept | Low | High" formatting. *)
