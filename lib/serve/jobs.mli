(** Daemon job semantics: what a submission means, how it is keyed, and
    how it executes.

    A job is fully described by its {!params}; two submissions with equal
    params are {e the same job} — {!key} digests the canonical form, the
    server dedups on it, and WAL replay re-derives the same job id after a
    crash, which is what makes recovery exactly-once.

    Result documents are {e deterministic}: built only from
    [(benchmark, config, seed)]-reproducible observations and fits, with
    no timestamps or cached-vs-computed distinctions — so a job finished
    after a crash+replay is byte-identical to the same job finished in one
    uninterrupted run (the [serve-smoke] invariant). *)

module J = Pi_obs.Json

type kind =
  | Measure  (** observations + model fit for each benchmark *)
  | Predict  (** Figure 7/8 predictor evaluation for one benchmark *)
  | Campaign  (** {!Measure} over a whole suite *)
  | Cache_sweep
      (** fused 100-geometry cache degradation study for one benchmark
          ({!Pi_uarch.Sweep.run_cache_study}) *)
  | Bundle
      (** re-verify a content-addressed run bundle on disk
          ({!Pi_campaign.Bundle.verify}) *)
  | Estimate
      (** answer a one-benchmark measurement question {e instantly} from
          observations already in the cache — no replay — while the server
          enqueues the {!Measure} twin (same params, kind swapped) in the
          background to refine it. The predicted and refined documents are
          distinct artifacts under distinct job ids; the estimate names
          its twin in a ["refined_job"] field. An estimate document is a
          function of (params, cache contents): deterministic for a given
          cache state, and convergent — once the twin has run the cache
          holds every seed, so executing the estimate again reproduces
          the refined fit bit-for-bit. *)

type params = {
  kind : kind;
  benches : string list;  (** validated registry names, sorted, deduped *)
  layouts : int;
  seed : int;  (** master PRNG seed *)
  scale : int;
  heap_random : bool;
  quick : bool;  (** base the config on {!Interferometry.Experiment.quick_config} *)
  dir : string;  (** bundle directory — [""] for every other kind *)
}

val kind_name : kind -> string

val parse : J.t -> (params, string) result
(** Parse and validate a submission body, e.g.
    [{"kind":"measure","bench":"429.mcf","layouts":12,"quick":true}].
    Accepts ["bench"] (one), ["benches"] (list) or ["suite"]
    (["2006"|"2000"|"table1"|"sim"|"all"]); [Predict], [Cache_sweep] and
    [Estimate] require exactly one benchmark. [Bundle] instead requires a non-empty
    string ["dir"] (the bundle directory) and takes no benchmarks.
    Unknown benchmarks, unknown fields, and out-of-range values
    ([layouts] outside 3..1000, [scale] outside 1..64, negative [seed])
    are [Error]s — the network boundary validates before the ledger ever
    sees the request. *)

val canonical : params -> J.t
(** Canonical JSON form: fixed field order, benches sorted — equal params
    render identically. This is what the ledger records. *)

val key : params -> string
(** Hex digest of {!canonical} — the dedup identity. *)

val id_of_key : string -> string
(** The public job id derived from a key (short digest prefix), stable
    across restarts so clients can poll through a daemon crash. *)

val execute : cache:Pi_campaign.Obs_cache.t -> params -> (J.t, string) result
(** Run the job and build its result document.

    Measurement jobs are cache-first: if every seed [1..layouts] of a
    benchmark is already in [cache], its observations are served straight
    from disk with {e no} [prepare] (the O(lookup) fast path). Missing
    seeds are computed and stored {e one at a time}, so a SIGKILL
    mid-job loses at most the observation in flight and the replayed job
    resumes from what the cache already holds. Exceptions become
    [Error]s.

    [Bundle] jobs re-hash the bundle at [params.dir] and report
    [{"ok":bool,"checked":N,"problems":[...]}]; an unreadable manifest is
    an ok:false result with an ["error"] field, not a job failure.

    [Estimate] jobs never replay: they fit over the cached observations
    whose seeds fall in [1..layouts] (fewer than 3 is an ok:false
    document, not a failure), report the fit plus held-out
    ({!Pi_stats.Surrogate.oof_residuals}) CPI error bars, flag
    ["stale":true] while seeds are missing, and name the measure twin in
    ["refined_job"]. *)
