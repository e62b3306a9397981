(** The run manifest: a machine-readable record of one campaign.

    Where the telemetry stream (one JSONL line per event) answers "what is
    it doing right now", the manifest answers "what happened": which
    benchmarks ran, which observation jobs were computed, served from cache
    or failed (with the error that killed them), how long everything took,
    and the per-benchmark regression fit — R^2, slope, intercept — that is
    the campaign's scientific product. It is written once, at the end,
    whether or not every job succeeded. *)

type fit = {
  r_squared : float;
  slope : float;
  intercept : float;
  mean_mpki : float;
  mean_cpi : float;
}

type job_failure = { seed : int; error : string }

type bench_entry = {
  bench : string;
  suite : string;
  requested : int;  (** layouts asked for *)
  computed : int;  (** observation jobs actually simulated *)
  cached : int;  (** jobs served from the observation cache *)
  warmup_blocks : int;
      (** leading trace blocks excluded from every observation's counts —
          recorded so downstream fits are auditable; 0 when the benchmark
          never prepared (or in pre-PR5 manifests) *)
  retries : int;
      (** extra attempts spent on this bench's tasks (prepare included);
          0 when every task succeeded first try *)
  failures : job_failure list;
  prepare_seconds : float;
  observe_seconds : float;  (** summed wall time of this bench's computed jobs *)
  wall_seconds : float;
      (** window from this bench's first task start to its last task finish
          (monotonic); under parallelism this is smaller than [cpu_seconds] *)
  cpu_seconds : float;
      (** prepare plus summed job seconds — jobs are single-domain
          CPU-bound, so per-task wall time approximates CPU time *)
  prepare_error : string option;
      (** when set, the benchmark never prepared and all its jobs failed *)
  fit : fit option;  (** [None] when too few observations survived to fit *)
}

type t = {
  label : string;  (** suite selector, e.g. "2006" *)
  n_layouts : int;
  jobs : int;
  config_digest : string;
  cache_dir : string option;
  config_args : (string * Pi_obs.Json.t) list;
      (** the caller-facing knobs (quick/seed/scale/heap_random for the
          CLI) that rebuilt [config]; [campaign --resume] reconstructs the
          config from these and verifies it against [config_digest] *)
  checkpoint : bool;
      (** true for the in-progress manifest written at campaign start —
          the resume anchor an interrupted run leaves behind; the final
          manifest overwrites it with [checkpoint = false] *)
  started_at : float;  (** unix seconds *)
  wall_seconds : float;
  total_jobs : int;
  computed_jobs : int;
  cached_jobs : int;
  failed_jobs : int;
  retried_jobs : int;  (** extra attempts spent across all benches *)
  cache_hits : int;  (** observation-cache probes answered from disk *)
  cache_misses : int;
      (** probes that missed and became compute jobs; 0 when no cache
          directory was configured (nothing was probed) *)
  benches : bench_entry list;
}

val complete : t -> bool
(** True when this is a final (non-checkpoint) manifest and every
    observation job of every benchmark succeeded. *)

val to_json : t -> Pi_obs.Json.t

val of_json : Pi_obs.Json.t -> (t, string) result
(** Inverse of {!to_json}. Fields added after v1 ([retries],
    [checkpoint], [config_args], [warmup_blocks]) default when absent, so
    older manifests still load. *)

val save : t -> path:string -> unit
(** Write the manifest as (indent-free) JSON. *)

val load : path:string -> (t, string) result
(** Read a manifest written by {!save} — the entry point of
    [campaign --resume]. *)

val summary_table : t -> string
(** Human-readable per-benchmark table for terminal output. *)

val history_metrics : t -> (string * float) list
(** The flat metric bag a campaign contributes to the run-history ledger
    ({!Pi_obs.History}): wall/cpu seconds, [obs_per_sec] (computed jobs
    per wall second; 0 when nothing was computed), [cache_hit_ratio],
    job counts, and one [<bench>.r_squared] per fitted benchmark. *)
