(** Suite-wide interferometry campaigns.

    The paper's results are not single measurements but {e campaigns}:
    hundreds of perturbed placements per benchmark, across the whole SPEC
    suite, grown adaptively 100 -> 200 -> 300 until significance. This
    module runs such a campaign end to end:

    - benchmarks are {e prepared} (built + traced) in parallel, then every
      [(benchmark, seed)] observation job is drained from a shared work
      queue by {!Scheduler} domains;
    - completed observations are persisted in an {!Obs_cache}, so re-runs
      and layout-count growth only simulate seeds not yet on disk;
    - every state transition is emitted as a {!Telemetry} JSONL event, and
      the final {!Manifest} records per-benchmark fits and failures;
    - a job that raises (or overruns the cooperative deadline) is retried
      with exponential backoff up to [retries] times; a job still failing
      is marked failed with its error recorded; the campaign completes the
      remaining jobs and {!succeeded} reflects the partial failure;
    - the campaign is {e crash-safe}: each completed observation is
      persisted to the cache as it finishes, and a checkpoint manifest
      ([checkpoint_path]) is written before the first observation job, so
      an interrupted campaign resumes from exactly what it had finished
      (see docs/CAMPAIGN.md, "Resilience").

    Correctness invariant: a campaign is {e bit-identical} regardless of
    [jobs] and of cache state. Observations depend only on
    [(benchmark, config, seed)] — the per-seed PRNG derivation in
    {!Interferometry.Experiment} shares no random state across jobs — and
    results are assembled by seed, not by completion order. *)

type bench_outcome = {
  bench : Pi_workloads.Bench.t;
  dataset : Interferometry.Experiment.dataset option;
      (** successful observations sorted by seed; [None] when the
          benchmark failed to prepare *)
  entry : Manifest.bench_entry;
}

type result = { outcomes : bench_outcome list; manifest : Manifest.t }

val succeeded : result -> bool
(** No job failed and every benchmark prepared. *)

val run :
  ?config:Interferometry.Experiment.config ->
  ?jobs:int ->
  ?cache_dir:string ->
  ?events:Telemetry.sink ->
  ?deadline:float ->
  ?retries:int ->
  ?backoff:float ->
  ?fault:Fault.t ->
  ?checkpoint_path:string ->
  ?config_args:(string * Pi_obs.Json.t) list ->
  ?label:string ->
  ?observe:
    (bench:string ->
    prepared:Interferometry.Experiment.prepared ->
    seed:int ->
    Interferometry.Experiment.observation) ->
  n_layouts:int ->
  Pi_workloads.Bench.t list ->
  result
(** [run ~n_layouts benches] measures seeds [1 .. n_layouts] of every
    benchmark.

    [jobs] defaults to {!Scheduler.default_jobs}; [cache_dir] enables the
    observation cache; [events] (default {!Telemetry.null}) receives the
    JSONL progress stream; [deadline] is the cooperative per-job wall-time
    limit in seconds; [label] names the campaign in the manifest. The
    caller owns [events] and closes it.

    Resilience: [retries] (default 0) re-runs failed tasks with
    exponential backoff (base [backoff], default 0.05s) — attempt counts
    surface as [job_retried]/[prepare_retried] events and the manifest's
    [retries] fields. [checkpoint_path] writes an in-progress manifest
    before the first observation job (the resume anchor). [fault] turns on
    the {!Fault} injection harness; faults are deterministic in the fault
    seed and independent of the experiment PRNG, so a faulty-but-retried
    campaign still satisfies the bit-identical invariant. [config_args]
    is recorded verbatim in the manifest so [campaign --resume] can
    rebuild the config.

    [observe] replaces the in-process [E.observe_seed] for observation
    jobs — the hook through which {!Coordinator} runs jobs on worker
    processes. It must be a pure function of [(bench, config, seed)]
    (the default is), or the bit-identical invariant breaks. *)

val sweep_shard_map : ?jobs:int -> unit -> Pi_uarch.Sweep.shard_map
(** A {!Pi_uarch.Sweep.shard_map} backed by {!Scheduler.map}: evaluates the
    fused lane shards of a sweep study — either axis: predictor
    ({!Pi_uarch.Sweep.run_study}) or cache geometry
    ({!Pi_uarch.Sweep.run_cache_study}) — on [jobs] domains (default
    {!Scheduler.default_jobs}) and returns their counts in shard-index
    order, so [~map_shards:(sweep_shard_map ~jobs ())] is bit-identical to
    the sequential study for any [jobs]. *)
