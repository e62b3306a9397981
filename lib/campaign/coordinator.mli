(** Multi-process campaign coordinator.

    [interferometry campaign --workers N] spawns N worker processes (the
    hidden [campaign-worker] subcommand) and dispatches observation jobs
    to them over length-prefixed pipes. The coordinator keeps an idle
    pool: whichever worker finishes first takes the next job (work
    stealing), and the scheduler's deterministic by-seed assembly is
    untouched — observations are pure functions of
    [(benchmark, config, seed)], so {e any} worker count is bit-identical
    to [--workers 1] and to the in-process path.

    Failure model: a worker death (crash, OOM-kill, SIGKILL) surfaces as
    EOF/EPIPE on its pipes; the coordinator reaps it, respawns a
    replacement into the same pool slot, and re-dispatches the in-flight
    job — bounded per job, after which the job fails like any other and
    the campaign's retry accounting takes over. Workers never write
    shared state (the observation cache is written only by the
    coordinator's serialized on-finish hook), so re-dispatch cannot
    duplicate or tear anything.

    Protocol: 4-byte big-endian length + one {!Pi_obs.Json} object per
    message. [hello] (config_args + expected digest — the worker rebuilds
    the config and refuses on mismatch, catching version skew) →
    [ready]; then [observe {bench, seed}] → [ok {row}] / [fail {error}];
    EOF on stdin is the shutdown signal. The worker re-points fd 1 at
    stderr at startup, so stray prints cannot corrupt frames. *)

val config_of_args :
  (string * Pi_obs.Json.t) list -> Interferometry.Experiment.config
(** Rebuild the experiment config from the caller-facing knobs recorded
    in manifests and bundles ([quick], [seed], [scale], [heap_random] —
    absent keys default). The {e single} decoder shared by
    [campaign --resume], the worker hello, and [bundle replay]: one copy,
    so "same config_args" always means "same digest". *)

type t

val create :
  ?exe:string ->
  ?subcommand:string ->
  workers:int ->
  config_args:(string * Pi_obs.Json.t) list ->
  unit ->
  t
(** Spawn and handshake [workers] processes ([exe] defaults to
    [Sys.executable_name], [subcommand] to ["campaign-worker"]).
    Ignores SIGPIPE for the calling process (worker death must surface
    as EPIPE, not kill the coordinator). Raises [Failure] if a worker
    fails its handshake. *)

val workers : t -> int

val pids : t -> int list
(** Current worker pids — test hooks for killing one mid-campaign. *)

exception Worker_died of string
(** A job's worker (and its respawned replacements) died too many times. *)

val observe : t -> bench:string -> seed:int -> Interferometry.Experiment.observation
(** Run one observation job on an idle worker (blocking until one is
    free). Raises [Failure] when the job itself failed on a healthy
    worker, {!Worker_died} when worker deaths exhausted the respawn
    budget. Safe to call from concurrent scheduler domains. *)

val observe_hook :
  t ->
  bench:string ->
  prepared:Interferometry.Experiment.prepared ->
  seed:int ->
  Interferometry.Experiment.observation
(** {!observe} in the shape of {!Campaign.run}'s [?observe] hook (the
    worker prepares its own benchmarks; [prepared] is unused). *)

val shutdown : t -> unit
(** Close every worker's request pipe (its EOF-is-shutdown signal) and
    reap. Call after the campaign completes; idempotent per worker. *)

val worker_main : unit -> 'a
(** The worker process body: serve frames on stdin/stdout until EOF.
    Never returns — exits 0 on clean shutdown, 1 on protocol errors. *)
