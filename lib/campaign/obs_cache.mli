(** On-disk observation cache.

    Observations are reproducible from [(benchmark, config, seed)], so a
    completed measurement never needs to be recomputed: re-running a
    campaign, or growing it 100 -> 200 -> 300 layouts the way the paper's
    adaptive sampling does, should only pay for the seeds not yet on disk.

    One cache entry is one CSV file per [(benchmark, config)] pair, named
    [<bench>.<digest>.csv] where the digest — the {e full} hex digest, so
    distinct configs can never share a file — covers every field of the
    experiment config that can change a measurement (scale, trace budget,
    warmup, counter protocol, noise parameters, allocator/ASLR modes,
    the full machine geometry, master seed). Entries written by older
    versions under a 16-char truncated digest are still read (and retired
    the next time the entry is stored), so existing caches migrate
    transparently. Rows are
    {!Interferometry.Dataset_io} observation rows keyed by [layout_seed] —
    the same format as [interferometry export], so a cache entry doubles as
    an exported dataset. Any config change rotates the digest and the stale
    entries are simply never read again.

    An entry is an append log: {!store} appends a row per observation and
    fsyncs, {!load} keeps the last row per seed and drops a torn final
    line (a crashed append), and {!compact} rewrites an entry whose rows
    arrived out of seed order into the canonical seed-sorted bytes. *)

type t

val create : dir:string -> t
(** Use [dir] as the cache root, creating it (and missing parents) if
    needed. Orphaned temp files left by crashed writers ([*.tmp] older
    than ten minutes — young ones may belong to a live campaign sharing
    the directory) are removed. *)

type stats = { entries : int  (** CSV entries on disk *); bytes : int }

val stats : t -> stats
(** One [readdir] + one [stat] per entry ([*.tmp] scratch excluded);
    an unreadable directory reads as empty. *)

val update_gauges : t -> stats
(** {!stats}, also published as the [pi_obs_obs_cache_entries] /
    [pi_obs_obs_cache_bytes] gauges — the [pi_serve] daemon calls this on
    every [/metrics] scrape. *)

val config_digest : Interferometry.Experiment.config -> string
(** Stable hex digest of the measurement-relevant config fields. Machines
    are distinguished by their [name] plus full numeric geometry (predictor
    closures cannot be hashed; all machines in {!Pi_uarch.Machine} carry
    distinct names). *)

val sanitize_bench_name : string -> string
(** Filename-safe form of a benchmark name: characters outside
    [[A-Za-z0-9_.-]] are percent-escaped (['%'] included, so the mapping
    is injective). Registry names pass through unchanged; a hostile name
    like ["../x"] can no longer address files outside the cache root. *)

val entry_path : t -> bench:string -> config:Interferometry.Experiment.config -> string
(** The CSV file that does/would hold this [(bench, config)] entry — the
    full-digest name; the bench component is {!sanitize_bench_name}d. *)

val legacy_entry_path :
  t -> bench:string -> config:Interferometry.Experiment.config -> string
(** The pre-fix truncated-digest (16 hex chars) name for the same entry.
    Read as a fallback by {!load} when the full-digest file is absent; its
    rows seed the full-name entry when {!store} creates it, after which it
    is removed. *)

val load :
  t ->
  bench:string ->
  config:Interferometry.Experiment.config ->
  Interferometry.Experiment.observation array
(** All cached observations for the pair, sorted by [layout_seed], the
    last row for a seed winning; [[||]] when there is no (or a corrupt)
    entry. The entry is read as a log: a final line without its newline
    is an append a crash cut short, and is dropped without a warning. The
    file is opened directly — ENOENT at open time is a miss, so the probe
    cannot race the orphan reaper or a concurrent rename. A corrupt entry
    (a bad header, or a bad row before the last newline) also reads as a
    miss, but loudly: a [pi:warn] log line and a bump of the
    [pi_obs_obs_cache_corrupt_total] counter record that its seeds are
    about to be recomputed, and the file is renamed aside to
    [<entry>.corrupt] (neither [*.csv] nor [*.tmp]), so the next {!store}
    starts a fresh entry instead of appending onto one that never parses. *)

val store :
  t ->
  bench:string ->
  config:Interferometry.Experiment.config ->
  Interferometry.Experiment.observation array ->
  unit
(** Append the observations' rows to the entry with one [write] and
    [fsync] it before returning; on a later {!load} they win over earlier
    rows for the same seed. A torn final line left by a crashed append is
    trimmed first. A missing entry is created atomically: the header plus
    any rows under the {!legacy_entry_path} go to a unique fsynced temp
    file (pid + counter), which [link] installs only if the entry is still
    absent — a creator that loses the race appends to the winner's entry —
    and the legacy file is then removed. Writers in this process are
    serialized by a mutex, writers in other processes by a [lockf] lock on
    the entry. *)

val compact :
  t -> bench:string -> config:Interferometry.Experiment.config -> unit
(** Rewrite the entry into its canonical bytes — the header, then one row
    per seed in ascending seed order, the bytes
    {!Interferometry.Dataset_io.save} writes for those observations — when
    it is not already canonical (rows out of order, a seed stored twice, a
    torn tail). The new file goes through an
    fsynced temp and an atomic rename. Campaigns call this on every prepared
    benchmark's entry when the observe phase ends, and the daemon after a
    job's missing seeds; appends in seed order (a [--jobs 1] campaign) leave
    nothing to do. A missing or corrupt entry is left alone (the next
    {!load} reports corruption). The rename happens under the entry's
    lock, and a {!store} waiting for that lock reopens the new file, so a
    cooperating writer's append is not lost; like every rename-based
    rewrite, it can still lose an append made by a process that ignores
    the lock (or where [lockf] is not enforced, as on some network file
    systems). *)
