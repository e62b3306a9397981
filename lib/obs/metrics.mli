(** Process-wide metrics registry: counters, gauges and histograms.

    Instruments live on hot paths shared by {!Pi_campaign.Scheduler}
    worker domains, so updates must never contend: counters and histograms
    are {e sharded} — each domain increments its own [Atomic.t] slot
    (selected by domain id) and the shards are only summed at scrape time.
    An increment is a single uncontended atomic fetch-and-add; there is no
    lock anywhere on the update path.

    Metrics are identified by [(name, labels)]. Registration is idempotent
    (the same identity returns the same instrument) and cheap enough for
    module initialisation, which is where instruments should be created —
    hot code holds the handle, it never looks anything up.

    Scrapes export in Prometheus text exposition format ({!to_prometheus})
    and as a neutral {!sample} list with a JSON twin ({!to_json},
    {!of_json}). Metric names
    follow Prometheus conventions: [pi_obs_] prefix, [_total] suffix on
    counters, [_seconds] on time histograms. See docs/OBSERVABILITY.md for
    the full catalogue. *)

type counter
type gauge
type histogram

(** {1 Registration} *)

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** [counter name] registers (or retrieves) the counter with this
    [(name, labels)] identity. Raises [Invalid_argument] if the identity
    is already registered as a different metric kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds (default 100 µs ..
    300 s, roughly logarithmic: job and phase latencies in seconds); an
    implicit [+Inf] bucket catches the overflow. Re-registering with different buckets raises. *)

(** {1 Updates (hot path)} *)

val inc : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit

val gauge_add : gauge -> float -> unit
(** Atomic read-modify-write add ([gauge_add g (-1.)] to decrement) — for
    level gauges like in-flight request counts that many threads move
    concurrently, where a racy [set (value + 1)] would lose updates. *)

val observe : histogram -> float -> unit
(** Bucket selection is a binary search over the bounds, then one atomic
    fetch-and-add on this domain's shard. *)

(** {1 Reading} *)

val counter_value : counter -> int
(** Sum over shards. Monotone, but not a consistent snapshot with respect
    to concurrent updates — fine for scrapes. *)

val gauge_value : gauge -> float

type hist_snapshot = {
  bounds : float array;  (** upper bounds, ascending *)
  bucket_counts : int array;  (** per bucket, length [bounds + 1] (overflow last) *)
  count : int;
  sum : float;
}

val snapshot : histogram -> hist_snapshot

val quantile : hist_snapshot -> float -> float
(** [quantile s q] for [q] in [0,1]: linear interpolation inside the
    bucket holding the [q]-th observation (Prometheus-style). Resolution
    is bucket width; observations past the last bound clamp to it.
    Returns [nan] on an empty histogram. *)

(** {1 Scraping} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

val scrape : unit -> sample list
(** Every registered metric, sorted by [(name, labels)] so output is
    deterministic. *)

val float_repr : float -> string
(** Shortest decimal string that round-trips through [float_of_string]
    (integers without an exponent, as {!Json.number} renders them) — the
    rendering used by the Prometheus exposition and the CLI's reports. *)

val to_prometheus : unit -> string
(** Prometheus text exposition format: [# HELP] / [# TYPE] per metric
    name, [name{label="v",...} value] per sample, histograms as
    cumulative [_bucket{le="..."}] plus [_sum] / [_count]. *)

val to_json : sample list -> Json.t
(** [{"metrics":[{"name":...,"labels":{...},"type":...,...},...]}] — the
    JSON twin of the Prometheus text format, served as [/metrics.json].
    Histograms carry non-cumulative per-bucket counts plus the [+Inf]
    overflow. *)

val of_json : Json.t -> (sample list, string) result
(** Inverse of {!to_json}, so a remote scrape prints like a local one. *)

val save : path:string -> unit
(** Write a scrape to [path], creating parent directories: {!to_json} when
    [path] ends in [.json], else {!to_prometheus}. *)
