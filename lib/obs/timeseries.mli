(** Fixed-capacity ring-buffer time series over the metrics registry —
    the daemon's flight recorder.

    A store holds one bounded series per metric identity seen in the
    scrapes folded into it ({!record}): counters and
    gauges map to one series each, histograms split into
    [<name>_count] and [<name>_sum] so rates and means stay derivable.
    Each series keeps two tiers:

    - {e raw}: the last [capacity] points, one per scrape;
    - {e coarse}: every [downsample] raw points fold into one point
      (their mean, stamped with the last contributing timestamp), also
      ring-bounded at [capacity] — so the coarse tier remembers
      [capacity × downsample] scrapes after the raw tier has wrapped.

    Memory is fixed at creation: no allocation per point, ever.

    Concurrency: single writer, lock-free readers. Exactly one thread
    may append (the {!sampler} loop, or whoever calls {!record});
    readers ({!snapshot}, {!to_json}) never take a lock on the data
    path and never block the writer. Downsampling is deterministic —
    folding the same points in the same order yields the same coarse
    tier, which the tests pin.

    The store feeds [GET /api/timeseries] on the daemon (see
    docs/SERVING.md) and exports three metrics about itself:
    [pi_obs_timeseries_points_total], [pi_obs_timeseries_scrapes_total]
    and the [pi_obs_timeseries_series] gauge. *)

type t

val create : ?capacity:int -> ?downsample:int -> unit -> t
(** [capacity] points per tier per series (default 512);
    [downsample] raw points per coarse point (default 8, must be ≥ 2). *)

val downsample : t -> int

type point = { ts : float; value : float }

val observe : t -> ?ts:float -> name:string -> ?labels:(string * string) list -> float -> unit
(** Append one point to one series. [ts] defaults to {!Clock.now}. *)

val record : t -> ?ts:float -> Metrics.sample list -> unit
(** Fold a scrape into the store: one point per series the samples
    flatten to, all sharing [ts] (default {!Clock.now}). *)

type series_snapshot = {
  name : string;
  labels : (string * string) list;
  points : point list;  (** raw tier, oldest first *)
  downsampled : point list;  (** coarse tier, oldest first *)
}

val snapshot : t -> series_snapshot list
(** Every series, sorted by [(name, labels)]. *)

val to_json : t -> string
(** [{"capacity":..,"downsample":..,"series":[{"name","labels","points":
    [[ts,v],...],"downsampled":[[ts,v],...]},...]}] — points as
    [[ts, value]] pairs, series sorted by [(name, labels)]. *)

val sampler : ?interval:float -> ?on_tick:(unit -> unit) -> t -> unit -> unit
(** [sampler t] starts a background thread that calls [on_tick] then
    {!record}s a registry scrape every [interval] seconds (default 1.0;
    first scrape immediately), and returns the stop function, which joins the thread
    (idempotent). [on_tick] exceptions are swallowed — a flaky gauge
    refresher must not kill the recorder. *)
