(** Shared clocks for the whole stack.

    Durations must come from a monotonic clock: the wall clock
    ([Unix.gettimeofday]) is stepped by NTP and can make an elapsed-time
    subtraction jump backwards mid-measurement. Every duration in the
    repository ({!Pi_campaign.Scheduler} job times, campaign wall time,
    the perf harness's phases, {!Span} traces) goes through {!now}; the
    wall clock survives only as the human-readable [ts] timestamp on
    telemetry events and manifests. *)

val now : unit -> float
(** Seconds on [CLOCK_MONOTONIC] (arbitrary epoch, never steps backwards).
    Only differences between two {!now} values are meaningful. *)

val wall : unit -> float
(** [Unix.gettimeofday] — unix-epoch seconds, for timestamps only. *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0]. *)
