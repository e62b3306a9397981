(** Append-only run-history ledger — the perf-regression sentinel's
    memory.

    Every campaign, sweep and perf run can append one {!record} to a
    [history.jsonl] file: a wall-clock timestamp, the run kind and
    label, the configuration digest, and a flat bag of numeric metrics
    (wall/cpu seconds, obs/sec, fused configs/s, cache hit ratio,
    per-bench R², …). Each record is one {!Json} object in a {!Framed_log}
    line — the serve WAL's frame, [md5_hex(payload) ^ " " ^ payload],
    fsynced — so a torn tail from a crash mid-append is detected, not
    misparsed. A non-finite metric is written as [0].

    Unlike the WAL, whose records form a causal sequence (everything
    after the first bad record is suspect), history records are
    independent observations: {!read} skips and counts bad lines and
    keeps the rest. {!append} self-heals a torn tail by starting on a
    fresh line.

    {!compare_metrics} diffs two metric bags against per-suffix
    threshold rules; [interferometry compare] exits non-zero when any
    gated metric regresses, and [make check] runs that sentinel. *)

type record = {
  ts : float;  (** unix wall-clock seconds ({!Clock.wall}) *)
  kind : string;  (** "campaign" | "sweep" | "perf" | ... *)
  label : string;
  config_digest : string;
  metrics : (string * float) list;  (** sorted by name, unique *)
}

val make :
  ?ts:float -> kind:string -> label:string -> config_digest:string ->
  (string * float) list -> record
(** Sorts and dedups metrics (first binding wins); [ts] defaults to
    {!Clock.wall}. *)

(** {1 Ledger I/O} *)

val append : path:string -> record -> unit
(** Append one framed record and fsync. Creates parent directories; if
    the file ends mid-line (torn tail), starts on a fresh line first. *)

type replay = {
  records : record list;  (** valid records, file order *)
  invalid_lines : int;  (** corrupt/garbled lines skipped *)
  torn_tail : bool;  (** file ended without a newline *)
}

val read : path:string -> replay
(** Missing file reads as empty. Never raises on corrupt content. *)

(** {1 Regression comparison} *)

type direction = Higher_better | Lower_better

type rule = { suffix : string; direction : direction; tol_percent : float }
(** Applies to every metric whose name ends in [suffix]; first matching
    rule wins. *)

val default_rules : rule list
(** [_per_sec] / [speedup]: higher better, 50% tolerance (timing noise
    on quick runs is real); [r_squared]: higher better, 5%;
    [failed_jobs]: lower better, 0% — any increase regresses;
    [_abs_err] / [_max_err] (surrogate prediction errors): lower
    better, 100% — they live near zero where relative jitter is large,
    so only a doubling regresses. *)

type delta = {
  metric : string;
  before : float;
  after : float;
  delta_percent : float;  (** (after - before) / |before| × 100 *)
  rule : rule option;  (** the gate applied, if any *)
  regression : bool;
}

val compare_metrics :
  ?rules:rule list ->
  before:(string * float) list ->
  after:(string * float) list ->
  unit ->
  delta list
(** One delta per metric present on both sides (before-side order).
    Higher-better gates require both sides non-zero: a zero throughput
    means "didn't run" (e.g. a fully-cached campaign), not a
    regression. *)

val regressions : delta list -> delta list
