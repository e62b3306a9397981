(** Structured campaign telemetry: JSONL progress events.

    A campaign over a whole suite runs for minutes and spans many domains;
    a human-readable log is useless to the dashboards and CI jobs that
    consume it. Every scheduler transition is therefore emitted as one
    self-contained JSON object per line ({e JSON Lines}), timestamped and
    tagged with an ["event"] discriminator, so progress can be tailed,
    grepped, or replayed after the fact. See docs/CAMPAIGN.md for the
    event schema. *)

type json = Pi_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
(** Re-exported from {!Pi_obs.Json}, the one JSON codec, for callers that
    still use these names. New code uses [Pi_obs.Json] directly. *)

val to_string : json -> string
(** {!Pi_obs.Json.to_string}. *)

val parse : ?max_bytes:int -> ?max_depth:int -> string -> (json, string) result
(** {!Pi_obs.Json.parse}. *)

type sink
(** A destination for event lines. Writes are serialized by a mutex, so
    scheduler workers on different domains may emit concurrently. *)

val null : sink
(** Discards everything. *)

val to_file : string -> sink
(** Truncates/creates the file (and missing parent directories); lines are
    flushed as they are written so a concurrent [tail -f] sees live
    progress. *)

val emit : sink -> event:string -> (string * Pi_obs.Json.t) list -> unit
(** [emit sink ~event fields] writes
    [{"event":<event>,"ts":<unix-seconds>,<fields>...}] as one line. *)

val close : sink -> unit
(** Flush and release the sink ([to_file] sinks close their channel). *)
