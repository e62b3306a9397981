(** Leveled structured logging for the whole stack.

    Replaces ad-hoc [Printf.eprintf]: every record has a level, a
    printf-formatted message and optional key-value fields, and the
    effective level is a process knob — [PI_LOG] in the environment
    ([quiet], [error], [warn] (default), [info], [debug]) or
    {!set_level} programmatically. [PI_LOG=quiet] silences everything,
    which is how CI mutes knob warnings and run headers.

    Writes are serialized by a mutex so scheduler domains may log
    concurrently; suppressed records cost one atomic load and are still
    counted in the [pi_obs_log_messages_total] metric, so a quiet run
    remains auditable from its metrics scrape. *)

type level = Debug | Info | Warn | Error

val set_level : level option -> unit
(** [Some l] shows records at [l] and above; [None] is quiet (shows
    nothing). Overrides the [PI_LOG] environment initialisation. *)

val level_of_string : string -> level option option
(** Parses [PI_LOG] values: ["debug"], ["info"], ["warn"], ["error"]
    to [Some (Some l)]; ["quiet"]/["off"]/["none"] to [Some None];
    anything else to [None] (unrecognized). *)

val debug : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
val info : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
val warn : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
val error : ?fields:(string * string) list -> ('a, unit, string, unit) format4 -> 'a
(** [warn ~fields:[("bench", b)] "fmt" ...] renders as
    ["[pi:warn] message (bench=b)"] on stderr (unless replaced by
    {!set_writer}). *)

val set_writer : (level -> string -> unit) option -> unit
(** Replace the stderr writer (e.g. to capture records in tests);
    [None] restores the default. The writer receives fully rendered
    lines for records that passed the level filter. *)
