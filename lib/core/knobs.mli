(** Environment-variable knobs for the harnesses ([PI_LAYOUTS], [PI_SCALE],
    ...). A malformed value stops the harness before it runs anything,
    rather than silently running the default. *)

val parse_int :
  name:string -> min:int -> default:int -> string option -> (int, string) result
(** [parse_int ~name ~min ~default raw] parses a raw environment value:
    [Ok default] when [raw] is [None], [Ok n] for an integer [n >= min]
    (surrounding whitespace allowed), else [Error] with a message naming
    [name]. Pure — this is the tested core of {!env_int}. *)

val env_int : ?min:int -> string -> int -> int
(** [env_int name default] reads [name] from the environment via
    {!parse_int} ([min] defaults to 1). A malformed value prints the
    message to stderr and exits 2. *)

val describe : (string * int) list -> string
(** One-line ["NAME=value NAME=value ..."] rendering of effective knob
    values, for run headers. *)
