(** The one JSON codec: value type, compact renderer, hardened parser and
    field accessors.

    Every JSON artifact the repository persists or sends — result
    documents, run manifests, bundle manifests, coordinator frames, WAL
    and history records, telemetry events, metric scrapes, traces and
    BENCH files — is a {!t} rendered by {!to_string} and read back by
    {!parse}. It lives in [pi_obs], the lowest library every JSON writer
    already links. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering, fields in list order. Floats use the
    first of [%.12g], [%.15g], [%.16g] and [%.17g] that round-trips;
    non-finite floats become [null] (JSON has no NaN/infinity). *)

val number : float -> t
(** [Int] for an integral value below 1e15 in magnitude (so it renders
    without an exponent), else [Float]. *)

val parse : ?max_bytes:int -> ?max_depth:int -> string -> (t, string) result
(** Parse one JSON value (the dialect {!to_string} emits, plus
    insignificant whitespace). Numbers without a fraction or exponent
    parse as [Int], everything else as [Float]; trailing non-whitespace
    is an error.

    The parser is safe on hostile input (it guards the [pi_serve] network
    boundary): any malformed, oversized ([max_bytes], default 16 MiB),
    too-deeply-nested ([max_depth], default 256) or duplicate-keyed input
    returns [Error] — it never raises, overflows the stack, or goes
    super-linear. *)

(** {1 Field access} *)

exception Type_error of string
(** Raised by the [get_*] accessors: the field is missing or has the
    wrong type. The message names the field. *)

val member : string -> t -> t
(** The field's value; [Null] when it is absent or the value is not an
    object. *)

val get_int : string -> t -> int

val get_float : string -> t -> float
(** Accepts [Int] too: an integral float renders without a decimal point
    and parses back as [Int]. *)

val get_string : string -> t -> string
val get_bool : string -> t -> bool
val get_list : string -> t -> t list
val get_obj : string -> t -> (string * t) list

val opt : (string -> t -> 'a) -> string -> t -> 'a option
(** [opt get_x name j] is [None] when the field is absent or [null]. *)
