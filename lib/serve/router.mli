(** Tiny path router: method + pattern -> handler.

    Patterns are ['/']-separated; a segment written [":name"] binds the
    request's segment under [name]. Dispatch picks the first route whose
    method and pattern both match; a path that matches some pattern with
    the wrong method is [405], anything else [404]. The matched pattern
    string labels the per-endpoint metrics, keeping label cardinality
    bounded no matter what clients request. *)

type params = (string * string) list

type route

val get : string -> (params -> Http.request -> Http.response) -> route
val post : string -> (params -> Http.request -> Http.response) -> route

val json : int -> Pi_obs.Json.t -> Http.response
(** ["application/json"] response from a rendered value. *)

val text : int -> string -> Http.response
(** ["text/plain; version=0.0.4"]-free plain text response. *)

val error : int -> string -> Http.response
(** [{"error": msg}] with the given status. *)

val dispatch : route list -> Http.request -> Http.response * string
(** The response plus the matched pattern (["*unmatched*"] for 404s,
    the pattern for 405s) — the endpoint label for metrics. *)
