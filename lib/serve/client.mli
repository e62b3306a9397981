(** Thin client for the {!Server} daemon — powers
    [interferometry submit|status|result].

    The daemon is discovered through the [serve.json] port file in its
    state directory (written on boot), so scripts never have to thread a
    port number around. All calls are plain {!Http.request} round trips;
    [Error]s are messages ready to print. *)

type conn = { host : string; port : int }

val resolve : ?port:int -> state_dir:string -> unit -> (conn, string) result
(** [port] overrides discovery; otherwise read [serve.json] from
    [state_dir]. *)

val wait_ready : ?attempts:int -> conn -> (unit, string) result
(** Poll [GET /readyz] until 200 (0.1s between tries, default 50 attempts)
    — for scripts that just started the daemon. *)

val metrics : conn -> (Pi_obs.Json.t, string) result
(** [GET /metrics.json] — a live daemon's scrape, the feed for
    [interferometry stats --url]. *)

val trace : conn -> id:string -> (string, string) result
(** [GET /api/jobs/:id/trace] — the job's Chrome trace-event JSON,
    byte-exact (load it straight into Perfetto). *)

val submit :
  ?client:string ->
  conn ->
  body:string ->
  (Pi_obs.Json.t, string) result
(** [POST /api/jobs]. [client] sets the [X-Client] fairness key. Returns
    the acknowledgement document ([id], [status], [duplicate]); HTTP
    4xx/5xx become [Error]s carrying the server's message. *)

val status : conn -> id:string -> (Pi_obs.Json.t, string) result
(** [GET /api/jobs/:id]. *)

val result : conn -> id:string -> (string, string) result
(** [GET /api/jobs/:id/result] — the raw result document, exactly the
    bytes the daemon persisted (so shell scripts can [cmp] them). *)

val wait_job :
  ?poll_interval:float ->
  ?timeout:float ->
  conn ->
  id:string ->
  (string, string) result
(** Poll {!status} until the job is done, then fetch {!result}; a job that
    ends [failed] (or a [timeout], default 300s) is an [Error]. *)
