(** The WAL-journaled job ledger.

    Every mutating request the daemon accepts is appended here {e before}
    it is acknowledged or dispatched — write-ahead logging. A record is
    one {!Pi_obs.Framed_log} line:

    {v <md5-hex of payload> <payload JSON>\n v}

    The digest frames and checksums the record: replay verifies it before
    trusting the payload, so a torn tail — the half-written line a SIGKILL
    or power loss leaves behind — is detected and discarded rather than
    misread. {!append} flushes and [fsync]s before returning, so once the
    caller has acknowledged a request, the request survives any crash.

    Replay ({!open_}) folds the valid prefix of the file and returns its
    records oldest-first; the server reconstructs the job table from them
    and re-dispatches whatever was accepted but not completed. Replay is
    idempotent: reading the same file twice yields the same records, and
    {!open_} truncates a torn tail in place so the next append starts on a
    clean record boundary. *)

type t

type replay = {
  records : Pi_obs.Json.t list;  (** valid records, oldest first *)
  valid_bytes : int;  (** length of the verified prefix *)
  torn_bytes : int;
      (** bytes after the verified prefix that failed framing or digest
          checks — a crashed writer's tail, dropped on replay *)
}

val read : path:string -> replay
(** Replay without opening for append (a missing file is an empty
    ledger). Never raises on corrupt content: the first bad record ends
    the valid prefix and the remainder counts as [torn_bytes]. *)

val open_ : path:string -> t * replay
(** {!read}, then open the ledger for appending. A torn tail is truncated
    away first, so the file self-heals on boot. Creates missing parent
    directories. *)

val append : t -> Pi_obs.Json.t -> unit
(** Serialize, frame, write, flush and [fsync] one record. Returns only
    once the record is durable — the fsync-before-ack contract. Safe from
    concurrent threads (appends are serialized by a mutex). Raises
    [Invalid_argument] on a closed ledger. *)

val close : t -> unit
