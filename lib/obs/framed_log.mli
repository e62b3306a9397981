(** The digest frame shared by the append-only logs: the serve WAL
    ([Pi_serve.Ledger]) and the run-history ledger ({!History}).

    A record is one line, [<md5-hex of payload> <payload>\n]. The digest
    makes a torn or damaged line detectable instead of misread. What a
    reader does with a bad line is its own policy: the WAL stops at the
    first one, the history ledger skips it. *)

val frame : string -> string
(** [frame payload] is the record line, newline included. [payload] must
    not contain a newline. *)

val unframe : string -> string option
(** The payload of one record line (without its newline), or [None] when
    the line is too short, lacks the separator or fails its digest. *)

val append : Unix.file_descr -> string -> unit
(** Write all of [bytes] at the descriptor's offset, then [fsync]: once it
    returns, the bytes survive a crash. *)
