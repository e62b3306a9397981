(** File helpers shared by every writer in the stack. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; an existing one is fine. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes and retrying
    [EINTR]. Other [Unix_error]s propagate. *)

val write_file : path:string -> string -> unit
(** Create or truncate [path] (and its missing parent directories) and
    write [contents]. Not atomic: writers whose readers must never see a
    partial file write a temporary and rename it. *)
