(** Growable int array used by the interpreter to accumulate traces. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
val truncate : t -> int -> unit
(** [truncate t len] drops every element from index [len] on. *)

val to_array : t -> int array
