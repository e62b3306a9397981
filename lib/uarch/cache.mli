(** Set-associative cache with LRU replacement.

    Used for the L1 instruction cache, L1 data cache and the unified L2 of
    the machine model. Set index = address bits just above the line offset —
    the hash that makes cache conflicts sensitive to code and data
    placement, which is what heap randomization and code reordering
    perturb. *)

type geometry = { size_bytes : int; assoc : int; line_bytes : int }

val geometry_sets : geometry -> int

type t

val create : geometry -> t
val geometry : t -> geometry

val access : t -> int -> bool
(** [access t addr]: true on hit; allocates and updates LRU either way. *)

val probe : t -> int -> bool
(** Hit test without any state change. *)

val touch : t -> int -> unit
(** [access] ignoring the result (prefetch/pollution modelling). *)

val fill : t -> int -> unit
(** Install a line without touching the access/miss counters — for
    prefetch fills, which are not demand misses. *)

val access_range : t -> addr:int -> bytes:int -> int
(** Access every line overlapping [\[addr, addr+bytes)]; returns the number
    of misses (used for instruction fetch of a basic block). *)

val reset : t -> unit

val accesses : t -> int
val misses : t -> int
(** Cumulative counters since creation/[reset] (counting [access] and
    [access_range], not [probe]/[touch]... [touch] counts too since it is an
    access). *)
