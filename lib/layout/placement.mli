(** A complete placement: one "executable" in interferometry terms.

    Bundles a code layout (procedure/object reordering + link) with a data
    layout (bump or randomized heap), both derived from one seed, so a
    placement is regenerated exactly from [(program, seed, heap_random)] —
    the paper's reproducible PRNG-keyed executables. *)

type t = {
  seed : int;
  code : Code_layout.t;
  data : Data_layout.t;
}

val make : ?heap_random:bool -> ?aslr:bool -> Pi_isa.Program.t -> seed:int -> t
(** Seed 0 with [heap_random = false] is the natural (unperturbed) layout;
    any other seed applies random procedure/object reordering, plus heap
    randomization when [heap_random] is set. [aslr] (default false, as on
    the paper's quiesced systems) additionally shifts the data/heap segment
    bases by a per-run random page count. *)

val natural : Pi_isa.Program.t -> t

val shared_data : ?heap_random:bool -> ?aslr:bool -> Pi_isa.Program.t -> Data_layout.t option
(** The data layout every seed shares, when the modes make it
    seed-invariant: with neither [heap_random] nor [aslr] set, [make]
    derives the same bump layout for every seed, so it can be built once.
    [None] when either mode is set. *)

val with_data : Data_layout.t -> seed:int -> t
(** [with_data d ~seed] pairs a layout from {!shared_data} with the code
    layout for [seed]; equal to [make d.program ~seed] under the same modes,
    without rebuilding the data layout. *)

val batch : ?heap_random:bool -> ?aslr:bool -> Pi_isa.Program.t -> seeds:int array -> t list
