(** CSV persistence for experiment datasets.

    A measurement campaign over hundreds of reorderings is worth keeping:
    export observations to CSV for external analysis (R, gnuplot, a
    spreadsheet) and re-import them to refit models without re-simulating.
    The format is one header line then one row per observation:

    [layout_seed,cpi,mpki,l1i_mpki,l1d_mpki,l2_mpki,cycles,instructions,
     mispredicts,l1i_misses,l1d_misses,l2_misses] *)

val header_line : string

val observation_to_row : Experiment.observation -> string
val observation_of_row : string -> (Experiment.observation, string) result

val save : string -> Experiment.dataset -> unit
(** Write the dataset's observations to a file; raises [Sys_error] on I/O
    failure. *)

val observations_of_lines : string list -> (Experiment.observation array, string) result
(** Parse the lines of such a CSV (without their newlines): the header,
    then one row per observation in file order; blank lines are skipped.
    [Error] names the first bad line. *)

val load_observations : string -> (Experiment.observation array, string) result
(** Parse a CSV produced by {!save}. The prepared context (program, trace)
    is not stored; reattach with {!reattach}. *)

val reattach : Experiment.prepared -> Experiment.observation array -> Experiment.dataset
(** Build a dataset from re-loaded observations and a freshly prepared
    benchmark (valid as long as benchmark, scale and seed match the
    original campaign — the formats are reproducible by construction). *)
