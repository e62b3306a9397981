(** The interferometry experiment: many semantically equivalent placements
    of one benchmark, each measured through the noisy counter protocol.

    The pipeline mirrors the paper's methodology end to end: compile the
    benchmark once ({!prepare} interprets it once into a layout-independent
    trace, bounded by the two-pass run-length instrumentation), then for
    each PRNG seed link a reordered executable, run it on the modelled
    machine, and collect counter measurements (3 groups x 5 runs,
    median-by-cycles). Observations are reproducible from
    [(benchmark, config, seed)]. *)

type config = {
  scale : int;  (** workload trip-count multiplier *)
  budget_blocks : int;  (** run-length budget (the "two minutes") *)
  warmup_fraction : float;  (** leading fraction of the trace not measured *)
  runs_per_group : int;  (** counter-protocol repetitions (paper: 5) *)
  noise : Pi_uarch.Counters.noise;
  heap_random : bool;  (** DieHard-style heap randomization (Fig 3 mode) *)
  aslr : bool;  (** address-space randomization; off on the paper's systems *)
  machine : Pi_uarch.Pipeline.config;
  master_seed : int;
}

val default_config : config
(** Scale 8 (~200k-block traces), 25% warmup, 5 runs/group, default noise,
    bump heap, the Xeon-like machine, master seed 1. *)

val quick_config : config
(** Small traces for tests: scale 2, reduced budget. *)

val make_config :
  ?quick:bool -> ?seed:int -> ?scale:int -> ?heap_random:bool -> unit -> config
(** The run-config policy every front end shares: start from
    {!quick_config} when [quick] (default [false]), else {!default_config};
    then set [master_seed], [scale] and [heap_random] (each defaults to
    the base config's value). *)

type prepared = {
  bench : Pi_workloads.Bench.t;
  config : config;
  program : Pi_isa.Program.t;
  trace : Pi_isa.Trace.t;
  warmup_blocks : int;
  plan : Pi_uarch.Replay.plan;
      (** compiled replay plan for [machine]/[trace]; placement-invariant *)
  data : Pi_layout.Data_layout.t option;
      (** the data layout shared by every seed, from
          {!Pi_layout.Placement.shared_data}: [Some] under a bump heap
          without ASLR (the default config), where only the code layout
          changes from seed to seed; [None] when [heap_random] or [aslr]
          is set, and each seed derives its own data layout *)
  data_side : Pi_uarch.Replay.data_side option;
      (** [Some] exactly when [data] is: that layout's resolved data
          addresses, L1D hits and misses and prefetch decisions, simulated
          once ({!Pi_uarch.Replay.data_side}). They depend only on the data
          layout and the trace, never on code addresses, so every seed's
          replay walks this one record instead of re-simulating L1D. When
          [None], each seed's replay builds its own from its own data
          layout. *)
}

val prepare : ?config:config -> Pi_workloads.Bench.t -> prepared
(** Build the program, its bounded trace, the compiled replay plan and (when
    seed-invariant) the data layout and its data side once; reused by every
    layout. The plan and the data side are built inside the [compile]
    span. *)

type observation = {
  layout_seed : int;
  measurement : Pi_uarch.Counters.measurement;
}

type dataset = {
  prepared : prepared;
  observations : observation array;
}

val observe_seed : prepared -> int -> observation
(** Link the placement for one seed (only its code layout when
    [prepared.data] is shared), run the machine, apply the measurement
    protocol. *)

val observe : prepared -> n_layouts:int -> dataset
(** Observations for seeds [1 .. n_layouts]. *)

val extend : dataset -> n_layouts:int -> dataset
(** Grow a dataset to [n_layouts] total, reusing existing observations —
    the paper's adaptive 100 -> 200 -> 300 sampling. *)

val run : ?config:config -> Pi_workloads.Bench.t -> n_layouts:int -> dataset
(** [prepare] + [observe]. *)

(** {2 Column accessors} *)

val cpis : dataset -> float array
val mpkis : dataset -> float array
val l1i_mpkis : dataset -> float array
val l1d_mpkis : dataset -> float array
val l2_mpkis : dataset -> float array

val placement : prepared -> seed:int -> Pi_layout.Placement.t
(** The placement {!observe_seed} replays for [seed]: equal to
    [Pi_layout.Placement.make ~heap_random ~aslr program ~seed] under the
    config's modes, sharing [prepared.data] when it is [Some]. *)

val exact_counts : prepared -> seed:int -> Pi_uarch.Pipeline.counts
(** Noise-free machine counts for one placement (simulator view). *)
