(** Compiled replay plans.

    Interferometry simulates one dynamic trace under hundreds of placements.
    {!compile} hoists every placement-invariant quantity — static block
    costs, pre-decoded terminators, memory-instruction spans with
    pre-resolved overlap factors — into tables over the static program
    once; {!run} then walks the trace's block sequence through them under a
    placement with no per-event allocation or variant matching, producing
    bit-identical {!Pipeline.counts} to the golden interpreter
    ([Pi_oracle.run_unoptimized], in the test-only [oracle/] library).

    Plans are immutable and hold no simulation state, so a single plan can
    be shared across domains (e.g. `pi_campaign` workers). *)

type plan = Pipeline.plan

val compile : Pipeline.config -> Pi_isa.Trace.t -> plan
(** One-time compilation of the placement-invariant work, O(static blocks
    + static memory instructions). *)

type data_side = Pipeline.data_side

val data_side : plan -> Pi_layout.Data_layout.t -> data_side
(** Simulate the data side (address resolution, L1D, data prefetcher) of
    the plan's trace under one data layout, once, for every replay that
    shares that layout; see {!Pipeline.data_side}. *)

val run :
  ?warmup_blocks:int -> ?data_side:data_side -> plan -> Pi_layout.Placement.t -> Pipeline.counts
(** Replay under one placement; bit-identical to the legacy interpreter.
    [data_side], built from the placement's data layout, skips simulating
    the data side again; without it the replay builds its own. The walk is
    {!run_many}'s, over one lane of the plan's own machine; see
    {!Pipeline.replay}. *)

val with_config : plan -> Pipeline.config -> plan
(** Rebind to a new machine config, reusing the compiled tables when only
    replay-time parameters (predictors, cache geometries, most penalties)
    changed — the predictor-sweep fast path. Recompiles otherwise. *)

val config : plan -> Pipeline.config
val trace : plan -> Pi_isa.Trace.t

val blocks : plan -> int
(** Dynamic blocks replayed per {!run}. *)

val mem_events : plan -> int
(** Dynamic memory events replayed per {!run}. *)

val words : plan -> int
(** Heap footprint of the plan's tables, in machine words; grows with the
    static program, not with the trace. *)

(** {1 Fused multi-lane sweeps}

    A sweep replays one plan under one placement per configuration, but
    only one axis differs between runs — the direction predictor
    (predictor axis) or the L1I/L2 geometries (cache axis). {!run_many}
    walks the plan once for a whole batch of lanes, sharing the
    lane-invariant simulation and producing, for every lane, counts
    bit-identical to a sequential {!run} of that configuration. See
    {!Pipeline.replay_many} for the per-axis sharing contract. *)

type batch = Pipeline.batch

val batch_of : (string * (unit -> Predictor.t)) array -> batch
(** Pack the kernel-bearing configurations into fused predictor lanes;
    the rest are reported by {!batch_fallback} for the per-config path. *)

val cache_batch_of :
  l1i:Cache.geometry -> l2:Cache.geometry -> (string * Cache.geometry * Cache.geometry) array -> batch
(** Pack cache-geometry configurations into fused cache lanes over the
    seed geometries of the machine the batch will replay; validates every
    geometry eagerly and rejects mixed line sizes and duplicate pairs.
    See {!Pipeline.cache_batch_of}. *)

val batch_axis : batch -> string
(** ["predictor"] or ["cache"]; matches the metrics' [axis] label. *)

val batch_lanes : batch -> int
val batch_names : batch -> string array

val batch_src : batch -> int array
(** Internal lane order -> caller config index; aligned with {!run_many}'s
    result array. *)

val batch_fallback : batch -> int array
val batch_table_bytes : batch -> int

val select : batch -> int array -> batch
(** The lanes (and fallbacks) of a batch whose caller indices are in the
    given array, as a batch of their own that keeps those caller indices
    in {!batch_src} and {!batch_fallback}; predictor lanes take their
    counter tables from the parent's image, so a steering round replays
    a selection of its study's batch without building a predictor. See
    {!Pipeline.batch_select}. *)

val shard : batch -> shards:int -> batch array
(** At most [shards] contiguous sub-batches, each a selection of a lane
    range; replaying them in any order (e.g. on
    {!Pi_campaign.Scheduler} domains) and merging by {!batch_src} equals
    replaying the whole batch. *)

val run_many :
  ?warmup_blocks:int -> ?data_side:data_side -> plan -> batch -> Pi_layout.Placement.t ->
  Pipeline.counts array
(** One pass over the plan, all lanes at once; bit-identical per lane to
    the sequential path. No axis varies the L1D, so every lane walks the
    one [data_side] (built from the placement when absent). *)
