(** Timing model: executes a trace under a placement and produces cycle and
    event counts.

    This stands in for both the paper's physical Xeon E5440 (when wrapped in
    the noisy {!Counters} measurement protocol) and its MASE cycle simulator
    (when read exactly). The model is an issue-cost-plus-penalties machine:

    - every instruction pays a throughput cost by kind (plain/FP/multiply/
      divide/memory);
    - instruction fetch walks the L1I cache lines the block's *linked
      addresses* occupy; misses probe the unified L2;
    - memory instructions resolve their symbolic trace operands through the
      data layout, access L1D then L2, and pay latency scaled by a
      memory-level-parallelism factor derived from the access pattern
      (pointer chases serialize, streams overlap);
    - conditional branches consult the configured direction predictor at the
      branch's linked address; indirect jumps/calls consult the BTB; wrong
      predictions pay the front-end refill penalty;
    - optionally, mispredictions have wrong-path side effects: the
      not-taken-path lines are fetched into L1I and the next data line is
      pulled into L2 (sometimes prefetching useful data, sometimes
      polluting) — the mechanism behind the mild non-linearity the paper
      observes on 252.eon and 178.galgel.

    All structures hash physical addresses, so changing the code or data
    placement changes conflict patterns exactly as on hardware. *)

type penalties = {
  mispredict : float;
  btb_miss : float;
  l1i_miss : float;  (** L1I miss, L2 hit *)
  l1d_miss : float;  (** L1D miss, L2 hit *)
  l2_miss : float;  (** full memory latency *)
  store_miss_factor : float;  (** stores hide most of their miss latency *)
}

type instr_costs = {
  plain : float;
  fp : float;
  mul : float;
  div : float;
  mem : float;
  term : float;  (** control-transfer instruction *)
}

type overlap = {
  chase : float;  (** serialized pointer chase: full penalty *)
  random : float;
  sequential : float;  (** streaming: hardware prefetcher hides most *)
  fixed : float;
}

type config = {
  name : string;
  make_predictor : unit -> Predictor.t;
  make_indirect : unit -> Indirect.t;  (** indirect-target predictor (BTB or ITTAGE) *)
  data_prefetcher : bool;  (** stride prefetcher (default machine: off) *)
  trace_cache : Trace_cache.geometry option;  (** placement-immune fetch path *)
  l1i : Cache.geometry;
  l1d : Cache.geometry;
  l2 : Cache.geometry;
  costs : instr_costs;
  penalties : penalties;
  overlap : overlap;
  wrong_path : bool;
  perfect_btb : bool;  (** oracle indirect-target prediction (with the
      perfect direction predictor, makes total MPKI exactly 0) *)
}

type counts = {
  cycles : float;
  instructions : int;
  cond_branches : int;
  cond_mispredicts : int;
  indirect_branches : int;
  indirect_mispredicts : int;
  btb_misses : int;
  l1i_accesses : int;
  l1i_misses : int;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
}

val run : ?warmup_blocks:int -> config -> Pi_isa.Trace.t -> Pi_layout.Placement.t -> counts
(** [warmup_blocks] (default 0) executes that many leading blocks with all
    structures live but discards their events and cycles, so short traces
    report the steady-state rates a minutes-long run on hardware would.

    Equivalent to [replay ?warmup_blocks (compile config trace) placement];
    callers simulating the same trace more than once should compile a plan
    and replay it. *)

val run_unoptimized :
  ?warmup_blocks:int -> config -> Pi_isa.Trace.t -> Pi_layout.Placement.t -> counts
(** The legacy interpreter: recomputes every trace-derived table per call and
    pattern-matches terminators per dynamic block. Kept as the reference
    implementation for the golden-equivalence tests and the perf baseline;
    produces bit-identical {!counts} to {!replay}. *)

type plan
(** A compiled, placement-invariant replay plan: tables over the trace's
    static program, one entry per static block (instruction count, issue
    cost, terminator class, branch or indirect-branch site, taken target,
    wrong-path alternate, memory-instruction span) and one per static
    memory instruction (memory-op id, penalty factor). {!replay} walks the
    trace's own block sequence through them: a step's outcome, indirect
    target and memory events follow from its block and the next one, so
    nothing in the plan grows with the trace. Immutable and free of
    simulation state (its one mutable slot caches the last {!data_side}
    built for it), so one plan may be replayed from many domains
    concurrently. *)

val compile : config -> Pi_isa.Trace.t -> plan
(** One-time compilation, O(static blocks + static memory instructions);
    see {!plan}. *)

type data_side
(** The data side of one replay, simulated ahead of it: every memory
    event's resolved address, the whole L1D and the data prefetcher. L1D
    and the prefetcher see only data addresses and memory-op ids, so for
    a given data layout their behaviour is fixed by the trace; what
    remains recorded is the ordered stream of L2 operations they issue
    (each L1D miss and each prefetch fill) and the line a wrong-path run
    touches in L2. Immutable, so one data side may be shared by every
    replay and domain that needs it. *)

val data_side : plan -> Pi_layout.Data_layout.t -> data_side
(** Simulate the data side of [plan]'s trace under one data layout. It is
    valid for any plan over the same trace whose machine has the same L1D
    geometry and prefetcher flag, whatever its code layout, predictors or
    L1I/L2 geometries; {!replay} and {!replay_many} raise
    [Invalid_argument] on any other plan. Under a bump heap without ASLR
    the data layout does not depend on the layout seed, so one data side
    serves every seed of a benchmark. The plan remembers the last data
    side built for it: a second call with the same (physically equal) data
    layout returns it without simulating again. *)

val replay :
  ?warmup_blocks:int -> ?data_side:data_side -> plan -> Pi_layout.Placement.t -> counts
(** Simulate the compiled trace under one placement. Bit-identical to
    {!run_unoptimized} with the plan's config and trace: the same floats are
    accumulated in the same order. Without [data_side] the data side is
    built from [placement]'s data layout first; with it, the placement's
    data layout is not read, and the caller vouches that the data side was
    built from the same layout.

    This is the one-lane instance of the walk behind {!replay_many}: one
    predictor group, one L1I group and one L2 group, the machine's own.
    Only the metering differs: a replay bumps the [pi_obs_replay_*]
    counters, never the fused-pass ones, and emits no [replay.fused]
    span. The domain's scratch keeps the last machine predictor's packed
    initial tables and the last indirect predictor, so a replay of the
    same machine (the same [make_predictor] and [make_indirect] closures)
    as the last one on its domain builds neither. *)

val plan_with_config : plan -> config -> plan
(** Rebind a plan to a new machine config. Reuses the compiled tables when
    the plan-baked parameters (instruction costs, overlap factors,
    store-miss factor) are unchanged — e.g. across a predictor sweep — and
    recompiles from the plan's trace otherwise. *)

val plan_config : plan -> config
val plan_trace : plan -> Pi_isa.Trace.t

val plan_blocks : plan -> int
(** Dynamic blocks the plan replays. *)

val plan_mem_events : plan -> int
(** Dynamic memory events the plan replays. *)

val plan_words : plan -> int
(** Heap footprint of the plan's own tables, in machine words; the trace
    it references is not counted. Independent of the trace's length. *)

type batch
(** A pack of lanes for one fused sweep pass. The batch is axis-generic:
    what the lanes vary is fixed at construction and everything else
    (trace walk, decoded terminators, base costs, mem-op spans, the data
    side, indirect predictor and trace cache) is shared by {!replay_many}.

    One walk replays every batch, {!replay} included. A lane is a triple
    of groups, one per layer, and each layer keeps one state per group:

    - predictor groups: {!batch_of} gives every lane its own, packing every
      lane's saturating-counter tables in one flat byte image addressed
      through per-lane offsets and masks (lanes sorted by kernel kind,
      one shared global-history register serving all history-based
      lanes); {!cache_batch_of} lanes form one group, the replaying
      machine's own predictor. A group owns its mispredicts and its
      wrong-path run counter;
    - L1I groups and L2 groups: lanes with equal geometry of that cache
      share one tag image (a predictor batch is one group of each; a cache
      batch is ordered by L2 geometry, and its lanes of one L1I geometry
      are one L1I group wherever they sit). A set stays shared until a
      reference only some of the group's lanes make splits it into
      per-lane copies: a wrong-path touch only some lanes make (one
      predictor lane mispredicted; lanes disagreed on the L2 probe), a
      predictor lane's speculative load, a fetch miss taken by some lanes
      and not others. This is exact: an unsplit set holds the same state
      in every lane of the group.

    No lane varies the L1D or the prefetcher, so all share one
    {!data_side}.

    Lane metadata is immutable and per-pass simulation state is rebuilt
    inside {!replay_many}. The bulk state of every pass (counter-table
    image, L1I and L2 group images, split flags and the per-lane copies of
    split sets, the indirect predictor) lives in one scratch per domain
    that every pass borrows and returns: a pass may use any scratch at
    least as large as it needs, so a small batch replays inside a large
    batch's idle scratch, and taking it is atomic, so systhreads sharing a
    domain never share one (a pass that finds it taken allocates its
    own). Any batch, the same batch value included, may therefore be
    replayed concurrently. *)

val batch_of : (string * (unit -> Predictor.t)) array -> batch
(** Pack every configuration exposing a {!Predictor.kernel} into fused
    lanes; the rest (perfect, static, L-TAGE — anything closure-only) are
    recorded as fallback indices for the caller's per-config path. *)

val cache_batch_of :
  l1i:Cache.geometry -> l2:Cache.geometry -> (string * Cache.geometry * Cache.geometry) array -> batch
(** Pack cache-geometry configurations (name, L1I geometry, L2 geometry)
    into fused lanes over the seed geometries [~l1i]/[~l2] of the machine
    the batch will replay. Every geometry is validated eagerly
    ({!Cache.geometry_sets}); all lanes must share the seed's L1I and L2
    line sizes (line size is shared across a fused pass), and duplicate
    (L1I, L2) geometry pairs are rejected with [Invalid_argument] naming
    both lanes. Cache batches have no fallback lanes. *)

val batch_lanes : batch -> int
(** Fused lane count. *)

val batch_names : batch -> string array
(** Lane names, in the batch's internal order (sorted by kernel kind, or
    by L2 geometry). *)

val batch_src : batch -> int array
(** Maps internal lane order back to indices into the configuration array
    given to {!batch_of}; aligned with {!replay_many}'s result. *)

val batch_fallback : batch -> int array
(** Indices (into the {!batch_of} argument) of configurations without a
    kernel, which must be simulated by the sequential per-config path. *)

val batch_table_bytes : batch -> int
(** Total packed lane-state bytes across all lanes (counter tables for
    predictor lanes; one L1I image per L1I geometry plus one L2 image per
    L2 geometry for cache lanes), for reporting. *)

val batch_axis : batch -> string
(** The axis the lanes vary: ["predictor"] or ["cache"]. Matches the
    [axis] label on the fused-pass metrics. *)

val batch_select : batch -> int array -> batch
(** [batch_select b idxs]: the lanes of [b] whose caller indices (see
    {!batch_src}) are in [idxs], in [b]'s internal order, as a batch of
    their own; its {!batch_src} and {!batch_fallback} keep [b]'s caller
    indices, and its fallback set is [b]'s fallback indices in [idxs].
    Predictor lanes take their counter tables from [b]'s packed image, so
    no predictor is built. Selecting every lane and fallback returns [b]
    itself. *)

val batch_shard : batch -> shards:int -> batch array
(** Split into at most [shards] contiguous sub-batches of near-equal lane
    count (at least one lane each), suitable for domain-parallel execution:
    replaying the sub-batches in any order and concatenating by
    {!batch_src} is deterministic and equal to replaying the whole batch.
    A 1-shard split returns the batch itself; every split of 2+ is a
    selection of contiguous lane ranges, as {!batch_select} makes, with
    no fallback lanes. *)

val replay_many :
  ?warmup_blocks:int -> ?data_side:data_side -> plan -> batch -> Pi_layout.Placement.t ->
  counts array
(** Walk the compiled plan {e once} for every lane in the batch, sharing
    all lane-invariant work: per lane only cycles, and per group the state
    of its layer (see {!batch}). Predictor lanes keep per-lane
    conditional mispredicts and wrong-path state (wrong-path effects
    depend on each lane's own mispredictions) and share their L1I and L2
    images until lanes diverge; cache lanes share one direction and
    indirect predictor and trace cache (their inputs never depend on cache
    geometry) and one L1I and one L2 image per geometry. Every lane applies
    the L2 operations of one [data_side] (built from [placement]'s data
    layout when absent). Result is indexed in the batch's internal lane order (see
    {!batch_src}); each element is bit-identical to {!replay} of the same
    configuration — same floats accumulated in the same order, same state
    transitions in the same sequence. For a cache batch the plan's
    machine must carry the seed geometries the batch was built for. *)

val cpi : counts -> float

val mispredicts : counts -> int
(** Retired mispredicted branches: conditional + indirect, as the paper's
    counter does. *)

val mpki : counts -> float
val l1i_mpki : counts -> float
val l1d_mpki : counts -> float
val l2_mpki : counts -> float
