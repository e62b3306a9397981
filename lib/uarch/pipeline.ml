module Program = Pi_isa.Program
module Trace = Pi_isa.Trace

type penalties = {
  mispredict : float;
  btb_miss : float;
  l1i_miss : float;
  l1d_miss : float;
  l2_miss : float;
  store_miss_factor : float;
}

type instr_costs = {
  plain : float;
  fp : float;
  mul : float;
  div : float;
  mem : float;
  term : float;
}

type overlap = { chase : float; random : float; sequential : float; fixed : float }

type config = {
  name : string;
  make_predictor : unit -> Predictor.t;
  make_indirect : unit -> Indirect.t;
  data_prefetcher : bool;
  trace_cache : Trace_cache.geometry option;
  l1i : Cache.geometry;
  l1d : Cache.geometry;
  l2 : Cache.geometry;
  costs : instr_costs;
  penalties : penalties;
  overlap : overlap;
  wrong_path : bool;
  perfect_btb : bool;  (* oracle indirect-target prediction *)
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

(* Static per-block cost of the instruction mix, cycles. *)
let block_base_cost costs (b : Program.block) =
  let acc = ref costs.term in
  Array.iter
    (fun instr ->
      acc :=
        !acc
        +.
        match instr with
        | Program.Plain n -> costs.plain *. float_of_int n
        | Program.Fp n -> costs.fp *. float_of_int n
        | Program.Mul n -> costs.mul *. float_of_int n
        | Program.Div n -> costs.div *. float_of_int n
        | Program.Mem _ -> costs.mem)
    b.instrs;
  !acc

let pattern_overlap overlap = function
  | Program.Chase _ -> overlap.chase
  | Program.Random_uniform -> overlap.random
  | Program.Sequential _ -> overlap.sequential
  | Program.Fixed_offset _ -> overlap.fixed

let run_unoptimized ?(warmup_blocks = 0) config (trace : Trace.t) (placement : Pi_layout.Placement.t) =
  let program = trace.Trace.program in
  let code = placement.Pi_layout.Placement.code in
  let data = placement.Pi_layout.Placement.data in
  let predictor = config.make_predictor () in
  let indirect_predictor = config.make_indirect () in
  let prefetcher = if config.data_prefetcher then Some (Prefetcher.create ()) else None in
  let trace_cache = Option.map Trace_cache.create config.trace_cache in
  let l1i = Cache.create config.l1i in
  let l1d = Cache.create config.l1d in
  let l2 = Cache.create config.l2 in
  let n_blocks = Array.length program.Program.blocks in
  let base_cost =
    Array.init n_blocks (fun i -> block_base_cost config.costs program.Program.blocks.(i))
  in
  (* Flattened static memory-op id list per block, so the hot loop walks an
     int array instead of re-matching instructions. *)
  let block_mem_ids =
    Array.init n_blocks (fun i ->
        let ids = ref [] in
        Array.iter
          (function Program.Mem m -> ids := m :: !ids | _ -> ())
          program.Program.blocks.(i).Program.instrs;
        Array.of_list (List.rev !ids))
  in
  let mem_overlap =
    Array.map
      (fun (m : Program.mem_op) -> pattern_overlap config.overlap m.pattern)
      program.Program.mem_ops
  in
  let line = config.l1d.Cache.line_bytes in
  let block_addr = code.Pi_layout.Code_layout.block_addr in
  let block_bytes = code.Pi_layout.Code_layout.block_bytes in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let ibr_pc = code.Pi_layout.Code_layout.ibr_pc in
  let line_shift =
    let rec log2 k v = if v = 1 then k else log2 (k + 1) (v lsr 1) in
    log2 0 config.l1i.Cache.line_bytes
  in
  let block_instrs =
    Array.init n_blocks (fun i -> Program.block_instr_count program i)
  in
  let cycles = ref 0.0 in
  let cond_mispredicts = ref 0 in
  let indirect_mispredicts = ref 0 in
  let btb_misses = ref 0 in
  let cond_branches = ref 0 in
  let indirect_branches = ref 0 in
  let instructions = ref 0 in
  (* Cache counter snapshots taken at the warmup boundary. *)
  let l1i_base = ref (0, 0) and l1d_base = ref (0, 0) and l2_base = ref (0, 0) in
  let pen = config.penalties in
  (* Fetch the lines of a block through L1I (missing into L2), charging
     penalties; [charge] is false for wrong-path fetches. *)
  let fetch ~charge addr bytes =
    let first = addr lsr line_shift in
    let last = (addr + bytes - 1) lsr line_shift in
    for l = first to last do
      let line_addr = l lsl line_shift in
      if not (Cache.access l1i line_addr) then
        if Cache.access l2 line_addr then begin
          if charge then cycles := !cycles +. pen.l1i_miss
        end
        else if charge then cycles := !cycles +. pen.l2_miss *. 0.7
      (* Instruction misses to memory overlap poorly but the stream is
         prefetch-friendly; 0.7 reflects partial hiding. *)
    done
  in
  let mem_events = trace.Trace.mem_events in
  let n_events = Array.length mem_events in
  let mem_cursor = ref 0 in
  (* Resolve and access one data reference, charging penalties. *)
  let data_access mem_id event =
    let addr = Pi_layout.Data_layout.address data event in
    let is_store = Trace.mem_is_store event in
    if not (Cache.access l1d addr) then begin
      let factor =
        (if is_store then pen.store_miss_factor else 1.0) *. mem_overlap.(mem_id)
      in
      if Cache.access l2 addr then cycles := !cycles +. (pen.l1d_miss *. factor)
      else cycles := !cycles +. (pen.l2_miss *. factor)
    end;
    match prefetcher with
    | Some pf -> (
        match Prefetcher.observe pf ~mem_id ~addr with
        | Some (first, count) ->
            (* Prefetches fill L1D and L2 ahead of demand, off the critical
               path (no cycle charge). *)
            for k = 0 to count - 1 do
              let line_addr = first + (k * 64) in
              Cache.fill l2 line_addr;
              Cache.fill l1d line_addr
            done
        | None -> ())
    | None -> ()
  in
  let wrong_path_runs = ref 0 in
  let last_prefetch_cursor = ref (-1) in
  let wrong_path_effects ~alternate_block =
    if config.wrong_path then begin
      (* The front end runs ahead down the wrong path: the alternate
         target's first line may be installed in L1I, but only if it is
         already L2-resident — a memory-latency fetch never completes
         before the pipeline redirects. The L2 is not disturbed. *)
      let alt_line =
        block_addr.(alternate_block) land lnot (config.l1i.Cache.line_bytes - 1)
      in
      if (not (Cache.probe l1i alt_line)) && Cache.probe l2 alt_line then
        Cache.touch l1i alt_line;
      (* ...and occasionally runs far enough ahead to issue the next load
         speculatively, pulling its line into L2 early (prefetch) or
         displacing useful data (pollution). The redirect usually arrives
         first, so only a fraction of mispredictions get this far — and
         back-to-back mispredictions can only prefetch the same upcoming
         line once, so the benefit SATURATES as mispredictions get denser.
         That saturation is the mechanical source of the mild non-linearity
         the paper observes on benchmarks that combine frequent
         mispredictions with last-level-cache pressure (252.eon,
         178.galgel). *)
      incr wrong_path_runs;
      if
        !wrong_path_runs land 7 = 0
        && !last_prefetch_cursor <> !mem_cursor
        && !mem_cursor < n_events
      then begin
        let next_event = mem_events.(!mem_cursor) in
        let addr = Pi_layout.Data_layout.address data next_event in
        Cache.touch l2 (addr land lnot (line - 1));
        last_prefetch_cursor := !mem_cursor
      end
    end
  in
  let seq = trace.Trace.block_seq in
  let n = Array.length seq in
  let warmup = min warmup_blocks (max 0 (n - 1)) in
  for i = 0 to n - 1 do
    if i = warmup then begin
      (* Structures stay warm; measurement starts here, modelling the
         steady state a multi-minute run reaches. *)
      cycles := 0.0;
      cond_mispredicts := 0;
      indirect_mispredicts := 0;
      btb_misses := 0;
      cond_branches := 0;
      indirect_branches := 0;
      instructions := 0;
      l1i_base := (Cache.accesses l1i, Cache.misses l1i);
      l1d_base := (Cache.accesses l1d, Cache.misses l1d);
      l2_base := (Cache.accesses l2, Cache.misses l2)
    end;
    let b = seq.(i) in
    instructions := !instructions + block_instrs.(b);
    cycles := !cycles +. base_cost.(b);
    let trace_cache_hit =
      match trace_cache with
      | Some tc -> Trace_cache.access tc ~block_id:b
      | None -> false
    in
    if not trace_cache_hit then fetch ~charge:true block_addr.(b) block_bytes.(b);
    let ids = block_mem_ids.(b) in
    for k = 0 to Array.length ids - 1 do
      data_access ids.(k) mem_events.(!mem_cursor + k)
    done;
    mem_cursor := !mem_cursor + Array.length ids;
    if i + 1 < n then begin
      let next = seq.(i + 1) in
      match program.Program.blocks.(b).Program.term with
      | Program.Branch { branch; taken; not_taken } ->
          incr cond_branches;
          let outcome = next = taken in
          let correct = predictor.Predictor.on_branch ~pc:branch_pc.(branch) ~taken:outcome in
          if not correct then begin
            incr cond_mispredicts;
            cycles := !cycles +. pen.mispredict;
            wrong_path_effects ~alternate_block:(if outcome then not_taken else taken)
          end
      | Program.Switch { ibr; targets } ->
          incr indirect_branches;
          let target_addr = block_addr.(next) in
          let hit =
            config.perfect_btb
            || indirect_predictor.Indirect.on_indirect ~pc:ibr_pc.(ibr) ~target:target_addr
          in
          if not hit then begin
            incr indirect_mispredicts;
            incr btb_misses;
            cycles := !cycles +. pen.btb_miss;
            if Array.length targets > 0 then wrong_path_effects ~alternate_block:targets.(0)
          end
      | Program.Indirect_call { ibr; callees; return_to = _ } ->
          incr indirect_branches;
          let target_addr = block_addr.(next) in
          let hit =
            config.perfect_btb
            || indirect_predictor.Indirect.on_indirect ~pc:ibr_pc.(ibr) ~target:target_addr
          in
          if not hit then begin
            incr indirect_mispredicts;
            incr btb_misses;
            cycles := !cycles +. pen.btb_miss;
            if Array.length callees > 0 then
              wrong_path_effects
                ~alternate_block:program.Program.procs.(callees.(0)).Program.entry
          end
      | Program.Jump _ | Program.Call _ | Program.Return | Program.Halt -> ()
    end
  done;
  let delta (a0, m0) cache = (Cache.accesses cache - a0, Cache.misses cache - m0) in
  let l1i_acc, l1i_miss = delta !l1i_base l1i in
  let l1d_acc, l1d_miss = delta !l1d_base l1d in
  let l2_acc, l2_miss = delta !l2_base l2 in
  {
    cycles = !cycles;
    instructions = !instructions;
    cond_branches = !cond_branches;
    cond_mispredicts = !cond_mispredicts;
    indirect_branches = !indirect_branches;
    indirect_mispredicts = !indirect_mispredicts;
    btb_misses = !btb_misses;
    l1i_accesses = l1i_acc;
    l1i_misses = l1i_miss;
    l1d_accesses = l1d_acc;
    l1d_misses = l1d_miss;
    l2_accesses = l2_acc;
    l2_misses = l2_miss;
  }

(* ------------------------------------------------------------------ *)
(* The data side: L1D and the prefetcher see only data addresses and
   memory-op ids, never code addresses, predictors, L1I or L2. [data_side]
   simulates them once per data layout, recording the L2 operations they
   issue and the line a wrong-path run touches in L2; every replay body
   applies those operations at the events that issued them, in the order
   a full simulation performs them. *)

type data_side = {
  ds_trace : Trace.t;  (** the trace it was simulated over *)
  ds_data : Pi_layout.Data_layout.t;  (** the data layout it was simulated under *)
  ds_l1d : Cache.geometry;
  ds_prefetcher : bool;
  ds_ops : int array;
      (** L2 operations in issue order, two words each: the code [2k] (event
          [k] missed L1D at the address) or [2k + 1] (event [k]'s prefetch
          filled the line at the address), then the address; ends in a
          [max_int] code, so a walk needs no bound check *)
  ds_peek : int array;  (** per event: the L1D line of its address *)
  ds_misses : int;  (** L1D misses over the whole trace *)
}

(* ------------------------------------------------------------------ *)
(* Compiled replay plans.

   Interferometry runs one trace under hundreds of placements, so the
   per-placement cost of [run_unoptimized] — rebuilding the static cost
   tables, re-walking instruction arrays to find memory ops, and
   re-pattern-matching every dynamic block's terminator — is pure waste
   after the first run. [compile] performs all of that work once, producing
   flat tables indexed by static block and by static memory instruction;
   [replay] then walks the trace's own block sequence through those tables
   with no per-event allocation or variant matching (it is the one-lane
   instance of the cache-lane walk below). Everything a step needs is its
   block, the block after it (which decides a branch's outcome and an
   indirect branch's target) or a property of the static block, so the
   plan holds nothing whose size grows with the trace. Replay output is
   bit-identical to [run_unoptimized]: the same floats are accumulated in
   the same order and the same cache/predictor state transitions happen in
   the same sequence.

   A plan is immutable after [compile] and holds no simulation state
   (predictors are created per replay call, cache images live in a pooled
   per-domain scratch), so one plan can be replayed concurrently from many
   domains; its one mutable slot only caches the immutable data side last
   built for it. *)

type plan = {
  plan_config : config;
  plan_trace : Trace.t;
  (* Per static block, indexed by block id: *)
  block_instrs : int array;  (** retired instructions of the block *)
  block_cost : float array;  (** static issue cost of the block, cycles *)
  block_kind : int array;  (** terminator class: 0 none, 1 conditional branch, 2 indirect *)
  block_site : int array;  (** branch id (class 1) or indirect-branch id (class 2) *)
  block_taken : int array;  (** class 1: the taken target; the outcome is [next = taken] *)
  block_alt : int array;
      (** wrong-path alternate: class 1 the not-taken target (a not-taken outcome's is [taken]);
          class 2 the first switch target or first callee's entry; -1 when none *)
  block_slot : int array;
      (** [n_blocks + 1] bounds: block [b]'s memory instructions are slots [block_slot.(b)] on *)
  (* Per static memory instruction (slot): *)
  slot_mem : int array;  (** static memory-op id (the prefetcher's key) *)
  slot_factor : float array;  (** (op is a store ? store_miss_factor : 1) x overlap *)
  last_data_side : data_side option Atomic.t;
      (** reused by the next [data_side] call for the same data layout *)
}

let plan_config plan = plan.plan_config
let plan_trace plan = plan.plan_trace
let plan_blocks plan = Array.length plan.plan_trace.Trace.block_seq
let plan_mem_events plan = Array.length plan.plan_trace.Trace.mem_events

(* Heap footprint of the plan's own tables in machine words (one per int
   or float element); the trace belongs to the caller. *)
let plan_words plan =
  (6 * Array.length plan.block_cost) + Array.length plan.block_slot
  + (2 * Array.length plan.slot_mem)

(* Observability instruments for the replay path. Bumped once per
   compile / replay call — from the final aggregate counters, never inside
   the per-event loop — so metering costs nothing against the hot loop. *)
let m_plan_compiles =
  Pi_obs.Metrics.counter ~help:"replay plans compiled from a trace" "pi_obs_plan_compiles_total"

let m_plan_reuses =
  Pi_obs.Metrics.counter ~help:"plan_with_config calls that reused the compiled arrays"
    "pi_obs_plan_reuses_total"

let m_replay_runs =
  Pi_obs.Metrics.counter ~help:"compiled-plan replays executed" "pi_obs_replay_runs_total"

let m_replay_blocks =
  Pi_obs.Metrics.counter ~help:"dynamic blocks replayed" "pi_obs_replay_blocks_total"

let m_branches =
  Pi_obs.Metrics.counter ~help:"conditional + indirect branches replayed" "pi_obs_branches_total"

let m_mispredicts =
  Pi_obs.Metrics.counter ~help:"conditional + indirect mispredictions replayed"
    "pi_obs_mispredicts_total"

let m_cache_probes =
  Pi_obs.Metrics.counter ~help:"L1I + L1D + L2 cache probes replayed" "pi_obs_cache_probes_total"

let compile config (trace : Trace.t) =
  Pi_obs.Metrics.inc m_plan_compiles;
  let program = trace.Trace.program in
  let blocks = program.Program.blocks in
  let n_blocks = Array.length blocks in
  let block_mems =
    Array.map
      (fun (blk : Program.block) ->
        Array.of_seq
          (Seq.filter_map
             (function Program.Mem m -> Some m | _ -> None)
             (Array.to_seq blk.Program.instrs)))
      blocks
  in
  let block_slot = Array.make (n_blocks + 1) 0 in
  Array.iteri (fun b ids -> block_slot.(b + 1) <- block_slot.(b) + Array.length ids) block_mems;
  let slot_mem = Array.concat (Array.to_list block_mems) in
  let smf = config.penalties.store_miss_factor in
  let slot_factor =
    Array.map
      (fun id ->
        let m = program.Program.mem_ops.(id) in
        (if m.Program.is_store then smf else 1.0) *. pattern_overlap config.overlap m.Program.pattern)
      slot_mem
  in
  let block_kind = Array.make n_blocks 0 and block_site = Array.make n_blocks 0 in
  let block_taken = Array.make n_blocks (-1) and block_alt = Array.make n_blocks (-1) in
  Array.iteri
    (fun b (blk : Program.block) ->
      let set kind site alt =
        block_kind.(b) <- kind;
        block_site.(b) <- site;
        block_alt.(b) <- alt
      in
      match blk.Program.term with
      | Program.Branch { branch; taken; not_taken } ->
          set 1 branch not_taken;
          block_taken.(b) <- taken
      | Program.Switch { ibr; targets } -> set 2 ibr (if Array.length targets > 0 then targets.(0) else -1)
      | Program.Indirect_call { ibr; callees; return_to = _ } ->
          set 2 ibr
            (if Array.length callees > 0 then program.Program.procs.(callees.(0)).Program.entry else -1)
      | Program.Jump _ | Program.Call _ | Program.Return | Program.Halt -> ())
    blocks;
  {
    plan_config = config;
    plan_trace = trace;
    block_instrs = Array.init n_blocks (fun i -> Program.block_instr_count program i);
    block_cost = Array.map (block_base_cost config.costs) blocks;
    block_kind;
    block_site;
    block_taken;
    block_alt;
    block_slot;
    slot_mem;
    slot_factor;
    last_data_side = Atomic.make None;
  }

(* The plan depends on [config] only through the instruction costs, the
   overlap factors and the store-miss factor; everything else (geometries,
   penalties, predictors) is consumed at replay time. Reuse the compiled
   arrays when those parameters are unchanged — swapping predictors across a
   sweep costs nothing — and recompile otherwise. *)
let plan_with_config plan config =
  let old = plan.plan_config in
  if
    old.costs = config.costs && old.overlap = config.overlap
    && old.penalties.store_miss_factor = config.penalties.store_miss_factor
  then begin
    Pi_obs.Metrics.inc m_plan_reuses;
    { plan with plan_config = config }
  end
  else compile config plan.plan_trace

(* Branchless saturating two-bit counter update: exactly
   [if taken then min 3 (c + 1) else max 0 (c - 1)] for [c] in [0,3] and
   [taken_int] in {0,1}. Data-dependent branches on the simulated outcome
   are unpredictable to the host CPU, so the predictor kernels avoid them. *)
let[@inline] sat2_update c taken_int =
  let c1 = c + (taken_int lsl 1) - 1 in
  let c2 = c1 land lnot (c1 asr 62) in
  c2 - (c2 lsr 2)

let log2_exact v =
  let rec go k v = if v = 1 then k else go (k + 1) (v lsr 1) in
  go 0 v

(* A data side is valid for any plan over the same trace whose machine has
   the same L1D and prefetcher; [plan_with_config] can change either after
   the build, so every use checks. *)
let data_side_fits plan ds =
  ds.ds_trace == plan.plan_trace
  && ds.ds_l1d = plan.plan_config.l1d
  && ds.ds_prefetcher = plan.plan_config.data_prefetcher

let simulate_data_side plan (data : Pi_layout.Data_layout.t) =
  let config = plan.plan_config in
  let mem_events = plan.plan_trace.Trace.mem_events in
  let n_events = Array.length mem_events in
  let l1d = Cache.create config.l1d in
  let prefetcher = if config.data_prefetcher then Some (Prefetcher.create ()) else None in
  let line_mask = lnot (config.l1d.Cache.line_bytes - 1) in
  (* Without prefetches an event issues at most one operation, so the
     buffer never grows. *)
  let ops = Pi_isa.Int_vec.create ~capacity:((2 * n_events) + 2) () in
  let push code addr = Pi_isa.Int_vec.push ops code; Pi_isa.Int_vec.push ops addr in
  let peek = Array.make n_events 0 in
  (* Resolve event [k] and look it up in L1D; its address. *)
  let access k =
    let addr = Pi_layout.Data_layout.address data mem_events.(k) in
    peek.(k) <- addr land line_mask;
    if not (Cache.access l1d addr) then push (2 * k) addr;
    addr
  in
  (match prefetcher with
  | None -> for k = 0 to n_events - 1 do ignore (access k) done
  | Some pf ->
      (* The prefetcher is keyed by static memory op: walk the block
         sequence to find each event's slot. *)
      let seq = plan.plan_trace.Trace.block_seq and slot = plan.block_slot and k = ref 0 in
      for i = 0 to Array.length seq - 1 do
        for s = slot.(seq.(i)) to slot.(seq.(i) + 1) - 1 do
          let addr = access !k in
          (match Prefetcher.observe pf ~mem_id:plan.slot_mem.(s) ~addr with
          | Some (first, count) ->
              (* Fills L1D here and L2 in the walk, with no cycle charge. *)
              for p = 0 to count - 1 do
                let line_addr = first + (p * 64) in
                push ((2 * !k) + 1) line_addr;
                Cache.fill l1d line_addr
              done
          | None -> ());
          incr k
        done
      done);
  push max_int 0;
  {
    ds_trace = plan.plan_trace;
    ds_data = data;
    ds_l1d = config.l1d;
    ds_prefetcher = config.data_prefetcher;
    ds_ops = Pi_isa.Int_vec.to_array ops;
    ds_peek = peek;
    ds_misses = Cache.misses l1d;
  }

let data_side plan data =
  match Atomic.get plan.last_data_side with
  | Some ds when ds.ds_data == data && data_side_fits plan ds -> ds
  | _ ->
      let ds = simulate_data_side plan data in
      Atomic.set plan.last_data_side (Some ds);
      ds

let data_side_for who plan placement = function
  | None -> data_side plan placement.Pi_layout.Placement.data
  | Some ds when data_side_fits plan ds -> ds
  | Some _ -> invalid_arg (who ^ ": the data side was built for another trace, L1D or prefetcher")

(* L1D (accesses, misses) measured from memory event [first] on (the
   walk's event cursor at its warmup block): every event is one access and
   every even op code one miss. *)
let data_l1d ds ~first =
  let misses_before = ref 0 and k = ref 0 in
  while ds.ds_ops.(!k) < 2 * first do
    if ds.ds_ops.(!k) land 1 = 0 then incr misses_before;
    k := !k + 2
  done;
  (Array.length ds.ds_peek - first, ds.ds_misses - !misses_before)

(* Instructions retired from block [warmup] on, summed apart from the
   walk, whose every step would otherwise pay a load and an add for it. *)
let retired_from plan ~warmup =
  let seq = plan.plan_trace.Trace.block_seq and instrs = plan.block_instrs in
  let sum = ref 0 in
  for i = warmup to Array.length seq - 1 do
    sum := !sum + Array.unsafe_get instrs (Array.unsafe_get seq i)
  done;
  !sum

(* ------------------------------------------------------------------ *)
(* The replay walkers: fused multi-lane sweeps, and scalar replay.

   Two walkers replay a plan, one per sweep axis. The cache-lane walk
   ([walk_cache_lanes]) simulates one shared direction predictor, indirect
   predictor and trace cache, per-lane L1I images and one shared L2 image
   per L2 geometry (split per lane where lanes diverge); a one-lane batch
   over the machine's own geometries is exactly a scalar replay, so
   [replay] is that walk. The predictor-lane walk ([walk_pred_lanes]) is
   the rest of this section.

   A predictor sweep replays the *same* plan under the *same* placement once
   per configuration, yet the trace walk, the data side and the
   indirect-target predictor never depend on the direction predictor.
   [replay_many] walks the plan once for a whole batch of predictor lanes,
   sharing everything that is predictor-invariant and keeping per-lane
   copies of exactly the state a lane's own mispredictions can perturb:

   - shared: the block sequence and its static tables, the [data_side], trace
     cache, the indirect predictor/BTB, and the instruction/branch event
     counters — their inputs are placement- and trace-derived only;
   - per lane: cycles, conditional mispredicts, and the L1I images, because
     wrong-path effects (fetching the alternate target into L1I,
     speculatively touching the next data line in L2) fire per mispredict,
     and mispredicts differ per lane;
   - shared until a lane diverges: the L2 tags. Every lane has the machine's
     L2, so the batch is one group of the shared L2 layer ({!l2_groups}):
     one image serves every L2 set that no lane-specific reference (a
     lane's own speculative load, or a fetch miss only some lanes took) has
     touched, which is exact because every lane holds the same state there;
     such a reference splits the set into per-lane copies for the rest of
     the pass. Both walkers keep their L2 state in this one layer.

   Lane predictor state is a structure of arrays: every lane's saturating
   counter tables are packed into one byte image ([tab], copied fresh from
   [tab_init] per pass) addressed through per-lane offset/mask arrays, and
   lanes are sorted by kernel kind so the per-branch inner loops are
   branch-free dispatches over contiguous ranges. All history-based lanes
   share one global history register: a lane's history is the shared
   register masked to the lane's length, which holds because every kernel
   starts at zero history and shifts in the same outcome bit.

   Per-lane L1I images and split L2 sets use a set-major layout
   ([set][lane][way]) so the lane loop of one reference scans contiguous
   memory.

   The correctness bar is the repo's standing invariant: each lane's counts
   are bit-identical to a sequential [replay] of that configuration (and so
   to [run_unoptimized]) — the same floats accumulated in the same order,
   the same state transitions in the same sequence. *)

type pred_lanes = {
  batch_n : int;  (** fused lanes *)
  batch_names : string array;  (** lane names, internal (kind-sorted) order *)
  batch_src : int array;  (** internal lane -> index into the caller's config array *)
  batch_fallback : int array;  (** caller indices with no kernel: per-config path *)
  (* Kind ranges over internal lanes: [0,bim_hi) bimodal, [bim_hi,gsh_hi)
     gshare, [gsh_hi,gas_hi) GAs, [gas_hi,batch_n) hybrid. *)
  bim_hi : int;
  gsh_hi : int;
  gas_hi : int;
  tab_init : Bytes.t;  (** fresh counter-table image; blitted into scratch per pass *)
  (* Per-lane kernel parameters, internal lane order. [off1]/[mask1] is the
     main counter table (hybrid: the GAs table); [off2]/[off3] are the
     hybrid bimodal and chooser tables (unused otherwise). *)
  off1 : int array;
  mask1 : int array;
  off2 : int array;
  mask2 : int array;
  off3 : int array;
  mask3 : int array;
  hmask : int array;  (** history mask; 0 for historyless lanes *)
  amask : int array;  (** GAs address mask *)
  hbits : int array;  (** GAs history bits *)
  gimask : int array;  (** hybrid gas_index_mask *)
  hist_keep : int;  (** OR of all [hmask]: shared-history retention mask *)
}

(* Bulk per-pass state of a walk. A predictor-lane pass uses the
   counter-table image [bs_tab] (a blit of [tab_init]) and the L1I image
   and its MRU summaries; a cache-lane pass (scalar replay included) uses
   [bs_l1i] as its lane-major L1I arena. Every pass keeps its L2 state in
   the shared L2 layer below: the group images [bs_l2], one split flag per
   set of a multi-lane group ([bs_split]), and the strips of the sets that
   split ([bs_strips], one per flag slot, kept across passes and regrown
   when too short).

   One scratch per domain serves every pass, whatever its batch or axis: a
   pass borrows it, grows whatever is too small, and returns it. A scratch
   at least as large as a pass needs is as good as an exact one, because
   the pass indexes and resets only prefixes bounded by its own lane count,
   table size and cache geometry, and a split copies into its strip before
   reading it. So a 5-lane sub-batch replays inside the memoized 143-lane
   grid's idle scratch instead of allocating its own, and a scalar replay
   allocates no tag arrays. *)
type scratch = {
  bs_tab : Bytes.t;
  bs_l1i : int array;
  bs_set_mru : int array;
  bs_lane_mru : int array;
  bs_l2 : int array;
  bs_split : Bytes.t;
  bs_strips : int array array;
}

(* The pool holds at most one idle scratch per domain. Taking is an
   atomic exchange, so systhreads sharing a domain (the daemon's workers)
   never share a scratch: a pass that finds the pool empty allocates its
   own, and whichever pass returns last leaves its scratch behind. *)
let scratch_pool : scratch option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let no_scratch =
  {
    bs_tab = Bytes.empty;
    bs_l1i = [||];
    bs_set_mru = [||];
    bs_lane_mru = [||];
    bs_l2 = [||];
    bs_split = Bytes.empty;
    bs_strips = [||];
  }

let borrow_scratch ~tab_len ~l1i_words ~l1i_sets ~lane_mru_words ~l2_words ~split_slots =
  let s = Option.value (Atomic.exchange (Domain.DLS.get scratch_pool) None) ~default:no_scratch in
  let grow a len fill = if Array.length a >= len then a else Array.make len fill in
  let l1i = grow s.bs_l1i l1i_words (-1) in
  Array.fill l1i 0 l1i_words (-1);
  let set_mru = grow s.bs_set_mru l1i_sets (-1) in
  Array.fill set_mru 0 l1i_sets (-1);
  let l2 = grow s.bs_l2 l2_words (-1) in
  Array.fill l2 0 l2_words (-1);
  let split = if Bytes.length s.bs_split >= split_slots then s.bs_split else Bytes.create split_slots in
  Bytes.fill split 0 split_slots '\000';
  let strips =
    let have = Array.length s.bs_strips in
    if have >= split_slots then s.bs_strips
    else Array.append s.bs_strips (Array.make (split_slots - have) [||])
  in
  (* [bs_lane_mru] needs no reset: it is only read on sets already marked
     mixed, and the divergence that marks a set mixed fills its lane row
     first. *)
  {
    bs_tab = (if Bytes.length s.bs_tab >= tab_len then s.bs_tab else Bytes.create tab_len);
    bs_l1i = l1i;
    bs_set_mru = set_mru;
    bs_lane_mru = grow s.bs_lane_mru lane_mru_words (-1);
    bs_l2 = l2;
    bs_split = split;
    bs_strips = strips;
  }

let return_scratch s = Atomic.set (Domain.DLS.get scratch_pool) (Some s)

(* The shared L2 layer. Lanes with one L2 geometry form a group, a
   contiguous lane range, and receive the same L2 reference stream except
   where a lane-specific event intervenes (a wrong-path speculative load
   of one predictor lane; a fetch miss that some lanes of the group took
   and others did not, their L1Is differing). So a group keeps one tag
   image (sets x assoc) for all its lanes, and a set gets per-lane copies
   only when a lane-specific reference first touches it: the set is then
   split for the rest of the pass, and its ways are copied into a strip
   laid out [lane-in-group][way].

   This is exact by construction. A set no lane-specific reference has
   touched holds the same state in every lane of the group (all lanes
   start empty and applied the same references in the same order), and
   lanes in the same state that apply the same reference end in the same
   state with the same hit or miss. So a reference every lane of the group
   makes at the same point ({i shared}: a data-side L1D miss or prefetch
   fill, a cache lane's every-8th wrong-path load, a fetch line every lane
   of the group missed) costs one lookup on a clean set, counted once on
   the group's counter, and each lane adds its own penalty to its own
   cycles. A lane's L2 count is its own counter (references on split sets)
   plus its group's. A group of one lane never splits: every reference it
   makes is shared, so a scalar replay does one lookup per reference. *)
type l2_groups = {
  lg_n : int;  (** groups *)
  lg_lo : int array;  (** [lg_n + 1] bounds: group [g] is lanes [lg_lo.(g)] to [lg_lo.(g+1) - 1] *)
  lg_of_lane : int array;
  lg_mask : int array;  (** sets - 1 *)
  lg_assoc : int array;
  lg_img : int array;  (** way 0 of set 0 of the group's image in the image arena *)
  lg_img_words : int;
  lg_flag : int array;  (** the group's first split flag; groups of one lane have none *)
  lg_flag_words : int;
}

(* Group runs of equal consecutive geometries, one per lane. *)
let l2_groups_of (geoms : Cache.geometry array) =
  let n = Array.length geoms in
  let starts = List.filter (fun j -> j = 0 || geoms.(j) <> geoms.(j - 1)) (List.init n Fun.id) in
  let lg_lo = Array.of_list (starts @ [ n ]) in
  let lg_n = Array.length lg_lo - 1 in
  let lg_of_lane = Array.make n 0 in
  for g = 0 to lg_n - 1 do
    Array.fill lg_of_lane lg_lo.(g) (lg_lo.(g + 1) - lg_lo.(g)) g
  done;
  let geom g = geoms.(lg_lo.(g)) in
  let offsets words_of =
    let off = Array.make lg_n 0 and total = ref 0 in
    for g = 0 to lg_n - 1 do
      off.(g) <- !total;
      total := !total + words_of g
    done;
    (off, !total)
  in
  let lg_img, lg_img_words = offsets (fun g -> Cache.geometry_sets (geom g) * (geom g).Cache.assoc) in
  let lg_flag, lg_flag_words =
    offsets (fun g -> if lg_lo.(g + 1) - lg_lo.(g) > 1 then Cache.geometry_sets (geom g) else 0)
  in
  {
    lg_n;
    lg_lo;
    lg_of_lane;
    lg_mask = Array.init lg_n (fun g -> Cache.geometry_sets (geom g) - 1);
    lg_assoc = Array.init lg_n (fun g -> (geom g).Cache.assoc);
    lg_img;
    lg_img_words;
    lg_flag;
    lg_flag_words;
  }

(* Cache-geometry lanes: the second sweep axis. Every lane simulates the
   same machine except for its L1I and L2 geometries (line size is shared —
   it is baked into the fetch and data line masks the whole pass shares).
   The direction predictor, indirect predictor, trace cache, prefetcher and
   L1D are geometry-invariant, so one shared instance serves all lanes and
   branch outcomes are lane-invariant; per lane remain cycles and the
   L1I/L2 tag state plus its counters. L1I images are lane-major slices
   ([lane][set][way]) of one flat arena — the cache-axis analogue of the
   packed counter image — because lanes disagree on set count and
   associativity, so there is no common set to interleave on. L2 state is
   the shared L2 layer: lanes are ordered by L2 geometry, so the lanes of
   one L2 geometry are one contiguous group sharing one image ([cb_src]
   keeps the caller's order). *)
type cache_lanes = {
  cb_n : int;  (** fused lanes *)
  cb_names : string array;  (** lane names, internal (L2-geometry-sorted) order *)
  cb_src : int array;  (** internal lane -> index into the caller's config array *)
  cb_geoms : (Cache.geometry * Cache.geometry) array;  (** (l1i, l2) per lane *)
  cb_i_line : int;  (** shared L1I line size; must equal the plan's *)
  cb_d_line : int;  (** shared L2 line size; must equal the plan's *)
  (* Per-lane L1I image slice: [off + (line land mask) * assoc] is way 0. *)
  cb_i_off : int array;
  cb_i_mask : int array;
  cb_i_assoc : int array;
  cb_i_words : int;  (** total L1I arena words *)
  cb_l2 : l2_groups;
}

(* A fused batch is a set of lanes varying along exactly one axis; every
   batch operation ({!batch_shard}, {!replay_many}, the accessors) is
   axis-generic and dispatches here. *)
type batch = Predictor_lanes of pred_lanes | Cache_lanes of cache_lanes

let batch_lanes = function
  | Predictor_lanes b -> b.batch_n
  | Cache_lanes c -> c.cb_n

let batch_names = function
  | Predictor_lanes b -> b.batch_names
  | Cache_lanes c -> c.cb_names

let batch_src = function
  | Predictor_lanes b -> b.batch_src
  | Cache_lanes c -> c.cb_src

let batch_fallback = function
  | Predictor_lanes b -> b.batch_fallback
  | Cache_lanes _ -> [||]

let batch_table_bytes = function
  | Predictor_lanes b -> Bytes.length b.tab_init
  | Cache_lanes c -> 8 * (c.cb_i_words + c.cb_l2.lg_img_words)

let batch_axis = function Predictor_lanes _ -> "predictor" | Cache_lanes _ -> "cache"

let batch_of (configs : (string * (unit -> Predictor.t)) array) =
  let n = Array.length configs in
  let preds = Array.map (fun (_, make) -> make ()) configs in
  (* The shared-history trick requires every history register to start at
     zero (all Counter_table predictors do); anything else falls back. *)
  let kind_of (p : Predictor.t) =
    match p.Predictor.kernel with
    | Some (Predictor.Bimodal_k _) -> 0
    | Some (Predictor.Gshare_k k) -> if !(k.history) = 0 then 1 else -1
    | Some (Predictor.Gas_k k) -> if !(k.history) = 0 then 2 else -1
    | Some (Predictor.Hybrid_k k) -> if !(k.history) = 0 then 3 else -1
    | None -> -1
  in
  let kinds = Array.map kind_of preds in
  let indices_of k =
    List.filter (fun i -> kinds.(i) = k) (List.init n (fun i -> i))
  in
  let order = Array.of_list (List.concat_map indices_of [ 0; 1; 2; 3 ]) in
  let fallback = Array.of_list (indices_of (-1)) in
  let nl = Array.length order in
  let count k = Array.fold_left (fun a x -> if x = k then a + 1 else a) 0 kinds in
  let bim_hi = count 0 in
  let gsh_hi = bim_hi + count 1 in
  let gas_hi = gsh_hi + count 2 in
  let off1 = Array.make nl 0 and mask1 = Array.make nl 0 in
  let off2 = Array.make nl 0 and mask2 = Array.make nl 0 in
  let off3 = Array.make nl 0 and mask3 = Array.make nl 0 in
  let hmask = Array.make nl 0 in
  let amask = Array.make nl 0 in
  let hbits = Array.make nl 0 in
  let gimask = Array.make nl 0 in
  let total = ref 0 in
  (* Counters are packed four per byte in the fused image (each is a 2-bit
     saturator): the whole 145-config grid then fits in well under 1 MiB,
     where the one-per-byte layout of the sequential predictors would keep
     3+ MiB hot and kernel updates cache-miss-bound. Offsets are in counter
     units; every table is padded to a 4-counter boundary so a byte never
     spans two tables. *)
  let blits = ref [] in
  let alloc bytes =
    let o = !total in
    total := o + ((Bytes.length bytes + 3) land lnot 3);
    blits := (o, bytes) :: !blits;
    o
  in
  Array.iteri
    (fun j i ->
      match preds.(i).Predictor.kernel with
      | Some (Predictor.Bimodal_k k) ->
          off1.(j) <- alloc k.counters;
          mask1.(j) <- k.mask
      | Some (Predictor.Gshare_k k) ->
          off1.(j) <- alloc k.counters;
          mask1.(j) <- k.mask;
          hmask.(j) <- k.history_mask
      | Some (Predictor.Gas_k k) ->
          off1.(j) <- alloc k.counters;
          mask1.(j) <- k.mask;
          hmask.(j) <- k.history_mask;
          amask.(j) <- k.addr_mask;
          hbits.(j) <- k.history_bits
      | Some (Predictor.Hybrid_k k) ->
          off1.(j) <- alloc k.gas;
          mask1.(j) <- k.gas_mask;
          gimask.(j) <- k.gas_index_mask;
          off2.(j) <- alloc k.bim;
          mask2.(j) <- k.bim_mask;
          off3.(j) <- alloc k.cho;
          mask3.(j) <- k.cho_mask;
          hmask.(j) <- k.history_mask
      | None -> assert false)
    order;
  let tab_init = Bytes.make ((!total + 3) / 4) '\000' in
  List.iter
    (fun (o, b) ->
      for k = 0 to Bytes.length b - 1 do
        let pos = o + k in
        let byte = Char.code (Bytes.get tab_init (pos lsr 2)) in
        let sh = (pos land 3) lsl 1 in
        Bytes.set tab_init (pos lsr 2)
          (Char.chr (byte lor (Char.code (Bytes.get b k) lsl sh)))
      done)
    !blits;
  Predictor_lanes
    {
      batch_n = nl;
      batch_names = Array.map (fun i -> fst configs.(i)) order;
      batch_src = order;
      batch_fallback = fallback;
      bim_hi;
      gsh_hi;
      gas_hi;
      tab_init;
      off1;
      mask1;
      off2;
      mask2;
      off3;
      mask3;
      hmask;
      amask;
      hbits;
      gimask;
      hist_keep = Array.fold_left ( lor ) 0 hmask;
    }

(* Lay lanes out in the given order: L1I arena slices in lane order, L2
   groups over runs of equal L2 geometry. *)
let pack_cache_lanes ~i_line ~d_line configs src =
  let n = Array.length configs in
  let i_off = Array.make n 0 and i_words = ref 0 in
  Array.iteri
    (fun j (_, gi, _) ->
      i_off.(j) <- !i_words;
      i_words := !i_words + (Cache.geometry_sets gi * gi.Cache.assoc))
    configs;
  {
    cb_n = n;
    cb_names = Array.map (fun (name, _, _) -> name) configs;
    cb_src = src;
    cb_geoms = Array.map (fun (_, gi, gd) -> (gi, gd)) configs;
    cb_i_line = i_line;
    cb_d_line = d_line;
    cb_i_off = i_off;
    cb_i_mask = Array.map (fun (_, gi, _) -> Cache.geometry_sets gi - 1) configs;
    cb_i_assoc = Array.map (fun (_, gi, _) -> gi.Cache.assoc) configs;
    cb_i_words = !i_words;
    cb_l2 = l2_groups_of (Array.map (fun (_, _, gd) -> gd) configs);
  }

(* Pack cache-geometry variants into lanes. Validation is eager and loud:
   every geometry must construct (power-of-two line and set count — the
   checks {!Cache.create} performs), share the seed's line sizes (the pass
   shares one line decomposition of each fetch and data address across all
   lanes), and be distinct as an (l1i, l2) pair — a duplicate pair would
   silently burn a lane re-measuring the same machine, so it is rejected by
   name rather than asserted. *)
let cache_lanes_of ~(l1i : Cache.geometry) ~(l2 : Cache.geometry)
    (configs : (string * Cache.geometry * Cache.geometry) array) =
  let n = Array.length configs in
  let seen = Hashtbl.create (2 * n) in
  Array.iter
    (fun (name, gi, gd) ->
      ignore (Cache.geometry_sets gi);
      ignore (Cache.geometry_sets gd);
      if gi.Cache.line_bytes <> l1i.Cache.line_bytes then
        invalid_arg
          (Printf.sprintf
             "Pipeline.cache_batch_of: lane %S L1I line %dB differs from the machine's %dB (line \
              size is shared across a fused pass)"
             name gi.Cache.line_bytes l1i.Cache.line_bytes);
      if gd.Cache.line_bytes <> l2.Cache.line_bytes then
        invalid_arg
          (Printf.sprintf
             "Pipeline.cache_batch_of: lane %S L2 line %dB differs from the machine's %dB (line \
              size is shared across a fused pass)"
             name gd.Cache.line_bytes l2.Cache.line_bytes);
      match Hashtbl.find_opt seen (gi, gd) with
      | Some other ->
          invalid_arg
            (Printf.sprintf
               "Pipeline.cache_batch_of: lanes %S and %S share the same (L1I, L2) geometry pair — \
                duplicate configurations are rejected, not fused"
               other name)
      | None -> Hashtbl.add seen (gi, gd) name)
    configs;
  (* Stable: within an L2 group, lanes keep the caller's order. *)
  let src =
    Array.of_list
      (List.stable_sort
         (fun a b ->
           let _, _, ga = configs.(a) and _, _, gb = configs.(b) in
           compare ga gb)
         (List.init n Fun.id))
  in
  pack_cache_lanes ~i_line:l1i.Cache.line_bytes ~d_line:l2.Cache.line_bytes
    (Array.map (fun i -> configs.(i)) src)
    src

let cache_batch_of ~l1i ~l2 configs = Cache_lanes (cache_lanes_of ~l1i ~l2 configs)

(* Split a batch into [shards] contiguous sub-batches of near-equal lane
   count. Lane tables are allocated in internal-lane order, so a shard's
   tables occupy one contiguous slice of [tab_init]; offsets are rebased to
   the slice (offsets of tables a shard's kinds never read may go negative —
   they are never dereferenced). Sub-batches carry no fallback lanes: the
   fallback set belongs to the whole batch, not to any shard. *)
let pred_shard (b : pred_lanes) ~shards =
  let nl = b.batch_n in
  let k = if nl = 0 then 1 else max 1 (min shards nl) in
  (* The 1-shard "split" is the batch itself: no copies. *)
  if k = 1 then [| b |]
  else begin
    Array.init k (fun s ->
        let lo = s * nl / k and hi = (s + 1) * nl / k in
        let m = hi - lo in
        let sub a = Array.sub a lo m in
        let clamp x = max 0 (min m (x - lo)) in
        (* Offsets are counter units, all 4-aligned, so the byte slice
           boundaries below are exact. *)
        let start = b.off1.(lo) in
        let stop = if hi < nl then b.off1.(hi) else 4 * Bytes.length b.tab_init in
        let rebase a = Array.map (fun o -> o - start) (sub a) in
        let hmask = sub b.hmask in
        {
          batch_n = m;
          batch_names = sub b.batch_names;
          batch_src = sub b.batch_src;
          batch_fallback = [||];
          bim_hi = clamp b.bim_hi;
          gsh_hi = clamp b.gsh_hi;
          gas_hi = clamp b.gas_hi;
          tab_init = Bytes.sub b.tab_init (start lsr 2) ((stop - start) lsr 2);
          off1 = rebase b.off1;
          mask1 = sub b.mask1;
          off2 = rebase b.off2;
          mask2 = sub b.mask2;
          off3 = rebase b.off3;
          mask3 = sub b.mask3;
          hmask;
          amask = sub b.amask;
          hbits = sub b.hbits;
          gimask = sub b.gimask;
          hist_keep = Array.fold_left ( lor ) 0 hmask;
        })
  end

(* Cache-lane sharding: a contiguous lane range keeps its internal order
   and is laid out afresh, so a shard boundary inside an L2 group leaves
   each shard its own part of the group. As with predictor lanes, the
   1-shard "split" is the batch itself. *)
let cache_shard (c : cache_lanes) ~shards =
  let nl = c.cb_n in
  let k = if nl = 0 then 1 else max 1 (min shards nl) in
  if k = 1 then [| c |]
  else
    Array.init k (fun s ->
        let lo = s * nl / k and hi = (s + 1) * nl / k in
        let sub a = Array.sub a lo (hi - lo) in
        let configs =
          Array.map2 (fun name (gi, gd) -> (name, gi, gd)) (sub c.cb_names) (sub c.cb_geoms)
        in
        pack_cache_lanes ~i_line:c.cb_i_line ~d_line:c.cb_d_line configs (sub c.cb_src))

let batch_shard b ~shards =
  match b with
  | Predictor_lanes p -> Array.map (fun s -> Predictor_lanes s) (pred_shard p ~shards)
  | Cache_lanes c -> Array.map (fun s -> Cache_lanes s) (cache_shard c ~shards)

(* Fused-pass instruments carry the sweep axis as a label: one series per
   axis under the same metric names. *)
type fused_metrics = {
  m_passes : Pi_obs.Metrics.counter;
  m_lane_blocks : Pi_obs.Metrics.counter;
  g_lanes : Pi_obs.Metrics.gauge;
  m_l2_shared : Pi_obs.Metrics.counter;
  m_l2_lane : Pi_obs.Metrics.counter;
  m_l2_splits : Pi_obs.Metrics.counter;
}

let fused_metrics axis =
  let labels = [ ("axis", axis) ] in
  let l2_refs path =
    Pi_obs.Metrics.counter
      ~help:"lane L2 references of fused passes, by the path that served them"
      ~labels:(labels @ [ ("path", path) ])
      "pi_obs_sweep_l2_refs_total"
  in
  {
    m_passes =
      Pi_obs.Metrics.counter ~help:"fused sweep passes executed" ~labels
        "pi_obs_sweep_fused_passes_total";
    m_lane_blocks =
      Pi_obs.Metrics.counter ~help:"lane x dynamic-block work units swept by fused passes" ~labels
        "pi_obs_sweep_lane_blocks_total";
    g_lanes =
      Pi_obs.Metrics.gauge ~help:"lanes carried by the most recent fused pass of this axis" ~labels
        "pi_obs_sweep_lanes_per_pass";
    m_l2_shared = l2_refs "shared";
    m_l2_lane = l2_refs "lane";
    m_l2_splits =
      Pi_obs.Metrics.counter ~help:"L2 sets fused passes split into per-lane copies" ~labels
        "pi_obs_sweep_l2_split_sets_total";
  }

let pred_metrics = fused_metrics "predictor"
let cache_metrics = fused_metrics "cache"

(* [find_way]/[promote] over a flat multi-lane tag image; identical scans to
   {!Cache.find_way}/{!Cache.promote} so lane cache transitions replicate
   the sequential path exactly. *)
let[@inline] lane_find_way (tags : int array) base assoc (tag : int) =
  let limit = base + assoc in
  let i = ref base in
  while !i < limit && Array.unsafe_get tags !i <> tag do incr i done;
  if !i < limit then !i - base else -1

let[@inline] lane_promote (tags : int array) base way (tag : int) =
  for w = base + way downto base + 1 do
    Array.unsafe_set tags w (Array.unsafe_get tags (w - 1))
  done;
  Array.unsafe_set tags base tag

(* Way 0 of [line]'s set in lane [j]'s slice of a lane-major arena. *)
let[@inline] lane_slot off mask assoc j line =
  Array.unsafe_get off j + ((line land Array.unsafe_get mask j) * Array.unsafe_get assoc j)

(* One reference to [line] in the [assoc] ways at [base], after way 0
   missed it: promote it if present (a hit, [true]), else install it over
   the LRU way (a miss). Exactly {!Cache.access}'s transition, and, result
   ignored, {!Cache.fill}'s; callers open-code the way-0 check, the common
   hit, which needs neither of its calls. *)
let[@inline] way_access (tags : int array) base assoc (line : int) =
  let way = lane_find_way tags base assoc line in
  if way >= 0 then begin
    lane_promote tags base way line;
    true
  end
  else begin
    lane_promote tags base (assoc - 1) line;
    false
  end

(* The shared L2 layer's state for one pass (see {!l2_groups}). *)
type l2_pass = {
  lg : l2_groups;
  img : int array;  (** group images, from the scratch *)
  split : Bytes.t;  (** per flag slot: '\001' once the set split *)
  strips : int array array;  (** per flag slot: the split set's lane rows *)
  g_acc : int array;  (** per group: shared counted references *)
  g_mis : int array;
  l_acc : int array;  (** per lane: counted references on split sets *)
  l_mis : int array;
  (* The four counters above at the warmup boundary. *)
  g_acc0 : int array;
  g_mis0 : int array;
  l_acc0 : int array;
  l_mis0 : int array;
  mutable splits : int;
}

let l2_pass lg (s : scratch) =
  let ng = lg.lg_n and nl = lg.lg_lo.(lg.lg_n) in
  {
    lg;
    img = s.bs_l2;
    split = s.bs_split;
    strips = s.bs_strips;
    g_acc = Array.make ng 0;
    g_mis = Array.make ng 0;
    l_acc = Array.make nl 0;
    l_mis = Array.make nl 0;
    g_acc0 = Array.make ng 0;
    g_mis0 = Array.make ng 0;
    l_acc0 = Array.make nl 0;
    l_mis0 = Array.make nl 0;
    splits = 0;
  }

let l2_warmup t =
  let snap a a0 = Array.blit a 0 a0 0 (Array.length a) in
  snap t.g_acc t.g_acc0;
  snap t.g_mis t.g_mis0;
  snap t.l_acc t.l_acc0;
  snap t.l_mis t.l_mis0

(* Lane [j]'s L2 (accesses, misses) since the warmup boundary. *)
let l2_counts t j =
  let g = t.lg.lg_of_lane.(j) in
  ( t.l_acc.(j) - t.l_acc0.(j) + t.g_acc.(g) - t.g_acc0.(g),
    t.l_mis.(j) - t.l_mis0.(j) + t.g_mis.(g) - t.g_mis0.(g) )

(* Lane references served by group images and by split sets, whole pass. *)
let l2_ref_paths t =
  let lg = t.lg in
  let shared = ref 0 in
  for g = 0 to lg.lg_n - 1 do
    shared := !shared + (t.g_acc.(g) * (lg.lg_lo.(g + 1) - lg.lg_lo.(g)))
  done;
  (!shared, Array.fold_left ( + ) 0 t.l_acc)

(* A set of group [g] is clean (held once, in the image) until a
   lane-specific reference splits it; a group of one lane never splits. *)
let[@inline] l2_clean t g set =
  let lg = t.lg in
  Array.unsafe_get lg.lg_lo (g + 1) - Array.unsafe_get lg.lg_lo g = 1
  || Bytes.unsafe_get t.split (Array.unsafe_get lg.lg_flag g + set) = '\000'

let[@inline] l2_image_base t g set =
  Array.unsafe_get t.lg.lg_img g + (set * Array.unsafe_get t.lg.lg_assoc g)

let[@inline] l2_strip t g set = Array.unsafe_get t.strips (Array.unsafe_get t.lg.lg_flag g + set)

(* Split group [g]'s clean [set]: copy its ways into one row per lane. *)
let l2_split t g set =
  let lg = t.lg in
  let assoc = lg.lg_assoc.(g) in
  let lanes = lg.lg_lo.(g + 1) - lg.lg_lo.(g) in
  let slot = lg.lg_flag.(g) + set in
  let strip =
    if Array.length t.strips.(slot) >= lanes * assoc then t.strips.(slot)
    else begin
      let s = Array.make (lanes * assoc) 0 in
      t.strips.(slot) <- s;
      s
    end
  in
  let src = l2_image_base t g set in
  (* Typed stores: [Array.blit] would run the write barrier per word. *)
  for k = 0 to lanes - 1 do
    for w = 0 to assoc - 1 do
      Array.unsafe_set strip ((k * assoc) + w) (Array.unsafe_get t.img (src + w))
    done
  done;
  Bytes.set t.split slot '\001';
  t.splits <- t.splits + 1;
  strip

(* The set's strip, splitting the set first if it is still clean. *)
let l2_lane_strip t g set = if l2_clean t g set then l2_split t g set else l2_strip t g set

(* A counted reference, on a group image (group counters) or on a lane's
   row of a split set (lane counters). *)
let[@inline] counted_ref tags base assoc line (acc : int array) (mis : int array) i =
  Array.unsafe_set acc i (Array.unsafe_get acc i + 1);
  if Array.unsafe_get tags base = line || way_access tags base assoc line then true
  else begin
    Array.unsafe_set mis i (Array.unsafe_get mis i + 1);
    false
  end

let[@inline] l2_image_ref t g set line =
  counted_ref t.img (l2_image_base t g set) (Array.unsafe_get t.lg.lg_assoc g) line t.g_acc t.g_mis g

(* Lanes [lo, hi) each add [pen.(k)] cycles. Penalties travel as a float
   array and an index: float arguments to a call that is not inlined would
   be boxed. *)
let charge (cyc : float array) lo hi (pen : float array) k =
  let c = Array.unsafe_get pen k in
  for j = lo to hi - 1 do
    Array.unsafe_set cyc j (Array.unsafe_get cyc j +. c)
  done

(* [l2_ref_group] on a split set: each lane references its own row. *)
let l2_ref_split t (cyc : float array) (pen : float array) g set line =
  let lo = Array.unsafe_get t.lg.lg_lo g and hi = Array.unsafe_get t.lg.lg_lo (g + 1) in
  let strip = l2_strip t g set and assoc = Array.unsafe_get t.lg.lg_assoc g in
  for j = lo to hi - 1 do
    let k = if counted_ref strip ((j - lo) * assoc) assoc line t.l_acc t.l_mis j then 0 else 1 in
    Array.unsafe_set cyc j (Array.unsafe_get cyc j +. Array.unsafe_get pen k)
  done

(* A shared counted reference: every lane of group [g] references [line]
   at this point, and each adds [pen.(0)] cycles on a hit, [pen.(1)] on a
   miss. Loop-free so that it inlines: a clean set then costs its callers
   no call on a way-0 hit, and a group of one lane (a scalar replay)
   charges its lane directly. *)
let[@inline] l2_ref_group t cyc pen g line =
  let lo = Array.unsafe_get t.lg.lg_lo g and hi = Array.unsafe_get t.lg.lg_lo (g + 1) in
  let set = line land Array.unsafe_get t.lg.lg_mask g in
  if l2_clean t g set then begin
    let k = if l2_image_ref t g set line then 0 else 1 in
    if hi - lo = 1 then Array.unsafe_set cyc lo (Array.unsafe_get cyc lo +. Array.unsafe_get pen k)
    else charge cyc lo hi pen k
  end
  else l2_ref_split t cyc pen g set line

let l2_fill_split t g set line =
  let strip = l2_strip t g set and assoc = Array.unsafe_get t.lg.lg_assoc g in
  for k = 0 to Array.unsafe_get t.lg.lg_lo (g + 1) - Array.unsafe_get t.lg.lg_lo g - 1 do
    if Array.unsafe_get strip (k * assoc) <> line then ignore (way_access strip (k * assoc) assoc line)
  done

(* A shared uncounted fill (a data-side prefetch) of [line]. *)
let[@inline] l2_fill_group t g line =
  let set = line land Array.unsafe_get t.lg.lg_mask g in
  if l2_clean t g set then begin
    let base = l2_image_base t g set in
    if Array.unsafe_get t.img base <> line then
      ignore (way_access t.img base (Array.unsafe_get t.lg.lg_assoc g) line)
  end
  else l2_fill_split t g set line

(* A lane-specific counted reference by lane [j] of group [g]. *)
let l2_ref_lane t g j line =
  let set = line land Array.unsafe_get t.lg.lg_mask g in
  let lo = Array.unsafe_get t.lg.lg_lo g in
  if Array.unsafe_get t.lg.lg_lo (g + 1) - lo = 1 then l2_image_ref t g set line
  else begin
    let assoc = Array.unsafe_get t.lg.lg_assoc g in
    counted_ref (l2_lane_strip t g set) ((j - lo) * assoc) assoc line t.l_acc t.l_mis j
  end

(* Lane [j]'s uncounted presence check (the wrong-path fetch probe). *)
let[@inline] l2_probe t g j line =
  let set = line land Array.unsafe_get t.lg.lg_mask g in
  let assoc = Array.unsafe_get t.lg.lg_assoc g in
  if l2_clean t g set then lane_find_way t.img (l2_image_base t g set) assoc line >= 0
  else
    lane_find_way (l2_strip t g set) ((j - Array.unsafe_get t.lg.lg_lo g) * assoc) assoc line >= 0

(* The L2 references of one fetch line's L1I misses, issued after the
   line's lane loop (a lane makes at most one per line, so its cycle
   additions keep their order). [missed.(0 .. m-1)] are the missing lanes,
   ascending. A group whose every lane missed makes one shared reference;
   the missing lanes of any other group each make a lane-specific one. *)
let l2_fetch_misses t cyc pen (missed : int array) m line =
  let lg = t.lg in
  let k = ref 0 in
  while !k < m do
    let g = Array.unsafe_get lg.lg_of_lane (Array.unsafe_get missed !k) in
    let lo = Array.unsafe_get lg.lg_lo g and hi = Array.unsafe_get lg.lg_lo (g + 1) in
    let e = ref (!k + 1) in
    while !e < m && Array.unsafe_get missed !e < hi do incr e done;
    if !e - !k = hi - lo then l2_ref_group t cyc pen g line
    else begin
      let strip = l2_lane_strip t g (line land Array.unsafe_get lg.lg_mask g) in
      let assoc = Array.unsafe_get lg.lg_assoc g in
      for q = !k to !e - 1 do
        let j = Array.unsafe_get missed q in
        let hit = counted_ref strip ((j - lo) * assoc) assoc line t.l_acc t.l_mis j in
        Array.unsafe_set cyc j (Array.unsafe_get cyc j +. Array.unsafe_get pen (if hit then 0 else 1))
      done
    end;
    k := !e
  done

let walk_pred_lanes ~warmup_blocks plan ds (batch : pred_lanes)
    (placement : Pi_layout.Placement.t) =
  let config = plan.plan_config in
  let nl = batch.batch_n in
  let code = placement.Pi_layout.Placement.code in
  let indirect_predictor = config.make_indirect () in
  let trace_cache = Option.map Trace_cache.create config.trace_cache in
  let block_addr = code.Pi_layout.Code_layout.block_addr in
  let block_bytes = code.Pi_layout.Code_layout.block_bytes in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let ibr_pc = code.Pi_layout.Code_layout.ibr_pc in
  let l1i_shift = log2_exact config.l1i.Cache.line_bytes in
  let l1i_sets = Cache.geometry_sets config.l1i in
  let l1i_set_mask = l1i_sets - 1 in
  let l1i_assoc = config.l1i.Cache.assoc in
  let l2_shift = log2_exact config.l2.Cache.line_bytes in
  (* Per-lane L1I images, set-major ([set][lane][way]): the lane loop of a
     single fetch walks [nl * assoc] adjacent words. Every lane has the
     machine's L2, so the batch is one L2 group. All of it lives in the
     domain's pooled scratch, borrowed for this pass. *)
  let l1i_words = l1i_sets * nl * l1i_assoc in
  let tab_len = Bytes.length batch.tab_init in
  let lg = l2_groups_of (Array.make nl config.l2) in
  let scratch =
    borrow_scratch ~tab_len ~l1i_words ~l1i_sets ~lane_mru_words:(l1i_sets * nl)
      ~l2_words:lg.lg_img_words ~split_slots:lg.lg_flag_words
  in
  let l2 = l2_pass lg scratch in
  let l1i_tags = scratch.bs_l1i in
  (* MRU summary of the L1I images. The committed fetch stream is
     lane-invariant, so lanes' way-0 tags for a set agree until a
     wrong-path touch diverges them: [set_mru.(s)] holds the common way-0
     line of a still-uniform set (every fetch of that line is a whole-batch
     fast-path hit, no per-lane work at all), or [mixed] once any lane
     diverged, after which [lane_mru] carries per-lane way-0 tags. Both are
     accelerators only — [l1i_tags] stays the source of truth. *)
  let mixed = -2 in
  let set_mru = scratch.bs_set_mru in
  let lane_mru = scratch.bs_lane_mru in
  let mru_diverge s j line =
    let m = Array.unsafe_get set_mru s in
    if m <> mixed then begin
      Array.fill lane_mru (s * nl) nl m;
      Array.unsafe_set set_mru s mixed
    end;
    Array.unsafe_set lane_mru ((s * nl) + j) line
  in
  let l1i_line_mask = lnot (config.l1i.Cache.line_bytes - 1) in
  let pen = config.penalties in
  let fetch_pen = [| pen.l1i_miss; pen.l2_miss *. 0.7 |] in
  let data_pen = [| 0.0; 0.0 |] in
  let l1d_miss_penalty = pen.l1d_miss in
  let l2_miss_penalty = pen.l2_miss in
  let mispredict_penalty = pen.mispredict in
  let btb_miss_penalty = pen.btb_miss in
  let seq = plan.plan_trace.Trace.block_seq in
  let block_cost = plan.block_cost in
  let block_kind = plan.block_kind and block_site = plan.block_site in
  let block_taken = plan.block_taken and block_alt = plan.block_alt in
  let block_slot = plan.block_slot and slot_factor = plan.slot_factor in
  let ops = ds.ds_ops and peek = ds.ds_peek in
  (* Lane predictor state: one byte image for every counter table plus the
     shared global history register. *)
  let tab = scratch.bs_tab in
  Bytes.blit batch.tab_init 0 tab 0 tab_len;
  let off1 = batch.off1 and mask1 = batch.mask1 in
  let off2 = batch.off2 and mask2 = batch.mask2 in
  let off3 = batch.off3 and mask3 = batch.mask3 in
  let hmask = batch.hmask and amask = batch.amask in
  let hbits = batch.hbits and gimask = batch.gimask in
  let hist_keep = batch.hist_keep in
  let history = ref 0 in
  let bim_hi = batch.bim_hi and gsh_hi = batch.gsh_hi and gas_hi = batch.gas_hi in
  (* Per-lane accumulators and cache counters, zeroed at the warmup block. *)
  let cyc = Array.make nl 0.0 in
  let cond_mis = Array.make nl 0 in
  let l1i_acc = Array.make nl 0 and l1i_mis = Array.make nl 0 in
  let missed = Array.make nl 0 in
  let wrong_runs = Array.make nl 0 in
  let last_pf = Array.make nl (-1) in
  (* Shared (lane-invariant) counters. *)
  let cond_branches = ref 0 in
  let indirect_branches = ref 0 in
  let indirect_mispredicts = ref 0 in
  let btb_misses = ref 0 in
  (* Committed fetch lines are lane-invariant: one shared access counter;
     [l1i_acc] holds only the lane-specific wrong-path touches. *)
  let fetch_lines = ref 0 in
  let op = ref 0 in
  let wrong_path = config.wrong_path in
  (* Counted L1I reference (the wrong-path touch); the fetch loop inlines
     its own copy to keep the MRU fast path. Touching promotes [line] to
     way 0 of this lane only, so a uniform set diverges here. *)
  let l1i_touch j addr =
    Array.unsafe_set l1i_acc j (Array.unsafe_get l1i_acc j + 1);
    let line = addr lsr l1i_shift in
    let s = line land l1i_set_mask in
    let base = ((s * nl) + j) * l1i_assoc in
    (* Way-0 hit: promote is a no-op and the MRU summary already agrees
       (a uniform set's common line, or this lane's [lane_mru] entry). *)
    if Array.unsafe_get l1i_tags base <> line then begin
      let way = lane_find_way l1i_tags base l1i_assoc line in
      if way >= 0 then lane_promote l1i_tags base way line
      else begin
        Array.unsafe_set l1i_mis j (Array.unsafe_get l1i_mis j + 1);
        lane_promote l1i_tags base (l1i_assoc - 1) line
      end;
      if Array.unsafe_get set_mru s <> line then mru_diverge s j line
    end
  in
  let l1i_probe j addr =
    let line = addr lsr l1i_shift in
    let s = line land l1i_set_mask in
    let m = Array.unsafe_get set_mru s in
    m = line
    || (m = mixed && Array.unsafe_get lane_mru ((s * nl) + j) = line)
    || lane_find_way l1i_tags (((s * nl) + j) * l1i_assoc) l1i_assoc line >= 0
  in
  (* Per-lane wrong-path effects; [cursor] is the first memory event of the
     next block, as in [walk_cache_lanes]. *)
  let wrong_path_effects j alternate_block cursor =
    let alt_line = Array.unsafe_get block_addr alternate_block land l1i_line_mask in
    if (not (l1i_probe j alt_line)) && l2_probe l2 0 j (alt_line lsr l2_shift) then
      l1i_touch j alt_line;
    let r = Array.unsafe_get wrong_runs j + 1 in
    Array.unsafe_set wrong_runs j r;
    if r land 7 = 0 && Array.unsafe_get last_pf j <> cursor && cursor < Array.length peek then begin
      (* The speculative load is this lane's alone. *)
      ignore (l2_ref_lane l2 0 j (Array.unsafe_get peek cursor lsr l2_shift));
      Array.unsafe_set last_pf j cursor
    end
  in
  let n = Array.length seq in
  let warmup = min warmup_blocks (max 0 (n - 1)) in
  (* [ev], [warm_ev]: the memory cursor, as in [walk_cache_lanes]. *)
  let ev = ref 0 and warm_ev = ref 0 in
  for i = 0 to n - 1 do
    if i = warmup then begin
      warm_ev := !ev;
      Array.fill cyc 0 nl 0.0;
      Array.fill cond_mis 0 nl 0;
      indirect_mispredicts := 0;
      btb_misses := 0;
      cond_branches := 0;
      indirect_branches := 0;
      fetch_lines := 0;
      Array.fill l1i_acc 0 nl 0;
      Array.fill l1i_mis 0 nl 0;
      l2_warmup l2
    end;
    let b = Array.unsafe_get seq i in
    let cost = Array.unsafe_get block_cost b in
    for j = 0 to nl - 1 do
      Array.unsafe_set cyc j (Array.unsafe_get cyc j +. cost)
    done;
    let trace_cache_hit =
      match trace_cache with
      | Some tc -> Trace_cache.access tc ~block_id:b
      | None -> false
    in
    if not trace_cache_hit then begin
      let addr = Array.unsafe_get block_addr b in
      let first = addr lsr l1i_shift in
      let last = (addr + Array.unsafe_get block_bytes b - 1) lsr l1i_shift in
      for l = first to last do
        let s = l land l1i_set_mask in
        incr fetch_lines;
        (* Whole-batch MRU fast path: a uniform set whose common way-0 line
           is [l] hits in every lane with no per-lane work at all. *)
        if Array.unsafe_get set_mru s <> l then begin
          let set_base = s * nl * l1i_assoc in
          let m = ref 0 in
          if Array.unsafe_get set_mru s <> mixed then
            (* Uniform set, other way-0 line: every lane takes the slow
               path (its way 0 holds the same non-[l] line) and finishes
               with [l] at way 0, so the set stays uniform. *)
            for j = 0 to nl - 1 do
              let base = set_base + (j * l1i_assoc) in
              let way = lane_find_way l1i_tags base l1i_assoc l in
              if way >= 0 then lane_promote l1i_tags base way l
              else begin
                Array.unsafe_set l1i_mis j (Array.unsafe_get l1i_mis j + 1);
                lane_promote l1i_tags base (l1i_assoc - 1) l;
                Array.unsafe_set missed !m j;
                incr m
              end
            done
          else begin
            let mru_base = s * nl in
            for j = 0 to nl - 1 do
              (* Per-lane MRU fast path, as in [walk_cache_lanes]: promote
                 would be a no-op. *)
              if Array.unsafe_get lane_mru (mru_base + j) <> l then begin
                let base = set_base + (j * l1i_assoc) in
                let way = lane_find_way l1i_tags base l1i_assoc l in
                (if way >= 0 then lane_promote l1i_tags base way l
                 else begin
                   Array.unsafe_set l1i_mis j (Array.unsafe_get l1i_mis j + 1);
                   lane_promote l1i_tags base (l1i_assoc - 1) l;
                   Array.unsafe_set missed !m j;
                   incr m
                 end);
                Array.unsafe_set lane_mru (mru_base + j) l
              end
            done
          end;
          (* Every lane now holds [l] at way 0 (a mixed set healed back to
             uniform, so wrong-path divergence is transient). *)
          Array.unsafe_set set_mru s l;
          if !m > 0 then l2_fetch_misses l2 cyc fetch_pen missed !m ((l lsl l1i_shift) lsr l2_shift)
        end
      done
    end;
    (* The block's events are [!ev, mend); event [e]'s slot is [e + slot_of]. *)
    let slot_of = Array.unsafe_get block_slot b - !ev in
    let mend = Array.unsafe_get block_slot (b + 1) - slot_of in
    ev := mend;
    while Array.unsafe_get ops !op < 2 * mend do
      let code = Array.unsafe_get ops !op in
      let line = Array.unsafe_get ops (!op + 1) lsr l2_shift in
      if code land 1 = 0 then begin
        let factor = Array.unsafe_get slot_factor ((code lsr 1) + slot_of) in
        Array.unsafe_set data_pen 0 (l1d_miss_penalty *. factor);
        Array.unsafe_set data_pen 1 (l2_miss_penalty *. factor);
        l2_ref_group l2 cyc data_pen 0 line
      end
      else l2_fill_group l2 0 line;
      op := !op + 2
    done;
    let kind = if i + 1 < n then Array.unsafe_get block_kind b else 0 in
    if kind <> 0 then
      let next = Array.unsafe_get seq (i + 1) in
      if kind = 1 then begin
        incr cond_branches;
        let taken = Array.unsafe_get block_taken b in
        let taken_int = Bool.to_int (next = taken) in
        let hashed = Array.unsafe_get branch_pc (Array.unsafe_get block_site b) lsr 1 in
        let h_all = !history in
        (* The wrong path is the side not taken (a branchless select). *)
        let alt = taken + ((Array.unsafe_get block_alt b - taken) land -taken_int) in
        (* Per-kind lane loops, each reproducing the matching kernel arm of
           [walk_cache_lanes] decision-for-decision on the lane's packed
           tables. *)
        for j = 0 to bim_hi - 1 do
          let idx = hashed land Array.unsafe_get mask1 j in
          let pos = Array.unsafe_get off1 j + idx in
          let byte = Char.code (Bytes.unsafe_get tab (pos lsr 2)) in
          let sh = (pos land 3) lsl 1 in
          let c = (byte lsr sh) land 3 in
          Bytes.unsafe_set tab (pos lsr 2)
            (Char.unsafe_chr (byte lxor ((c lxor sat2_update c taken_int) lsl sh)));
          if (c lsr 1) land 1 <> taken_int then begin
            (* open-coded [mispredicted], here and in the loops below: a
               closure call per lane-mispredict is measurable at ~1M events
               per pass *)
            Array.unsafe_set cond_mis j (Array.unsafe_get cond_mis j + 1);
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty);
            if wrong_path then wrong_path_effects j alt mend
          end
        done;
        for j = bim_hi to gsh_hi - 1 do
          let h = h_all land Array.unsafe_get hmask j in
          let idx = (hashed lxor h) land Array.unsafe_get mask1 j in
          let pos = Array.unsafe_get off1 j + idx in
          let byte = Char.code (Bytes.unsafe_get tab (pos lsr 2)) in
          let sh = (pos land 3) lsl 1 in
          let c = (byte lsr sh) land 3 in
          Bytes.unsafe_set tab (pos lsr 2)
            (Char.unsafe_chr (byte lxor ((c lxor sat2_update c taken_int) lsl sh)));
          if (c lsr 1) land 1 <> taken_int then begin
            Array.unsafe_set cond_mis j (Array.unsafe_get cond_mis j + 1);
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty);
            if wrong_path then wrong_path_effects j alt mend
          end
        done;
        for j = gsh_hi to gas_hi - 1 do
          let h = h_all land Array.unsafe_get hmask j in
          let idx =
            (((hashed land Array.unsafe_get amask j) lsl Array.unsafe_get hbits j) lor h)
            land Array.unsafe_get mask1 j
          in
          let pos = Array.unsafe_get off1 j + idx in
          let byte = Char.code (Bytes.unsafe_get tab (pos lsr 2)) in
          let sh = (pos land 3) lsl 1 in
          let c = (byte lsr sh) land 3 in
          Bytes.unsafe_set tab (pos lsr 2)
            (Char.unsafe_chr (byte lxor ((c lxor sat2_update c taken_int) lsl sh)));
          if (c lsr 1) land 1 <> taken_int then begin
            Array.unsafe_set cond_mis j (Array.unsafe_get cond_mis j + 1);
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty);
            if wrong_path then wrong_path_effects j alt mend
          end
        done;
        for j = gas_hi to nl - 1 do
          let h = h_all land Array.unsafe_get hmask j in
          let gidx =
            (hashed lxor h) land Array.unsafe_get gimask j land Array.unsafe_get mask1 j
          in
          let gpos = Array.unsafe_get off1 j + gidx in
          let bpos = Array.unsafe_get off2 j + (hashed land Array.unsafe_get mask2 j) in
          let cpos = Array.unsafe_get off3 j + (hashed land Array.unsafe_get mask3 j) in
          let gbyte = Char.code (Bytes.unsafe_get tab (gpos lsr 2)) in
          let gsh = (gpos land 3) lsl 1 in
          let gc = (gbyte lsr gsh) land 3 in
          let bbyte = Char.code (Bytes.unsafe_get tab (bpos lsr 2)) in
          let bsh = (bpos land 3) lsl 1 in
          let bc = (bbyte lsr bsh) land 3 in
          let cbyte = Char.code (Bytes.unsafe_get tab (cpos lsr 2)) in
          let csh = (cpos land 3) lsl 1 in
          let cc = (cbyte lsr csh) land 3 in
          let gp = (gc lsr 1) land 1 in
          let bp = (bc lsr 1) land 1 in
          let sel = -((cc lsr 1) land 1) in
          let p = (gp land sel) lor (bp land lnot sel) in
          Bytes.unsafe_set tab (gpos lsr 2)
            (Char.unsafe_chr (gbyte lxor ((gc lxor sat2_update gc taken_int) lsl gsh)));
          (* 4-counter table padding keeps the three tables' byte ranges
             disjoint, so the [gpos] write cannot touch [bpos]/[cpos]'s
             bytes and the loads above stay valid. *)
          Bytes.unsafe_set tab (bpos lsr 2)
            (Char.unsafe_chr (bbyte lxor ((bc lxor sat2_update bc taken_int) lsl bsh)));
          let nsel = -(gp lxor bp) in
          let cc' = sat2_update cc (1 - (gp lxor taken_int)) in
          let cfin = (cc' land nsel) lor (cc land lnot nsel) in
          Bytes.unsafe_set tab (cpos lsr 2)
            (Char.unsafe_chr (cbyte lxor ((cc lxor cfin) lsl csh)));
          if p <> taken_int then begin
            Array.unsafe_set cond_mis j (Array.unsafe_get cond_mis j + 1);
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty);
            if wrong_path then wrong_path_effects j alt mend
          end
        done;
        history := ((h_all lsl 1) lor taken_int) land hist_keep
      end
      else begin
        incr indirect_branches;
        let target_addr = Array.unsafe_get block_addr next in
        let pc = Array.unsafe_get ibr_pc (Array.unsafe_get block_site b) in
        let hit =
          config.perfect_btb || indirect_predictor.Indirect.on_indirect ~pc ~target:target_addr
        in
        if not hit then begin
          incr indirect_mispredicts;
          incr btb_misses;
          let alt = Array.unsafe_get block_alt b in
          for j = 0 to nl - 1 do
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. btb_miss_penalty);
            if alt >= 0 && wrong_path then wrong_path_effects j alt mend
          done
        end
      end
  done;
  let l1d_accesses, l1d_misses = data_l1d ds ~first:!warm_ev in
  let instructions = retired_from plan ~warmup in
  return_scratch scratch;
  ( Array.init nl (fun j ->
        let l2_accesses, l2_misses = l2_counts l2 j in
        {
          cycles = cyc.(j);
          instructions;
          cond_branches = !cond_branches;
          cond_mispredicts = cond_mis.(j);
          indirect_branches = !indirect_branches;
          indirect_mispredicts = !indirect_mispredicts;
          btb_misses = !btb_misses;
          l1i_accesses = !fetch_lines + l1i_acc.(j);
          l1i_misses = l1i_mis.(j);
          l1d_accesses;
          l1d_misses;
          l2_accesses;
          l2_misses;
        }),
    l2 )

(* The shared-predictor walk: the cache-axis fused pass, and with one lane
   over the machine's own geometries, scalar [replay]. The direction
   predictor is shared (its inputs are the PC/outcome stream, never cache
   state), so branch decisions, mispredict counts, the indirect predictor,
   trace cache and the data side are lane-invariant; one instance of each
   serves every lane. Per lane remain cycles, the L1I and L2 tag state and
   its access/miss counters — exactly the state a lane's own geometry
   perturbs. Even the wrong-path run counter and its dedup cursor are
   shared: mispredicts fire at the same steps in every lane, so the
   every-8th-run gate opens lane-invariantly (only the touched cache state
   differs per lane). Lanes of one L2 geometry are one group of the shared
   L2 layer: data-side references and the every-8th wrong-path load reach
   every lane of a group at the same point, so they are shared; only a
   fetch miss that some of a group's lanes took (their L1Is differ) splits
   a set. A scalar replay is one group of one lane.

   The L1I fast path is a single scalar: the committed fetch stream is
   lane-invariant, so after a full fetch of line [l] every lane holds [l]
   at way 0 of its own set for [l]; [mru] remembers that line and repeats
   of the same line (straight-line code) cost one compare for the whole
   batch. A wrong-path touch that promotes a different line invalidates it
   conservatively. *)
let walk_cache_lanes ~warmup_blocks plan ds (cb : cache_lanes)
    (placement : Pi_layout.Placement.t) =
  let config = plan.plan_config in
  let nl = cb.cb_n in
  if config.l1i.Cache.line_bytes <> cb.cb_i_line || config.l2.Cache.line_bytes <> cb.cb_d_line then
    invalid_arg
      (Printf.sprintf
         "Pipeline.replay_many: cache batch was built for %dB/%dB L1I/L2 lines but the plan's \
          machine has %dB/%dB"
         cb.cb_i_line cb.cb_d_line config.l1i.Cache.line_bytes config.l2.Cache.line_bytes);
  let code = placement.Pi_layout.Placement.code in
  let predictor = config.make_predictor () in
  let indirect_predictor = config.make_indirect () in
  let trace_cache = Option.map Trace_cache.create config.trace_cache in
  let block_addr = code.Pi_layout.Code_layout.block_addr in
  let block_bytes = code.Pi_layout.Code_layout.block_bytes in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let ibr_pc = code.Pi_layout.Code_layout.ibr_pc in
  let i_shift = log2_exact cb.cb_i_line in
  let d_shift = log2_exact cb.cb_d_line in
  let i_off = cb.cb_i_off and i_mask = cb.cb_i_mask and i_assoc = cb.cb_i_assoc in
  let lg = cb.cb_l2 in
  let scratch =
    borrow_scratch ~tab_len:0 ~l1i_words:cb.cb_i_words ~l1i_sets:0 ~lane_mru_words:0
      ~l2_words:lg.lg_img_words ~split_slots:lg.lg_flag_words
  in
  let l1i_img = scratch.bs_l1i in
  let l2 = l2_pass lg scratch in
  let pkernel = predictor.Predictor.kernel in
  let mru = ref (-1) in
  let l1i_line_mask = lnot (cb.cb_i_line - 1) in
  let pen = config.penalties in
  let fetch_pen = [| pen.l1i_miss; pen.l2_miss *. 0.7 |] in
  let data_pen = [| 0.0; 0.0 |] in
  let no_pen = [| 0.0; 0.0 |] in
  let l1d_miss_penalty = pen.l1d_miss in
  let l2_miss_penalty = pen.l2_miss in
  let mispredict_penalty = pen.mispredict in
  let btb_miss_penalty = pen.btb_miss in
  let seq = plan.plan_trace.Trace.block_seq in
  let block_cost = plan.block_cost in
  let block_kind = plan.block_kind and block_site = plan.block_site in
  let block_taken = plan.block_taken and block_alt = plan.block_alt in
  let block_slot = plan.block_slot and slot_factor = plan.slot_factor in
  let ops = ds.ds_ops and peek = ds.ds_peek in
  (* Per-lane accumulators and cache counters, zeroed at the warmup block. *)
  let cyc = Array.make nl 0.0 in
  let l1i_acc = Array.make nl 0 and l1i_mis = Array.make nl 0 in
  let missed = Array.make nl 0 in
  (* Shared (lane-invariant) counters. *)
  let cond_branches = ref 0 in
  let cond_mispredicts = ref 0 in
  let indirect_branches = ref 0 in
  let indirect_mispredicts = ref 0 in
  let btb_misses = ref 0 in
  let fetch_lines = ref 0 in
  let op = ref 0 in
  let wrong_runs = ref 0 in
  let last_pf = ref (-1) in
  let wrong_path = config.wrong_path in
  let groups = lg.lg_n and of_lane = lg.lg_of_lane in
  (* Counted L1I reference (the wrong-path touch). Promoting a line other
     than the scalar MRU may displace it from some lane's way 0, so the
     fast path is conservatively dropped. *)
  let l1i_touch j addr =
    Array.unsafe_set l1i_acc j (Array.unsafe_get l1i_acc j + 1);
    let line = addr lsr i_shift in
    let base = lane_slot i_off i_mask i_assoc j line in
    let assoc = Array.unsafe_get i_assoc j in
    if Array.unsafe_get l1i_img base <> line then begin
      let way = lane_find_way l1i_img base assoc line in
      if way >= 0 then lane_promote l1i_img base way line
      else begin
        Array.unsafe_set l1i_mis j (Array.unsafe_get l1i_mis j + 1);
        lane_promote l1i_img base (assoc - 1) line
      end;
      if line <> !mru then mru := -1
    end
  in
  let l1i_probe j addr =
    let line = addr lsr i_shift in
    let base = lane_slot i_off i_mask i_assoc j line in
    lane_find_way l1i_img base (Array.unsafe_get i_assoc j) line >= 0
  in
  (* Wrong-path effects for one mispredict event, all lanes. The probe and
     touch run per lane on the lane's own images; the run counter and the
     speculative-load dedup cursor advance once — their transitions are
     lane-invariant because every lane mispredicts at the same steps. *)
  let wrong_path_effects alternate_block cursor =
    let alt_line = Array.unsafe_get block_addr alternate_block land l1i_line_mask in
    for j = 0 to nl - 1 do
      if
        (not (l1i_probe j alt_line))
        && l2_probe l2 (Array.unsafe_get of_lane j) j (alt_line lsr d_shift)
      then l1i_touch j alt_line
    done;
    incr wrong_runs;
    if !wrong_runs land 7 = 0 && !last_pf <> cursor && cursor < Array.length peek then begin
      (* A shared load that charges no cycles (adding +0.0 to a
         non-negative total leaves it unchanged). *)
      let line = Array.unsafe_get peek cursor lsr d_shift in
      for g = 0 to groups - 1 do
        l2_ref_group l2 cyc no_pen g line
      done;
      last_pf := cursor
    end
  in
  let n = Array.length seq in
  let warmup = min warmup_blocks (max 0 (n - 1)) in
  (* [ev] is the current block's first memory event; [warm_ev] is [ev] at
     the warmup block, where the L1D count starts. *)
  let ev = ref 0 and warm_ev = ref 0 in
  for i = 0 to n - 1 do
    if i = warmup then begin
      warm_ev := !ev;
      Array.fill cyc 0 nl 0.0;
      cond_mispredicts := 0;
      indirect_mispredicts := 0;
      btb_misses := 0;
      cond_branches := 0;
      indirect_branches := 0;
      fetch_lines := 0;
      Array.fill l1i_acc 0 nl 0;
      Array.fill l1i_mis 0 nl 0;
      l2_warmup l2
    end;
    let b = Array.unsafe_get seq i in
    let cost = Array.unsafe_get block_cost b in
    for j = 0 to nl - 1 do
      Array.unsafe_set cyc j (Array.unsafe_get cyc j +. cost)
    done;
    let trace_cache_hit =
      match trace_cache with
      | Some tc -> Trace_cache.access tc ~block_id:b
      | None -> false
    in
    if not trace_cache_hit then begin
      let addr = Array.unsafe_get block_addr b in
      let first = addr lsr i_shift in
      let last = (addr + Array.unsafe_get block_bytes b - 1) lsr i_shift in
      for l = first to last do
        incr fetch_lines;
        (* Whole-batch MRU fast path: a repeat of the last fetched line hits
           at way 0 in every lane with no per-lane work at all. *)
        if !mru <> l then begin
          let m = ref 0 in
          for j = 0 to nl - 1 do
            let assoc = Array.unsafe_get i_assoc j in
            let base =
              Array.unsafe_get i_off j + ((l land Array.unsafe_get i_mask j) * assoc)
            in
            (* Way-0 hit: promote is a no-op. *)
            if Array.unsafe_get l1i_img base <> l then begin
              let way = lane_find_way l1i_img base assoc l in
              if way >= 0 then lane_promote l1i_img base way l
              else begin
                Array.unsafe_set l1i_mis j (Array.unsafe_get l1i_mis j + 1);
                lane_promote l1i_img base (assoc - 1) l;
                Array.unsafe_set missed !m j;
                incr m
              end
            end
          done;
          if !m > 0 then l2_fetch_misses l2 cyc fetch_pen missed !m ((l lsl i_shift) lsr d_shift);
          (* Every lane now holds [l] at way 0 of its set for [l]. *)
          mru := l
        end
      done
    end;
    (* The block's events are [!ev, mend); event [e]'s slot is [e + slot_of]. *)
    let slot_of = Array.unsafe_get block_slot b - !ev in
    let mend = Array.unsafe_get block_slot (b + 1) - slot_of in
    ev := mend;
    while Array.unsafe_get ops !op < 2 * mend do
      let code = Array.unsafe_get ops !op in
      let line = Array.unsafe_get ops (!op + 1) lsr d_shift in
      if code land 1 = 0 then begin
        let factor = Array.unsafe_get slot_factor ((code lsr 1) + slot_of) in
        Array.unsafe_set data_pen 0 (l1d_miss_penalty *. factor);
        Array.unsafe_set data_pen 1 (l2_miss_penalty *. factor);
        for g = 0 to groups - 1 do
          l2_ref_group l2 cyc data_pen g line
        done
      end
      else
        for g = 0 to groups - 1 do
          l2_fill_group l2 g line
        done;
      op := !op + 2
    done;
    (* The last block raises no terminator event: nothing follows it. *)
    let kind = if i + 1 < n then Array.unsafe_get block_kind b else 0 in
    if kind <> 0 then
      let next = Array.unsafe_get seq (i + 1) in
      if kind = 1 then begin
        incr cond_branches;
        let taken = Array.unsafe_get block_taken b in
        let taken_int = Bool.to_int (next = taken) in
        let pc = Array.unsafe_get branch_pc (Array.unsafe_get block_site b) in
        (* One shared predictor: decisions are geometry-invariant. The
           table-indexed predictors are advanced inline, with branchless
           counter updates, instead of paying a closure call whose
           saturating-counter branches the host CPU cannot predict. Each
           arm reproduces the matching [on_branch] closure
           decision-for-decision on the shared live state (the standing
           kernel-vs-closure invariant). *)
        let correct =
          match pkernel with
          | Some (Predictor.Hybrid_k k) ->
              let hashed = pc lsr 1 in
              let h = !(k.history) in
              let gidx = (hashed lxor h) land k.gas_index_mask land k.gas_mask in
              let bidx = hashed land k.bim_mask in
              let cidx = hashed land k.cho_mask in
              let gc = Char.code (Bytes.unsafe_get k.gas gidx) in
              let bc = Char.code (Bytes.unsafe_get k.bim bidx) in
              let cc = Char.code (Bytes.unsafe_get k.cho cidx) in
              let gp = (gc lsr 1) land 1 in
              let bp = (bc lsr 1) land 1 in
              let sel = -((cc lsr 1) land 1) in
              let p = (gp land sel) lor (bp land lnot sel) in
              Bytes.unsafe_set k.gas gidx (Char.unsafe_chr (sat2_update gc taken_int));
              Bytes.unsafe_set k.bim bidx (Char.unsafe_chr (sat2_update bc taken_int));
              (* Chooser trains toward whichever component was right, and
                 only when they disagree; expressed as an always-write with
                 a disagreement mask so there is no data-dependent branch. *)
              let nsel = -(gp lxor bp) in
              let cc' = sat2_update cc (1 - (gp lxor taken_int)) in
              Bytes.unsafe_set k.cho cidx
                (Char.unsafe_chr ((cc' land nsel) lor (cc land lnot nsel)));
              k.history := ((h lsl 1) lor taken_int) land k.history_mask;
              p = taken_int
          | Some (Predictor.Bimodal_k k) ->
              let idx = (pc lsr 1) land k.mask in
              let c = Char.code (Bytes.unsafe_get k.counters idx) in
              Bytes.unsafe_set k.counters idx (Char.unsafe_chr (sat2_update c taken_int));
              (c lsr 1) land 1 = taken_int
          | Some (Predictor.Gshare_k k) ->
              let h = !(k.history) in
              let idx = ((pc lsr 1) lxor h) land k.mask in
              let c = Char.code (Bytes.unsafe_get k.counters idx) in
              Bytes.unsafe_set k.counters idx (Char.unsafe_chr (sat2_update c taken_int));
              k.history := ((h lsl 1) lor taken_int) land k.history_mask;
              (c lsr 1) land 1 = taken_int
          | Some (Predictor.Gas_k k) ->
              let h = !(k.history) in
              let idx =
                ((((pc lsr 1) land k.addr_mask) lsl k.history_bits) lor h) land k.mask
              in
              let c = Char.code (Bytes.unsafe_get k.counters idx) in
              Bytes.unsafe_set k.counters idx (Char.unsafe_chr (sat2_update c taken_int));
              k.history := ((h lsl 1) lor taken_int) land k.history_mask;
              (c lsr 1) land 1 = taken_int
          | None -> predictor.Predictor.on_branch ~pc ~taken:(taken_int <> 0)
        in
        if not correct then begin
          incr cond_mispredicts;
          for j = 0 to nl - 1 do
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty)
          done;
          if wrong_path then
            wrong_path_effects (if taken_int = 1 then Array.unsafe_get block_alt b else taken) mend
        end
      end
      else begin
        incr indirect_branches;
        let target_addr = Array.unsafe_get block_addr next in
        let pc = Array.unsafe_get ibr_pc (Array.unsafe_get block_site b) in
        let hit =
          config.perfect_btb || indirect_predictor.Indirect.on_indirect ~pc ~target:target_addr
        in
        if not hit then begin
          incr indirect_mispredicts;
          incr btb_misses;
          for j = 0 to nl - 1 do
            Array.unsafe_set cyc j (Array.unsafe_get cyc j +. btb_miss_penalty)
          done;
          let alt = Array.unsafe_get block_alt b in
          if alt >= 0 && wrong_path then wrong_path_effects alt mend
        end
      end
  done;
  let l1d_accesses, l1d_misses = data_l1d ds ~first:!warm_ev in
  let instructions = retired_from plan ~warmup in
  return_scratch scratch;
  ( Array.init nl (fun j ->
        let l2_accesses, l2_misses = l2_counts l2 j in
        {
          cycles = cyc.(j);
          instructions;
          cond_branches = !cond_branches;
          cond_mispredicts = !cond_mispredicts;
          indirect_branches = !indirect_branches;
          indirect_mispredicts = !indirect_mispredicts;
          btb_misses = !btb_misses;
          l1i_accesses = !fetch_lines + l1i_acc.(j);
          l1i_misses = l1i_mis.(j);
          l1d_accesses;
          l1d_misses;
          l2_accesses;
          l2_misses;
        }),
    l2 )

(* Metering belongs to the callers, not the walkers: a scalar replay
   counts as a replay run, a fused pass as a pass of its axis. *)
let replay_many ?(warmup_blocks = 0) ?data_side plan batch placement =
  let nl = batch_lanes batch in
  if nl = 0 then [||]
  else
    Pi_obs.Span.with_ ~name:"replay.fused"
      ~args:
        [
          ("axis", batch_axis batch);
          ("lanes", string_of_int nl);
          ("blocks", string_of_int (plan_blocks plan));
        ]
      (fun () ->
        let ds = data_side_for "Pipeline.replay_many" plan placement data_side in
        let (counts, l2), m =
          match batch with
          | Predictor_lanes b -> (walk_pred_lanes ~warmup_blocks plan ds b placement, pred_metrics)
          | Cache_lanes c -> (walk_cache_lanes ~warmup_blocks plan ds c placement, cache_metrics)
        in
        let shared, lane = l2_ref_paths l2 in
        Pi_obs.Metrics.inc m.m_passes;
        Pi_obs.Metrics.add m.m_lane_blocks (nl * plan_blocks plan);
        Pi_obs.Metrics.set m.g_lanes (float_of_int nl);
        Pi_obs.Metrics.add m.m_l2_shared shared;
        Pi_obs.Metrics.add m.m_l2_lane lane;
        Pi_obs.Metrics.add m.m_l2_splits l2.splits;
        counts)

let replay ?(warmup_blocks = 0) ?data_side plan placement =
  let ds = data_side_for "Pipeline.replay" plan placement data_side in
  let { l1i; l2; name; _ } = plan.plan_config in
  let lane = cache_lanes_of ~l1i ~l2 [| (name, l1i, l2) |] in
  let c = (fst (walk_cache_lanes ~warmup_blocks plan ds lane placement)).(0) in
  Pi_obs.Metrics.inc m_replay_runs;
  Pi_obs.Metrics.add m_replay_blocks (plan_blocks plan);
  Pi_obs.Metrics.add m_branches (c.cond_branches + c.indirect_branches);
  Pi_obs.Metrics.add m_mispredicts (c.cond_mispredicts + c.indirect_mispredicts);
  Pi_obs.Metrics.add m_cache_probes (c.l1i_accesses + c.l1d_accesses + c.l2_accesses);
  c

let run ?warmup_blocks config trace placement =
  replay ?warmup_blocks (compile config trace) placement

let cpi c =
  if c.instructions = 0 then 0.0 else c.cycles /. float_of_int c.instructions

let mispredicts c = c.cond_mispredicts + c.indirect_mispredicts

let per_kilo_instr count c =
  if c.instructions = 0 then 0.0
  else 1000.0 *. float_of_int count /. float_of_int c.instructions

let mpki c = per_kilo_instr (mispredicts c) c
let l1i_mpki c = per_kilo_instr c.l1i_misses c
let l1d_mpki c = per_kilo_instr c.l1d_misses c
let l2_mpki c = per_kilo_instr c.l2_misses c
