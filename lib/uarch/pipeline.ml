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
(* Predictor groups. A replay simulates one or more direction predictors
   side by side, and every lane sees the decisions of exactly one of them:
   the lanes of a predictor group are a contiguous lane range. A predictor
   sweep ({!batch_of}) gives every lane a group of its own; a cache sweep
   and a scalar replay have one group of all lanes, the machine's own
   predictor.

   Group predictor state is a structure of arrays: every group's
   saturating-counter tables are packed into one byte image, blitted into
   the pass's scratch group by group ([load_tables]) and addressed through
   per-group offset/mask arrays, and groups are sorted by kernel kind so the
   per-branch loops are branch-free dispatches over contiguous ranges:
   bimodal, gshare and GAs are one kernel, a table indexed by
   [((pc land amask) lsl hbits) lxor history] (bimodal: no history;
   gshare: no address mask or shift), and hybrid the other. All
   history-based groups share one global history register: a group's
   history is the shared register masked to its length, which holds
   because every kernel starts at zero history and shifts in the same
   outcome bit. A predictor without a kernel (L-TAGE, perfect, static) is
   driven through its closure, and only as the one group of a pass. *)
type pred_groups = {
  pg_n : int;  (** groups *)
  hyb_lo : int;
      (** groups [0,hyb_lo) have one table (bimodal, gshare, GAs), [hyb_lo,pg_n) are hybrid *)
  tab_src : Bytes.t;  (** fresh counter tables of the pack these groups came from *)
  tab_from : int array;  (** per group: where its tables start in [tab_src] *)
  tab_len : int;  (** bytes of the pass image *)
  kp : int array;
      (** kernel parameters, [kp_words] per group: the main counter table's
          offset and mask (hybrid: the GAs table), the hybrid bimodal and
          chooser tables' (unused otherwise), the history mask (0 for
          historyless groups), the address mask (GAs's, all ones
          otherwise), the address shift (GAs's history bits, 0 otherwise)
          and the hybrid gas_index_mask. One array, not ten: the walk
          keeps one pointer live instead of ten. *)
  hist_keep : int;  (** OR of all history masks: shared-history retention mask *)
}

(* 0 bimodal, 1 gshare, 2 GAs, 3 hybrid; -1 for no kernel, or a history
   register that does not start at zero (all Counter_table predictors
   start there), which the shared-history trick cannot serve. *)
let kernel_kind (p : Predictor.t) =
  match p.Predictor.kernel with
  | Some (Predictor.Bimodal_k _) -> 0
  | Some (Predictor.Gshare_k k) -> if !(k.history) = 0 then 1 else -1
  | Some (Predictor.Gas_k k) -> if !(k.history) = 0 then 2 else -1
  | Some (Predictor.Hybrid_k k) -> if !(k.history) = 0 then 3 else -1
  | None -> -1

(* [kp] slots: off1 mask1 off2 mask2 off3 mask3 hmask amask hbits gimask. *)
let kp_words = 10

let hist_keep kp n =
  let keep = ref 0 in
  for j = 0 to n - 1 do
    keep := !keep lor kp.((j * kp_words) + 6)
  done;
  !keep

(* One group per predictor; [preds] carry kernels and are in kind order. *)
let pack_groups (preds : Predictor.t array) =
  let n = Array.length preds in
  let kp = Array.make (n * kp_words) 0 in
  let set j slot v = kp.((j * kp_words) + slot) <- v in
  let total = ref 0 in
  (* Counters stay one per byte, as in the predictors' own tables: the
     145-config grid is ~3.4 MB. Packed four per byte it fits in ~0.9 MB,
     but then every update is a shift-and-mask read-modify-write, which
     measured slower on the grid as well as for one group. *)
  let blits = ref [] in
  let alloc bytes =
    let o = !total in
    total := o + Bytes.length bytes;
    blits := (o, bytes) :: !blits;
    o
  in
  Array.iteri
    (fun j (p : Predictor.t) ->
      set j 7 (-1);
      match p.Predictor.kernel with
      | Some (Predictor.Bimodal_k k) ->
          set j 0 (alloc k.counters);
          set j 1 k.mask
      | Some (Predictor.Gshare_k k) ->
          set j 0 (alloc k.counters);
          set j 1 k.mask;
          set j 6 k.history_mask
      | Some (Predictor.Gas_k k) ->
          set j 0 (alloc k.counters);
          set j 1 k.mask;
          set j 6 k.history_mask;
          set j 7 k.addr_mask;
          set j 8 k.history_bits
      | Some (Predictor.Hybrid_k k) ->
          set j 0 (alloc k.gas);
          set j 1 k.gas_mask;
          set j 2 (alloc k.bim);
          set j 3 k.bim_mask;
          set j 4 (alloc k.cho);
          set j 5 k.cho_mask;
          set j 6 k.history_mask;
          set j 9 k.gas_index_mask
      | None -> assert false)
    preds;
  let tab_init = Bytes.make !total '\000' in
  List.iter (fun (o, b) -> Bytes.blit b 0 tab_init o (Bytes.length b))
    !blits;
  {
    pg_n = n;
    hyb_lo = Array.fold_left (fun a p -> if kernel_kind p < 3 then a + 1 else a) 0 preds;
    tab_src = tab_init;
    tab_from = Array.init n (fun j -> kp.(j * kp_words));
    tab_len = !total;
    kp;
    hist_keep = hist_keep kp n;
  }

(* Group [g]'s tables: one contiguous slice of the pass image, starting at
   its slot-0 offset (a group's tables are allocated together, in group
   order) and ending where the next group's start. *)
let group_start p g = p.kp.(g * kp_words)
let group_stop p g = if g + 1 < p.pg_n then group_start p (g + 1) else p.tab_len

(* Groups [gs] (ascending) as a pack of their own over [p]'s image: each
   group's slice lands next to the last and its table offsets are rebased
   to where it lands (offsets of tables a group's kind never reads may go
   negative — they are never dereferenced). Nothing is copied until a pass
   loads the slices; no predictor is built. *)
let gather_groups p gs =
  let m = Array.length gs in
  let kp = Array.make (m * kp_words) 0 in
  let at = ref 0 in
  Array.iteri
    (fun j g ->
      Array.blit p.kp (g * kp_words) kp (j * kp_words) kp_words;
      let shift = !at - group_start p g in
      List.iter (fun slot -> kp.((j * kp_words) + slot) <- kp.((j * kp_words) + slot) + shift)
        [ 0; 2; 4 ];
      at := !at + group_stop p g - group_start p g)
    gs;
  {
    pg_n = m;
    hyb_lo = Array.fold_left (fun a g -> if g < p.hyb_lo then a + 1 else a) 0 gs;
    tab_src = p.tab_src;
    tab_from = Array.map (fun g -> p.tab_from.(g)) gs;
    tab_len = !at;
    kp;
    hist_keep = hist_keep kp m;
  }

(* A pass's fresh counter tables: every group's slice of its source image,
   blitted into [tab]. *)
let load_tables p tab =
  for g = 0 to p.pg_n - 1 do
    Bytes.blit p.tab_src p.tab_from.(g) tab (group_start p g) (group_stop p g - group_start p g)
  done

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
   instance of the walk below). Everything a step needs is its block, the
   block after it (which decides a branch's outcome and an indirect
   branch's target) or a property of the static block, so the plan holds
   nothing whose size grows with the trace. Replay output is bit-identical
   to [run_unoptimized]: the same floats are accumulated in the same order
   and the same cache/predictor state transitions happen in the same
   sequence.

   A plan is immutable after [compile] and holds no simulation state
   (predictors and cache images live in a pooled per-domain scratch), so
   one plan can be replayed concurrently from many domains; its one
   mutable slot only caches the immutable data side last built for it. *)

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
(* The replay walk: scalar replay and fused multi-lane sweeps.

   A sweep replays the same plan under the same placement once per machine
   variant, yet the trace walk, the data side, the indirect predictor and
   the trace cache never depend on the variant. So one walk replays a
   whole batch of lanes, and a lane is a triple: the predictor group whose
   decisions it sees, the L1I group and the L2 group whose tag images it
   reads. Each layer keeps one image per group and copies state per lane
   only where lanes diverge:

   - predictor groups ({!pred_groups}): one group of all lanes on the
     cache axis and for scalar replay, one group per lane on the predictor
     axis. Conditional mispredicts, the wrong-path run counter and its
     speculative-load dedup cursor belong to the group;
   - L1I and L2 groups ({!layer}): lanes with equal geometry of that cache
     share one tag image until a reference only some of the group's lanes
     make splits a set (a wrong-path touch after one predictor lane's
     mispredict, or after lanes disagree on the L2 probe; a speculative
     load of one predictor group; a fetch miss only some lanes took);
   - shared by all lanes: the block sequence and its static tables, the
     [data_side], the trace cache, the indirect predictor/BTB and the
     instruction, branch and indirect-mispredict counters.

   The predictor axis is then predictor groups of one and L1I/L2 groups of
   all lanes; the cache axis is one predictor group and L1I/L2 groups by
   geometry; scalar replay is one lane.

   The correctness bar is the repo's standing invariant: each lane's counts
   are bit-identical to a sequential [replay] of that configuration (and so
   to [run_unoptimized]) — the same floats accumulated in the same order,
   the same state transitions in the same sequence. *)

(* The bulk state of a cache layer, kept across passes: the group images,
   one split flag per group set, and the strips of the sets that split
   (one per flag slot, regrown when too short). *)
type layer_scratch = {
  mutable ls_img : int array;
  mutable ls_flags : Bytes.t;
  mutable ls_strips : int array array;
}

(* One scratch per domain serves every pass, whatever its batch or axis: a
   pass borrows it, grows whatever is too small, and returns it. A scratch
   at least as large as a pass needs is as good as an exact one, because
   the pass indexes and resets only prefixes bounded by its own table size
   and cache geometries, and a split copies into its strip before reading
   it. So a 5-lane sub-batch replays inside the memoized 143-lane grid's
   idle scratch instead of allocating its own, and a scalar replay
   allocates no tag arrays. The machine's predictors are pooled too: a
   pass whose machine has the same [make_predictor] closure as the last
   one reuses its packed initial tables (or knows it has no kernel), and
   one whose machine has the same [make_indirect] closure resets the last
   indirect predictor instead of building another. *)
type scratch = {
  mutable tab : Bytes.t;  (** the predictor groups' counter image *)
  s_l1i : layer_scratch;
  s_l2 : layer_scratch;
  mutable pred : ((unit -> Predictor.t) * pred_groups option) option;
  mutable indirect : ((unit -> Indirect.t) * Indirect.t) option;
}

(* The pool holds at most one idle scratch per domain. Taking is an
   atomic exchange, so systhreads sharing a domain (the daemon's workers)
   never share a scratch: a pass that finds the pool empty allocates its
   own, and whichever pass returns last leaves its scratch behind. *)
let scratch_pool : scratch option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let borrow_scratch () =
  match Atomic.exchange (Domain.DLS.get scratch_pool) None with
  | Some s -> s
  | None ->
      let layer () = { ls_img = [||]; ls_flags = Bytes.empty; ls_strips = [||] } in
      { tab = Bytes.empty; s_l1i = layer (); s_l2 = layer (); pred = None; indirect = None }

let return_scratch s = Atomic.set (Domain.DLS.get scratch_pool) (Some s)

let no_groups = pack_groups [||]

(* The machine's own predictor as one group, packed once while the
   scratch keeps serving the same [make_predictor]; with no kernel, a
   fresh predictor to drive through its closure. *)
let machine_groups s (make : unit -> Predictor.t) =
  match s.pred with
  | Some (m, Some pg) when m == make -> (pg, None)
  | Some (m, None) when m == make -> (no_groups, Some (make ()))
  | _ ->
      let p = make () in
      if kernel_kind p >= 0 then begin
        let pg = pack_groups [| p |] in
        s.pred <- Some (make, Some pg);
        (pg, None)
      end
      else begin
        s.pred <- Some (make, None);
        (no_groups, Some p)
      end

let pooled_indirect s (make : unit -> Indirect.t) =
  match s.indirect with
  | Some (m, p) when m == make ->
      p.Indirect.reset ();
      p
  | _ ->
      let p = make () in
      s.indirect <- Some (make, p);
      p

(* A shared cache layer for one pass: L1I or L2. Lanes with one geometry
   of the cache form a group and receive the same reference stream except
   where a lane-specific event intervenes. So a group keeps one tag image
   (sets x assoc) for all its lanes, and a set gets per-lane copies only
   when a lane-specific reference first touches it: the set is then split
   for the rest of the pass, and its ways are copied into a strip laid out
   [row][way], a lane's row being its rank in the group. A group's lanes
   are a member list, not a range: on the cache axis lanes are ordered by
   L2 geometry, so the lanes of one L1I geometry are scattered.

   This is exact by construction. A set no lane-specific reference has
   touched holds the same state in every lane of the group (all lanes
   start empty and applied the same references in the same order), and
   lanes in the same state that apply the same reference end in the same
   state with the same hit or miss. So a reference every lane of the group
   makes at the same point ({i shared}: a committed fetch line, a
   data-side L1D miss or prefetch fill, a wrong-path touch or speculative
   load the whole group makes) costs one lookup on a clean set, counted
   once on the group's counter, and each lane adds its own penalty to its
   own cycles. A lane's count is its own counter (references on split
   sets) plus its group's. A group of one lane never splits: every
   reference it makes is shared, so a scalar replay does one lookup per
   reference. *)
type layer = {
  groups : int;
  g_lo : int array;  (** [groups + 1] bounds: group [g]'s lanes are [members.(g_lo.(g))] on *)
  members : int array;  (** lanes by group, ascending within a group *)
  of_lane : int array;
  row : int array;  (** a lane's rank in its group: its row of a split set's strip *)
  set_mask : int array;  (** per group: sets - 1 *)
  ways : int array;
  img_at : int array;  (** way 0 of set 0 of the group's image in [img] *)
  flag_at : int array;  (** the group's first split flag *)
  img : int array;  (** group images, from the scratch *)
  split : Bytes.t;  (** per flag slot: '\001' once the set split *)
  strips : int array array;  (** per flag slot: the split set's rows *)
  cnt : int array;  (** per group, zero between calls: {!ref_lanes}'s tally *)
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

(* Group lanes of equal geometry, one geometry per lane, and lay the
   groups out in [ls], growing it as needed and resetting the prefix this
   pass uses. *)
let layer_of (geoms : Cache.geometry array) (ls : layer_scratch) =
  let nl = Array.length geoms in
  let of_lane = Array.make nl 0 and distinct = ref [] in
  Array.iteri
    (fun j g ->
      match List.assoc_opt g !distinct with
      | Some k -> of_lane.(j) <- k
      | None ->
          of_lane.(j) <- List.length !distinct;
          distinct := !distinct @ [ (g, of_lane.(j)) ])
    geoms;
  let geom = Array.of_list (List.map fst !distinct) in
  let groups = Array.length geom in
  let g_lo = Array.make (groups + 1) 0 in
  Array.iter (fun g -> g_lo.(g + 1) <- g_lo.(g + 1) + 1) of_lane;
  for g = 1 to groups do
    g_lo.(g) <- g_lo.(g) + g_lo.(g - 1)
  done;
  let members = Array.make nl 0 and row = Array.make nl 0 and next = Array.sub g_lo 0 groups in
  Array.iteri
    (fun j g ->
      members.(next.(g)) <- j;
      row.(j) <- next.(g) - g_lo.(g);
      next.(g) <- next.(g) + 1)
    of_lane;
  let sets g = Cache.geometry_sets geom.(g) in
  let offsets words_of =
    let at = Array.make groups 0 and total = ref 0 in
    for g = 0 to groups - 1 do
      at.(g) <- !total;
      total := !total + words_of g
    done;
    (at, !total)
  in
  let img_at, img_words = offsets (fun g -> sets g * geom.(g).Cache.assoc) in
  let flag_at, flag_words = offsets sets in
  if Array.length ls.ls_img < img_words then ls.ls_img <- Array.make img_words (-1)
  else Array.fill ls.ls_img 0 img_words (-1);
  if Bytes.length ls.ls_flags < flag_words then ls.ls_flags <- Bytes.make flag_words '\000'
  else Bytes.fill ls.ls_flags 0 flag_words '\000';
  let have = Array.length ls.ls_strips in
  if have < flag_words then
    ls.ls_strips <- Array.append ls.ls_strips (Array.make (flag_words - have) [||]);
  let zeros n = Array.make n 0 in
  {
    groups;
    g_lo;
    members;
    of_lane;
    row;
    set_mask = Array.init groups (fun g -> sets g - 1);
    ways = Array.map (fun (g : Cache.geometry) -> g.Cache.assoc) geom;
    img_at;
    flag_at;
    img = ls.ls_img;
    split = ls.ls_flags;
    strips = ls.ls_strips;
    cnt = zeros groups;
    g_acc = zeros groups;
    g_mis = zeros groups;
    l_acc = zeros nl;
    l_mis = zeros nl;
    g_acc0 = zeros groups;
    g_mis0 = zeros groups;
    l_acc0 = zeros nl;
    l_mis0 = zeros nl;
    splits = 0;
  }

let layer_warmup t =
  let snap a a0 = Array.blit a 0 a0 0 (Array.length a) in
  snap t.g_acc t.g_acc0;
  snap t.g_mis t.g_mis0;
  snap t.l_acc t.l_acc0;
  snap t.l_mis t.l_mis0

(* Lane [j]'s counted (references, misses) since the warmup boundary. *)
let layer_counts t j =
  let g = t.of_lane.(j) in
  ( t.l_acc.(j) - t.l_acc0.(j) + t.g_acc.(g) - t.g_acc0.(g),
    t.l_mis.(j) - t.l_mis0.(j) + t.g_mis.(g) - t.g_mis0.(g) )

(* Lane references served by group images and by split sets, whole pass. *)
let layer_ref_paths t =
  let shared = ref 0 in
  for g = 0 to t.groups - 1 do
    shared := !shared + (t.g_acc.(g) * (t.g_lo.(g + 1) - t.g_lo.(g)))
  done;
  (!shared, Array.fold_left ( + ) 0 t.l_acc)

(* [find_way]/[promote] over a flat tag image; identical scans to
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

let[@inline] group_size t g = Array.unsafe_get t.g_lo (g + 1) - Array.unsafe_get t.g_lo g

(* A set of group [g] is clean (held once, in the image) until a
   lane-specific reference splits it; a group of one lane never splits
   (its flags stay clear). *)
let[@inline] clean t g set = Bytes.unsafe_get t.split (Array.unsafe_get t.flag_at g + set) = '\000'

let[@inline] image_base t g set = Array.unsafe_get t.img_at g + (set * Array.unsafe_get t.ways g)
let[@inline] strip t g set = Array.unsafe_get t.strips (Array.unsafe_get t.flag_at g + set)

(* Split group [g]'s clean [set]: copy its ways into one row per lane. *)
let split_set t g set =
  let assoc = t.ways.(g) and lanes = group_size t g in
  let slot = t.flag_at.(g) + set in
  let strip =
    if Array.length t.strips.(slot) >= lanes * assoc then t.strips.(slot)
    else begin
      let s = Array.make (lanes * assoc) 0 in
      t.strips.(slot) <- s;
      s
    end
  in
  let src = image_base t g set in
  (* Typed stores: [Array.blit] would run the write barrier per word. *)
  for k = 0 to lanes - 1 do
    for w = 0 to assoc - 1 do
      Array.unsafe_set strip ((k * assoc) + w) (Array.unsafe_get t.img (src + w))
    done
  done;
  Bytes.set t.split slot '\001';
  t.splits <- t.splits + 1;
  strip

(* A counted reference, on a group image (group counters) or on a lane's
   row of a split set (lane counters). *)
let[@inline] counted_ref tags base assoc line (acc : int array) (mis : int array) i =
  Array.unsafe_set acc i (Array.unsafe_get acc i + 1);
  if Array.unsafe_get tags base = line || way_access tags base assoc line then true
  else begin
    Array.unsafe_set mis i (Array.unsafe_get mis i + 1);
    false
  end

let[@inline] image_ref t g set line =
  counted_ref t.img (image_base t g set) (Array.unsafe_get t.ways g) line t.g_acc t.g_mis g

(* Every lane of group [g] adds [pen.(k)] cycles. Penalties travel as a
   float array and an index: float arguments to a call that is not inlined
   would be boxed. *)
let charge t (cyc : float array) (pen : float array) g k =
  let c = Array.unsafe_get pen k in
  for q = Array.unsafe_get t.g_lo g to Array.unsafe_get t.g_lo (g + 1) - 1 do
    let j = Array.unsafe_get t.members q in
    Array.unsafe_set cyc j (Array.unsafe_get cyc j +. c)
  done

(* [ref_group] on a split set: each lane references its own row. *)
let ref_split t (cyc : float array) (pen : float array) g set line =
  let lo = Array.unsafe_get t.g_lo g in
  let strip = strip t g set and assoc = Array.unsafe_get t.ways g in
  for q = lo to Array.unsafe_get t.g_lo (g + 1) - 1 do
    let j = Array.unsafe_get t.members q in
    let k = if counted_ref strip ((q - lo) * assoc) assoc line t.l_acc t.l_mis j then 0 else 1 in
    Array.unsafe_set cyc j (Array.unsafe_get cyc j +. Array.unsafe_get pen k)
  done

(* A shared counted reference: every lane of group [g] references [line]
   at this point, and each adds [pen.(0)] cycles on a hit, [pen.(1)] on a
   miss. Loop-free so that it inlines: a clean set then costs its callers
   no call on a way-0 hit, and a group of one lane (a scalar replay)
   charges its lane directly. *)
let[@inline] ref_group t cyc pen g line =
  let set = line land Array.unsafe_get t.set_mask g in
  if clean t g set then begin
    let k = if image_ref t g set line then 0 else 1 in
    if group_size t g = 1 then begin
      let j = Array.unsafe_get t.members (Array.unsafe_get t.g_lo g) in
      Array.unsafe_set cyc j (Array.unsafe_get cyc j +. Array.unsafe_get pen k)
    end
    else charge t cyc pen g k
  end
  else ref_split t cyc pen g set line

let fill_split t g set line =
  let strip = strip t g set and assoc = Array.unsafe_get t.ways g in
  for k = 0 to group_size t g - 1 do
    if Array.unsafe_get strip (k * assoc) <> line then
      ignore (way_access strip (k * assoc) assoc line)
  done

(* A shared uncounted fill (a data-side prefetch) of [line]. *)
let[@inline] fill_group t g line =
  let set = line land Array.unsafe_get t.set_mask g in
  if clean t g set then begin
    let base = image_base t g set in
    if Array.unsafe_get t.img base <> line then
      ignore (way_access t.img base (Array.unsafe_get t.ways g) line)
  end
  else fill_split t g set line

(* [lookup_group] on a split set. *)
let lookup_split t g set line (missed : int array) m =
  let lo = Array.unsafe_get t.g_lo g in
  let strip = strip t g set and assoc = Array.unsafe_get t.ways g in
  let m = ref m in
  for q = lo to Array.unsafe_get t.g_lo (g + 1) - 1 do
    let j = Array.unsafe_get t.members q in
    if not (counted_ref strip ((q - lo) * assoc) assoc line t.l_acc t.l_mis j) then begin
      Array.unsafe_set missed !m j;
      incr m
    end
  done;
  !m

let append_members t g (missed : int array) m =
  let lo = Array.unsafe_get t.g_lo g in
  for q = lo to Array.unsafe_get t.g_lo (g + 1) - 1 do
    Array.unsafe_set missed (m + q - lo) (Array.unsafe_get t.members q)
  done;
  m + group_size t g

(* A shared counted reference that charges nothing here: the lanes of
   group [g] that missed are appended to [missed.(m ..)], and the new
   count of [missed] returned. *)
let[@inline] lookup_group t g line missed m =
  let set = line land Array.unsafe_get t.set_mask g in
  if clean t g set then if image_ref t g set line then m else append_members t g missed m
  else lookup_split t g set line missed m

(* Lane [j]'s uncounted presence check. *)
let[@inline] probe t j line =
  let g = Array.unsafe_get t.of_lane j in
  let set = line land Array.unsafe_get t.set_mask g in
  let assoc = Array.unsafe_get t.ways g in
  if clean t g set then lane_find_way t.img (image_base t g set) assoc line >= 0
  else lane_find_way (strip t g set) (Array.unsafe_get t.row j * assoc) assoc line >= 0

(* Lane [j]'s own counted reference, on its row of the set, which splits
   first if still clean; [j]'s group has more than one lane. *)
let lane_ref t (cyc : float array) (pen : float array) g j line =
  let set = line land Array.unsafe_get t.set_mask g in
  let assoc = Array.unsafe_get t.ways g in
  let strip = if clean t g set then split_set t g set else strip t g set in
  let hit = counted_ref strip (Array.unsafe_get t.row j * assoc) assoc line t.l_acc t.l_mis j in
  Array.unsafe_set cyc j (Array.unsafe_get cyc j +. Array.unsafe_get pen (if hit then 0 else 1))

(* The lanes [lanes.(0 .. m-1)] (distinct) each reference [line] at this
   point and add [pen.(0)] cycles on a hit, [pen.(1)] on a miss; a lane
   makes one reference, so its cycle additions keep their order. A group
   whose every lane is listed makes one shared reference; the listed lanes
   of any other group each make a lane-specific one. *)
let ref_lanes t cyc pen (lanes : int array) m line =
  let cnt = t.cnt and of_lane = t.of_lane in
  for q = 0 to m - 1 do
    let g = Array.unsafe_get of_lane (Array.unsafe_get lanes q) in
    Array.unsafe_set cnt g (Array.unsafe_get cnt g + 1)
  done;
  for q = 0 to m - 1 do
    let j = Array.unsafe_get lanes q in
    let g = Array.unsafe_get of_lane j in
    let c = Array.unsafe_get cnt g in
    if c = group_size t g then begin
      ref_group t cyc pen g line;
      (* Done for the whole group: its other lanes skip. *)
      Array.unsafe_set cnt g (-1)
    end
    else if c > 0 then lane_ref t cyc pen g j line
  done;
  for q = 0 to m - 1 do
    Array.unsafe_set cnt (Array.unsafe_get of_lane (Array.unsafe_get lanes q)) 0
  done

(* A fused batch: [lanes] lanes varying along one axis. Predictor lanes
   ({!batch_of}) carry their predictor groups, one per lane, and take
   their caches from the plan's machine; cache lanes ({!cache_batch_of})
   carry an (L1I, L2) geometry pair each and take the plan machine's
   predictor as one group. Lane metadata is immutable; a pass builds its
   cache layers from the geometries. *)
type batch = {
  lanes : int;
  names : string array;  (** internal (kind- or L2-geometry-sorted) order *)
  src : int array;  (** internal lane -> index into the caller's config array *)
  fallback : int array;  (** caller indices with no kernel: per-config path *)
  preds : pred_groups option;
  geoms : (Cache.geometry * Cache.geometry) array option;
}

let batch_lanes b = b.lanes
let batch_names b = b.names
let batch_src b = b.src
let batch_fallback b = b.fallback
let batch_axis b = if Option.is_some b.preds then "predictor" else "cache"

let batch_table_bytes b =
  match (b.preds, b.geoms) with
  | Some p, _ -> p.tab_len
  | None, Some geoms ->
      let words f =
        List.fold_left
          (fun a (g : Cache.geometry) -> a + (Cache.geometry_sets g * g.Cache.assoc))
          0
          (List.sort_uniq compare (Array.to_list (Array.map f geoms)))
      in
      8 * (words fst + words snd)
  | None, None -> 0

let batch_of (configs : (string * (unit -> Predictor.t)) array) =
  let preds = Array.map (fun (_, make) -> make ()) configs in
  let kinds = Array.map kernel_kind preds in
  let indices_of k =
    List.filter (fun i -> kinds.(i) = k) (List.init (Array.length configs) Fun.id)
  in
  let order = Array.of_list (List.concat_map indices_of [ 0; 1; 2; 3 ]) in
  {
    lanes = Array.length order;
    names = Array.map (fun i -> fst configs.(i)) order;
    src = order;
    fallback = Array.of_list (indices_of (-1));
    preds = Some (pack_groups (Array.map (fun i -> preds.(i)) order));
    geoms = None;
  }

(* Pack cache-geometry variants into lanes. Validation is eager and loud:
   every geometry must construct (power-of-two line and set count — the
   checks {!Cache.create} performs), share the seed's line sizes (the pass
   shares one line decomposition of each fetch and data address across all
   lanes), and be distinct as an (l1i, l2) pair — a duplicate pair would
   silently burn a lane re-measuring the same machine, so it is rejected by
   name rather than asserted. *)
let cache_batch_of ~(l1i : Cache.geometry) ~(l2 : Cache.geometry)
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
  {
    lanes = n;
    names = Array.map (fun i -> let name, _, _ = configs.(i) in name) src;
    src;
    fallback = [||];
    preds = None;
    geoms = Some (Array.map (fun i -> let _, gi, gd = configs.(i) in (gi, gd)) src);
  }

(* Lanes [ls] (ascending internal positions) of [b] as a batch of their
   own, with fallback set [fallback]; a predictor lane is its own group. *)
let pick b ls fallback =
  let sub a = Array.map (Array.get a) ls in
  {
    lanes = Array.length ls;
    names = sub b.names;
    src = sub b.src;
    fallback;
    preds = Option.map (fun p -> gather_groups p ls) b.preds;
    geoms = Option.map sub b.geoms;
  }

(* The lanes and fallbacks of [b] whose caller indices are in [idxs], in
   [b]'s internal order and keeping [b]'s caller indices; selecting all of
   them is [b] itself. *)
let batch_select b idxs =
  let wanted i = Array.mem i idxs in
  let ls = Array.of_seq (Seq.filter (fun l -> wanted b.src.(l)) (Seq.init b.lanes Fun.id)) in
  let fallback = Array.of_seq (Seq.filter wanted (Array.to_seq b.fallback)) in
  if Array.length ls = b.lanes && Array.length fallback = Array.length b.fallback then b
  else pick b ls fallback

(* Split a batch into [shards] contiguous sub-batches of near-equal lane
   count; the 1-shard "split" is the batch itself. A shard boundary inside
   a cache group leaves each shard its own part of the group (a pass
   groups its own lanes). Sub-batches carry no fallback lanes: the
   fallback set belongs to the whole batch, not to any shard. *)
let batch_shard b ~shards =
  let nl = b.lanes in
  let k = if nl = 0 then 1 else max 1 (min shards nl) in
  if k = 1 then [| b |]
  else
    Array.init k (fun s ->
        let lo = s * nl / k and hi = (s + 1) * nl / k in
        pick b (Array.init (hi - lo) (fun j -> lo + j)) [||])

(* The one lane of a scalar replay: the plan machine's predictor and
   caches. *)
let scalar_lane =
  { lanes = 1; names = [| "" |]; src = [| 0 |]; fallback = [||]; preds = None; geoms = None }

let walk ~warmup_blocks plan ds batch (placement : Pi_layout.Placement.t) =
  let config = plan.plan_config in
  let nl = batch.lanes in
  let geoms =
    match batch.geoms with
    | None -> Array.make nl (config.l1i, config.l2)
    | Some geoms ->
        let gi, gd = geoms.(0) in
        if gi.Cache.line_bytes <> config.l1i.Cache.line_bytes
           || gd.Cache.line_bytes <> config.l2.Cache.line_bytes
        then
          invalid_arg
            (Printf.sprintf
               "Pipeline.replay_many: cache batch was built for %dB/%dB L1I/L2 lines but the \
                plan's machine has %dB/%dB"
               gi.Cache.line_bytes gd.Cache.line_bytes config.l1i.Cache.line_bytes
               config.l2.Cache.line_bytes);
        geoms
  in
  let code = placement.Pi_layout.Placement.code in
  let scratch = borrow_scratch () in
  let l1i = layer_of (Array.map fst geoms) scratch.s_l1i in
  let l2 = layer_of (Array.map snd geoms) scratch.s_l2 in
  let indirect_predictor = pooled_indirect scratch config.make_indirect in
  let trace_cache = Option.map Trace_cache.create config.trace_cache in
  (* Predictor groups: one per lane, or one of all lanes ([plo] bounds
     them); a closure predictor only as that one group. *)
  let per_lane = Option.is_some batch.preds in
  let ng = if per_lane then nl else 1 in
  let plo = if per_lane then Array.init (nl + 1) Fun.id else [| 0; nl |] in
  let pg, closure =
    match batch.preds with
    | Some p -> (p, None)
    | None -> machine_groups scratch config.make_predictor
  in
  if Bytes.length scratch.tab < pg.tab_len then scratch.tab <- Bytes.create pg.tab_len;
  let tab = scratch.tab in
  load_tables pg tab;
  let kp = pg.kp in
  let hist_keep = pg.hist_keep in
  let history = ref 0 in
  let hyb_lo = pg.hyb_lo and kern_n = pg.pg_n in
  let block_addr = code.Pi_layout.Code_layout.block_addr in
  let block_bytes = code.Pi_layout.Code_layout.block_bytes in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let ibr_pc = code.Pi_layout.Code_layout.ibr_pc in
  let i_shift = log2_exact config.l1i.Cache.line_bytes in
  let d_shift = log2_exact config.l2.Cache.line_bytes in
  let l1i_line_mask = lnot (config.l1i.Cache.line_bytes - 1) in
  let pen = config.penalties in
  let fetch_pen = [| pen.l1i_miss; pen.l2_miss *. 0.7 |] in
  let data_pen = [| 0.0; 0.0 |] in
  (* Wrong-path references charge nothing (adding +0.0 to a non-negative
     total leaves it unchanged). *)
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
  (* Per-lane cycles, and per predictor group its mispredicts and
     wrong-path state; the mispredicting groups of one branch. *)
  let cyc = Array.make nl 0.0 in
  let cond_mis = Array.make ng 0 in
  let wrong_runs = Array.make ng 0 in
  let last_pf = Array.make ng (-1) in
  let mis = Array.make ng 0 and all_groups = Array.init ng Fun.id in
  (* The lanes of one layer call (fetch misses, touches, loads). *)
  let lanes = Array.make nl 0 in
  (* Shared (lane-invariant) counters. *)
  let cond_branches = ref 0 in
  let indirect_branches = ref 0 in
  let indirect_mispredicts = ref 0 in
  let btb_misses = ref 0 in
  (* The committed fetch stream is lane-invariant, so after a fetch of
     line [l] every lane holds [l] at way 0 of its set for [l]: [mru]
     remembers that line, and a repeat (straight-line code) is one compare
     for the whole batch, counted in [mru_hits] as one shared L1I
     reference per lane. A wrong-path touch of another line clears it. *)
  let mru = ref (-1) and mru_hits = ref 0 and mru_hits0 = ref 0 in
  (* One L1I group (scalar replay, the predictor axis): [lookup_group] on
     group 0 with its geometry hoisted out of the fetch loop. *)
  let one_l1i = l1i.groups = 1 in
  let i_mask = l1i.set_mask.(0) and i_ways = l1i.ways.(0) and i_split = l1i.split in
  let i_img = l1i.img and i_acc = l1i.g_acc and i_mis = l1i.g_mis in
  let op = ref 0 in
  let wrong_path = config.wrong_path in
  (* Wrong-path effects of one mispredict event for the predictor groups
     [groups.(0 .. gm-1)]: each lane probes its own L1I and L2 views and
     touches the alternate line into its L1I if absent there but
     L2-resident; each group advances its run counter and, every 8th run,
     loads the next data line into its lanes' L2. [cursor] is the first
     memory event of the next block. *)
  let wrong_path_effects (groups : int array) gm alternate_block cursor =
    let alt_line = Array.unsafe_get block_addr alternate_block land l1i_line_mask in
    let line = alt_line lsr i_shift and l2_line = alt_line lsr d_shift in
    let m = ref 0 in
    for q = 0 to gm - 1 do
      let p = Array.unsafe_get groups q in
      for j = Array.unsafe_get plo p to Array.unsafe_get plo (p + 1) - 1 do
        if (not (probe l1i j line)) && probe l2 j l2_line then begin
          Array.unsafe_set lanes !m j;
          incr m
        end
      done
    done;
    if !m > 0 then begin
      ref_lanes l1i cyc no_pen lanes !m line;
      if line <> !mru then mru := -1
    end;
    m := 0;
    for q = 0 to gm - 1 do
      let p = Array.unsafe_get groups q in
      let r = Array.unsafe_get wrong_runs p + 1 in
      Array.unsafe_set wrong_runs p r;
      if r land 7 = 0 && Array.unsafe_get last_pf p <> cursor && cursor < Array.length peek then begin
        Array.unsafe_set last_pf p cursor;
        for j = Array.unsafe_get plo p to Array.unsafe_get plo (p + 1) - 1 do
          Array.unsafe_set lanes !m j;
          incr m
        done
      end
    done;
    if !m > 0 then ref_lanes l2 cyc no_pen lanes !m (Array.unsafe_get peek cursor lsr d_shift)
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
      Array.fill cond_mis 0 ng 0;
      indirect_mispredicts := 0;
      btb_misses := 0;
      cond_branches := 0;
      indirect_branches := 0;
      mru_hits0 := !mru_hits;
      layer_warmup l1i;
      layer_warmup l2
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
        if !mru = l then incr mru_hits
        else begin
          let m = ref 0 in
          if one_l1i then begin
            let set = l land i_mask in
            if Bytes.unsafe_get i_split set <> '\000' then m := lookup_split l1i 0 set l lanes 0
            else if not (counted_ref i_img (set * i_ways) i_ways l i_acc i_mis 0) then
              m := append_members l1i 0 lanes 0
          end
          else
            for g = 0 to l1i.groups - 1 do
              m := lookup_group l1i g l lanes !m
            done;
          if !m > 0 then ref_lanes l2 cyc fetch_pen lanes !m ((l lsl i_shift) lsr d_shift);
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
        for g = 0 to l2.groups - 1 do
          ref_group l2 cyc data_pen g line
        done
      end
      else
        for g = 0 to l2.groups - 1 do
          fill_group l2 g line
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
        let hashed = pc lsr 1 in
        let h_all = !history in
        let nm = ref 0 in
        (* Per-kind group loops over the packed tables, each reproducing
           its predictor's [on_branch] decision-for-decision and
           state-for-state (the standing kernel-vs-closure invariant), with
           branchless counter updates: the outcome-dependent branches of a
           closure call are unpredictable to the host CPU. *)
        for p = 0 to hyb_lo - 1 do
          let k = p * kp_words in
          let idx =
            (((hashed land Array.unsafe_get kp (k + 7)) lsl Array.unsafe_get kp (k + 8))
            lxor (h_all land Array.unsafe_get kp (k + 6)))
            land Array.unsafe_get kp (k + 1)
          in
          let pos = Array.unsafe_get kp k + idx in
          let c = Char.code (Bytes.unsafe_get tab pos) in
          Bytes.unsafe_set tab pos (Char.unsafe_chr (sat2_update c taken_int));
          if (c lsr 1) land 1 <> taken_int then begin
            Array.unsafe_set mis !nm p;
            incr nm
          end
        done;
        for p = hyb_lo to kern_n - 1 do
          let k = p * kp_words in
          let h = h_all land Array.unsafe_get kp (k + 6) in
          let gidx =
            (hashed lxor h) land Array.unsafe_get kp (k + 9) land Array.unsafe_get kp (k + 1)
          in
          let gpos = Array.unsafe_get kp k + gidx in
          let bpos = Array.unsafe_get kp (k + 2) + (hashed land Array.unsafe_get kp (k + 3)) in
          let cpos = Array.unsafe_get kp (k + 4) + (hashed land Array.unsafe_get kp (k + 5)) in
          let gc = Char.code (Bytes.unsafe_get tab gpos) in
          let bc = Char.code (Bytes.unsafe_get tab bpos) in
          let cc = Char.code (Bytes.unsafe_get tab cpos) in
          let gp = (gc lsr 1) land 1 in
          let bp = (bc lsr 1) land 1 in
          let sel = -((cc lsr 1) land 1) in
          let pred = (gp land sel) lor (bp land lnot sel) in
          Bytes.unsafe_set tab gpos (Char.unsafe_chr (sat2_update gc taken_int));
          Bytes.unsafe_set tab bpos (Char.unsafe_chr (sat2_update bc taken_int));
          (* The chooser trains toward whichever component was right, and
             only when they disagree: an always-write under a disagreement
             mask. *)
          let nsel = -(gp lxor bp) in
          let cc' = sat2_update cc (1 - (gp lxor taken_int)) in
          Bytes.unsafe_set tab cpos (Char.unsafe_chr ((cc' land nsel) lor (cc land lnot nsel)));
          if pred <> taken_int then begin
            Array.unsafe_set mis !nm p;
            incr nm
          end
        done;
        history := ((h_all lsl 1) lor taken_int) land hist_keep;
        (match closure with
        | Some predictor ->
            if not (predictor.Predictor.on_branch ~pc ~taken:(taken_int <> 0)) then nm := 1
        | None -> ());
        if !nm > 0 then begin
          for q = 0 to !nm - 1 do
            let p = Array.unsafe_get mis q in
            Array.unsafe_set cond_mis p (Array.unsafe_get cond_mis p + 1);
            for j = Array.unsafe_get plo p to Array.unsafe_get plo (p + 1) - 1 do
              Array.unsafe_set cyc j (Array.unsafe_get cyc j +. mispredict_penalty)
            done
          done;
          (* The wrong path is the side not taken. *)
          if wrong_path then
            wrong_path_effects mis !nm (if taken_int = 1 then Array.unsafe_get block_alt b else taken) mend
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
          if alt >= 0 && wrong_path then wrong_path_effects all_groups ng alt mend
        end
      end
  done;
  return_scratch scratch;
  let l1d_accesses, l1d_misses = data_l1d ds ~first:!warm_ev in
  let instructions = retired_from plan ~warmup in
  let counts =
    Array.init nl (fun j ->
        let l1i_accesses, l1i_misses = layer_counts l1i j in
        let l2_accesses, l2_misses = layer_counts l2 j in
        {
          cycles = cyc.(j);
          instructions;
          cond_branches = !cond_branches;
          cond_mispredicts = cond_mis.(if per_lane then j else 0);
          indirect_branches = !indirect_branches;
          indirect_mispredicts = !indirect_mispredicts;
          btb_misses = !btb_misses;
          l1i_accesses = l1i_accesses + !mru_hits - !mru_hits0;
          l1i_misses;
          l1d_accesses;
          l1d_misses;
          l2_accesses;
          l2_misses;
        })
  in
  (counts, l1i, l2, !mru_hits)

(* Fused-pass instruments carry the sweep axis as a label: one series per
   axis under the same metric names. Each cache layer has its reference
   paths and split sets. *)
type layer_metrics = {
  m_shared : Pi_obs.Metrics.counter;
  m_lane : Pi_obs.Metrics.counter;
  m_splits : Pi_obs.Metrics.counter;
}

type fused_metrics = {
  m_passes : Pi_obs.Metrics.counter;
  m_lane_blocks : Pi_obs.Metrics.counter;
  g_lanes : Pi_obs.Metrics.gauge;
  m_l1i : layer_metrics;
  m_l2 : layer_metrics;
}

let fused_metrics axis =
  let labels = [ ("axis", axis) ] in
  let layer cache =
    let name = String.uppercase_ascii cache in
    let refs path =
      Pi_obs.Metrics.counter
        ~help:(Printf.sprintf "lane %s references of fused passes, by the path that served them" name)
        ~labels:(labels @ [ ("path", path) ])
        (Printf.sprintf "pi_obs_sweep_%s_refs_total" cache)
    in
    {
      m_shared = refs "shared";
      m_lane = refs "lane";
      m_splits =
        Pi_obs.Metrics.counter
          ~help:(Printf.sprintf "%s sets fused passes split into per-lane copies" name)
          ~labels
          (Printf.sprintf "pi_obs_sweep_%s_split_sets_total" cache);
    }
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
    m_l1i = layer "l1i";
    m_l2 = layer "l2";
  }

let pred_metrics = fused_metrics "predictor"
let cache_metrics = fused_metrics "cache"

(* [extra_shared]: lane references served outside the layer, by the whole
   batch at once (L1I repeats of the last fetched line). *)
let meter_layer m t ~extra_shared =
  let shared, lane = layer_ref_paths t in
  Pi_obs.Metrics.add m.m_shared (shared + extra_shared);
  Pi_obs.Metrics.add m.m_lane lane;
  Pi_obs.Metrics.add m.m_splits t.splits

(* Metering belongs to the callers, not the walk: a scalar replay counts
   as a replay run, a fused pass as a pass of its axis. *)
let replay_many ?(warmup_blocks = 0) ?data_side plan batch placement =
  let nl = batch.lanes in
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
        let counts, l1i, l2, mru_hits = walk ~warmup_blocks plan ds batch placement in
        let m = match batch.preds with None -> cache_metrics | Some _ -> pred_metrics in
        Pi_obs.Metrics.inc m.m_passes;
        Pi_obs.Metrics.add m.m_lane_blocks (nl * plan_blocks plan);
        Pi_obs.Metrics.set m.g_lanes (float_of_int nl);
        meter_layer m.m_l1i l1i ~extra_shared:(mru_hits * nl);
        meter_layer m.m_l2 l2 ~extra_shared:0;
        counts)

let replay ?(warmup_blocks = 0) ?data_side plan placement =
  let ds = data_side_for "Pipeline.replay" plan placement data_side in
  let counts, _, _, _ = walk ~warmup_blocks plan ds scalar_lane placement in
  let c = counts.(0) in
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
