(* The golden oracle, kept out of the production libraries: only the tests
   and the bench harness link it. Every faster path ([Pipeline.replay], the
   fused lane batches, the one-pass [Run_limiter.trace]) is trusted because
   it is bit-identical to one of these two references. *)

open Pi_uarch
open Pipeline
module Program = Pi_isa.Program
module Trace = Pi_isa.Trace

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

let two_pass_trace ?(seed = 42) program ~budget_blocks =
  let limits =
    match Pi_layout.Run_limiter.choose ~seed program ~budget_blocks with
    | None -> { Pi_isa.Interp.max_blocks = budget_blocks; stop_proc = None }
    | Some t -> Pi_layout.Run_limiter.limits t
  in
  Pi_isa.Interp.run ~seed ~limits program
