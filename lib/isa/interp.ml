module Rng = Pi_stats.Rng

type limits = { max_blocks : int; stop_proc : (int * int) option }

let default_limits = { max_blocks = 2_000_000; stop_proc = None }

exception Stack_overflow_in_program of string

let max_call_depth = 4096

(* Per-static-memory-op dynamic state. *)
type mem_state = {
  mutable position : int;  (** cumulative step count for Sequential *)
  mutable chase_at : int;  (** current node for Chase *)
  mutable chase_perm : int array;  (** lazily built permutation; immutable once built *)
}

let cache_line = 64

let build_chase_perm ~seed ~nodes =
  (* A single cycle visiting every node, so a pointer chase never
     short-circuits into a small loop: Sattolo's algorithm. *)
  let rng = Rng.create seed in
  let a = Array.init nodes (fun i -> i) in
  for i = nodes - 1 downto 1 do
    let j = Rng.int rng i in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  let next = Array.make nodes 0 in
  for i = 0 to nodes - 1 do
    next.(a.(i)) <- a.((i + 1) mod nodes)
  done;
  next

type t = {
  program : Program.t;
  block_instrs : int array;  (** per block: retired instructions, terminator included *)
  block_mems : int array array;  (** per block: its memory-op ids, in order *)
  obj_size : int array;  (** per memory op: the size of its target's objects *)
  obj_count : int array;  (** per memory op: its target's object count *)
  mutable limits : limits;
  block_seq : Int_vec.t;
  mem_events : Int_vec.t;
  mutable pc : int;
  mutable halted : bool;
  mutable instructions : int;
  mutable cond_branches : int;
  mutable taken_branches : int;
  mutable indirect_branches : int;
  mutable calls : int;
  mutable mem_refs : int;
  call_stack : int array;
  mutable stack_depth : int;
  proc_invocations : int array;
  memory_rng : Rng.t;
  branch_state : Behavior.State.t;
  selector_state : Behavior.Selector.State.t;
  mem_states : mem_state array;
}

(* A copy of every piece of mutable state except the two trace vectors,
   which the copy shares. *)
type snapshot = { saved : t; blocks : int; events : int }

let invoke t proc_id =
  t.proc_invocations.(proc_id) <- t.proc_invocations.(proc_id) + 1;
  (match t.limits.stop_proc with
  | Some (p, count) when p = proc_id && t.proc_invocations.(proc_id) >= count -> t.halted <- true
  | Some _ | None -> ());
  t.program.procs.(proc_id).entry

let mem_footprint (program : Program.t) (op : Program.mem_op) =
  match op.space with
  | Program.Global -> (program.globals.(op.target).size, 1)
  | Program.Heap ->
      let s = program.heap_sites.(op.target) in
      (s.obj_size, s.obj_count)

let start ?(seed = 42) ~limits (program : Program.t) =
  let rng = Rng.create seed in
  let behavior_rng = Rng.named_stream rng "behaviors" in
  let selector_rng = Rng.named_stream rng "selectors" in
  let memory_rng = Rng.named_stream rng "memory" in
  let mem_id = function Program.Mem id -> Some id | _ -> None in
  let footprints = Array.map (mem_footprint program) program.mem_ops in
  let t =
    {
      program;
      block_instrs = Array.init (Array.length program.blocks) (Program.block_instr_count program);
      block_mems =
        Array.map
          (fun (b : Program.block) -> Array.of_seq (Seq.filter_map mem_id (Array.to_seq b.instrs)))
          program.blocks;
      obj_size = Array.map fst footprints;
      obj_count = Array.map snd footprints;
      limits;
      block_seq = Int_vec.create ~capacity:65536 ();
      mem_events = Int_vec.create ~capacity:65536 ();
      pc = 0;
      halted = false;
      instructions = 0;
      cond_branches = 0;
      taken_branches = 0;
      indirect_branches = 0;
      calls = 0;
      mem_refs = 0;
      call_stack = Array.make max_call_depth 0;
      stack_depth = 0;
      proc_invocations = Array.make (Array.length program.procs) 0;
      memory_rng;
      branch_state =
        Behavior.State.create ~rng:behavior_rng
          ~resolved_src:
            (Array.map (fun (b : Program.branch_info) -> b.resolved_src) program.branches)
          (Array.map (fun (b : Program.branch_info) -> b.behavior) program.branches);
      selector_state =
        Behavior.Selector.State.create ~rng:selector_rng
          (Array.map (fun (i : Program.ibr_info) -> (i.selector, i.n_targets)) program.ibrs);
      mem_states =
        Array.map
          (fun (_ : Program.mem_op) -> { position = 0; chase_at = 0; chase_perm = [||] })
          program.mem_ops;
    }
  in
  t.pc <- invoke t program.entry_proc;
  t

let emit_mem t mem_id =
  let op = t.program.mem_ops.(mem_id) in
  let state = t.mem_states.(mem_id) in
  let obj_size = t.obj_size.(mem_id) and obj_count = t.obj_count.(mem_id) in
  let obj, offset =
    match op.pattern with
    | Program.Fixed_offset off -> (0, off mod obj_size)
    | Program.Sequential { stride } ->
        let footprint = obj_size * obj_count in
        let byte = state.position * stride mod footprint in
        state.position <- state.position + 1;
        (byte / obj_size, byte mod obj_size)
    | Program.Random_uniform ->
        let obj = if obj_count = 1 then 0 else Rng.int t.memory_rng obj_count in
        let offset = Rng.int t.memory_rng (max 1 (obj_size - 7)) land lnot 7 in
        (obj, offset)
    | Program.Chase { perm_seed } ->
        if op.space = Program.Heap then begin
          if Array.length state.chase_perm = 0 then
            state.chase_perm <- build_chase_perm ~seed:perm_seed ~nodes:obj_count;
          let here = state.chase_at in
          state.chase_at <- state.chase_perm.(here);
          (here, 0)
        end
        else begin
          let nodes = max 1 (obj_size / cache_line) in
          if Array.length state.chase_perm = 0 then
            state.chase_perm <- build_chase_perm ~seed:perm_seed ~nodes;
          let here = state.chase_at in
          state.chase_at <- state.chase_perm.(here);
          (0, here * cache_line)
        end
  in
  t.mem_refs <- t.mem_refs + 1;
  Int_vec.push t.mem_events
    (Trace.pack_mem ~is_store:op.is_store ~space:op.space ~target:op.target ~obj ~offset)

let push_return t return_to =
  if t.stack_depth >= max_call_depth then raise (Stack_overflow_in_program t.program.name);
  t.call_stack.(t.stack_depth) <- return_to;
  t.stack_depth <- t.stack_depth + 1

let advance t ~limits =
  t.limits <- limits;
  while (not t.halted) && Int_vec.length t.block_seq < limits.max_blocks do
    let b = t.program.blocks.(t.pc) in
    Int_vec.push t.block_seq b.block_id;
    t.instructions <- t.instructions + t.block_instrs.(b.block_id);
    let mems = t.block_mems.(b.block_id) in
    for k = 0 to Array.length mems - 1 do
      emit_mem t mems.(k)
    done;
    match b.term with
    | Program.Jump target -> t.pc <- target
    | Program.Branch { branch; taken; not_taken } ->
        t.cond_branches <- t.cond_branches + 1;
        if Behavior.State.next_outcome t.branch_state branch then begin
          t.taken_branches <- t.taken_branches + 1;
          t.pc <- taken
        end
        else t.pc <- not_taken
    | Program.Call { callee; return_to } ->
        t.calls <- t.calls + 1;
        push_return t return_to;
        t.pc <- invoke t callee
    | Program.Indirect_call { ibr; callees; return_to } ->
        t.calls <- t.calls + 1;
        t.indirect_branches <- t.indirect_branches + 1;
        let idx = Behavior.Selector.State.next_target t.selector_state ibr in
        push_return t return_to;
        t.pc <- invoke t callees.(idx)
    | Program.Switch { ibr; targets } ->
        t.indirect_branches <- t.indirect_branches + 1;
        t.pc <- targets.(Behavior.Selector.State.next_target t.selector_state ibr)
    | Program.Return ->
        if t.stack_depth = 0 then t.halted <- true
        else begin
          t.stack_depth <- t.stack_depth - 1;
          t.pc <- t.call_stack.(t.stack_depth)
        end
    | Program.Halt -> t.halted <- true
  done

let blocks_executed t = Int_vec.length t.block_seq
let block t i = Int_vec.get t.block_seq i

(* Chase permutations are immutable once built, so copies share them. *)
let copy t =
  {
    t with
    call_stack = Array.copy t.call_stack;
    proc_invocations = Array.copy t.proc_invocations;
    memory_rng = Rng.copy t.memory_rng;
    branch_state = Behavior.State.copy t.branch_state;
    selector_state = Behavior.Selector.State.copy t.selector_state;
    mem_states = Array.map (fun (s : mem_state) -> { s with position = s.position }) t.mem_states;
  }

let snapshot t =
  { saved = copy t; blocks = Int_vec.length t.block_seq; events = Int_vec.length t.mem_events }

let resume s =
  let t = copy s.saved in
  Int_vec.truncate t.block_seq s.blocks;
  Int_vec.truncate t.mem_events s.events;
  t

let trace t =
  {
    Trace.program = t.program;
    block_seq = Int_vec.to_array t.block_seq;
    mem_events = Int_vec.to_array t.mem_events;
    instructions = t.instructions;
    cond_branches = t.cond_branches;
    taken_branches = t.taken_branches;
    indirect_branches = t.indirect_branches;
    calls = t.calls;
    mem_refs = t.mem_refs;
    proc_invocations = Array.copy t.proc_invocations;
  }

let run ?seed ?(limits = default_limits) program =
  let t = start ?seed ~limits program in
  advance t ~limits;
  trace t
