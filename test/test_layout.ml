(* Tests for pi_layout: linker, reordering, heap layouts, run limiter. *)

module Program = Pi_isa.Program
module B = Pi_isa.Builder
module Behavior = Pi_isa.Behavior
module Code = Pi_layout.Code_layout
module Data = Pi_layout.Data_layout
module Placement = Pi_layout.Placement
module Run_limiter = Pi_layout.Run_limiter
module Trace = Pi_isa.Trace

let sample_program () =
  let b = B.create ~name:"layout-sample" in
  let o1 = B.add_object b "a.o" in
  let o2 = B.add_object b "b.o" in
  let g1 = B.global b ~name:"g1" ~size:1000 in
  let g2 = B.global b ~name:"g2" ~size:512 in
  let site = B.heap_site b ~name:"objs" ~obj_size:48 ~count:20 in
  let p1 =
    B.proc b ~obj:o1 ~name:"p1"
      [ B.work 4; B.load_global g1 (B.seq ~stride:8); B.load_heap site B.rand_access ]
  in
  let p2 = B.proc b ~obj:o1 ~name:"p2" [ B.work 2; B.store_global g2 (B.fixed 16) ] in
  let p3 = B.proc b ~obj:o2 ~name:"p3" [ B.work 6 ] in
  let main =
    B.proc b ~obj:o2 ~name:"main"
      [ B.for_ ~trips:50 [ B.call p1; B.call p2; B.call p3 ] ]
  in
  B.entry b main;
  B.finish b

(* ---------------- Code layout ---------------- *)

let test_natural_layout_ordered () =
  let p = sample_program () in
  let layout = Code.natural p in
  (* In the natural order, each procedure's entry block address increases in
     declaration order within its object. *)
  Alcotest.(check bool) "no overlaps" false (Code.overlaps layout);
  Alcotest.(check bool) "base respected" true (layout.Code.block_addr.(0) >= 0x400000)

let test_layout_reproducible () =
  let p = sample_program () in
  let a = Code.randomized p ~seed:9 in
  let b = Code.randomized p ~seed:9 in
  Alcotest.(check (array int)) "same seed same addresses" a.Code.block_addr b.Code.block_addr

let test_layout_seed_changes_addresses () =
  let p = sample_program () in
  let a = Code.randomized p ~seed:1 in
  let b = Code.randomized p ~seed:2 in
  Alcotest.(check bool) "addresses differ" true (a.Code.block_addr <> b.Code.block_addr)

let test_layout_alignment () =
  let p = sample_program () in
  let layout = Code.randomized p ~seed:3 in
  Array.iter
    (fun (proc : Program.procedure) ->
      let entry_addr = layout.Code.block_addr.(proc.Program.entry) in
      Alcotest.(check int) "procedure 16-byte aligned" 0 (entry_addr mod 16))
    p.Program.procs

let test_layout_block_contiguity () =
  let p = sample_program () in
  let layout = Code.natural p in
  (* Blocks of a procedure are laid out contiguously in order. *)
  Array.iter
    (fun (proc : Program.procedure) ->
      let blocks = proc.Program.blocks in
      for i = 0 to Array.length blocks - 2 do
        let here = blocks.(i) and next = blocks.(i + 1) in
        Alcotest.(check int) "contiguous"
          (layout.Code.block_addr.(here) + layout.Code.block_bytes.(here))
          layout.Code.block_addr.(next)
      done)
    p.Program.procs

let test_branch_pc_inside_block () =
  let p = sample_program () in
  let layout = Code.randomized p ~seed:5 in
  Array.iter
    (fun (br : Program.branch_info) ->
      let owner = br.Program.owner in
      let pc = layout.Code.branch_pc.(br.Program.branch_id) in
      let lo = layout.Code.block_addr.(owner) in
      let hi = lo + layout.Code.block_bytes.(owner) in
      Alcotest.(check bool) "pc within owner block" true (pc >= lo && pc < hi))
    p.Program.branches

let prop_no_overlap_any_seed =
  QCheck.Test.make ~name:"linker never overlaps blocks" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = sample_program () in
      let layout =
        if seed = 0 then Code.natural p else Code.randomized p ~seed
      in
      not (Code.overlaps layout))

let test_order_is_permutation () =
  let p = sample_program () in
  let order = Code.random_order p ~seed:11 in
  let sorted = Array.copy order.Code.object_order in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "object order is a permutation" [| 0; 1 |] sorted

(* ---------------- Data layout ---------------- *)

let test_bump_deterministic () =
  let p = sample_program () in
  let a = Data.bump p and b = Data.bump p in
  Alcotest.(check (array int)) "same globals" a.Data.global_base b.Data.global_base

let test_randomized_heap_varies () =
  let p = sample_program () in
  let a = Data.randomized p ~seed:1 in
  let b = Data.randomized p ~seed:2 in
  Alcotest.(check bool) "heap placements differ" true (a.Data.heap_base <> b.Data.heap_base)

let test_randomized_reproducible () =
  let p = sample_program () in
  let a = Data.randomized p ~seed:7 in
  let b = Data.randomized p ~seed:7 in
  Alcotest.(check bool) "reproducible" true (a.Data.heap_base = b.Data.heap_base)

let prop_data_no_overlap =
  QCheck.Test.make ~name:"data placements never overlap" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = sample_program () in
      Data.no_overlap (Data.randomized p ~seed) && Data.no_overlap (Data.bump p))

let test_address_resolution () =
  let p = sample_program () in
  let d = Data.bump p in
  let e = Trace.pack_mem ~is_store:false ~space:Program.Global ~target:0 ~obj:0 ~offset:24 in
  Alcotest.(check int) "global address" (d.Data.global_base.(0) + 24) (Data.address d e);
  let e2 = Trace.pack_mem ~is_store:true ~space:Program.Heap ~target:0 ~obj:3 ~offset:8 in
  Alcotest.(check int) "heap address" (d.Data.heap_base.(0).(3) + 8) (Data.address d e2)

let test_footprint_positive () =
  let p = sample_program () in
  Alcotest.(check bool) "bump footprint sane" true (Data.footprint_bytes (Data.bump p) > 1500)

(* ---------------- Placement ---------------- *)

let test_placement_seed_zero_natural () =
  let p = sample_program () in
  let natural = Placement.natural p in
  let layout = Code.natural p in
  Alcotest.(check (array int)) "natural code layout"
    layout.Code.block_addr natural.Placement.code.Code.block_addr

let test_placement_batch () =
  let p = sample_program () in
  let batch = Placement.batch p ~seeds:[| 1; 2; 3 |] in
  Alcotest.(check int) "three placements" 3 (List.length batch)

(* ---------------- Run limiter ---------------- *)

let test_limiter_short_program_no_instrumentation () =
  let p = sample_program () in
  (* 50 iterations is far below the budget: no instrumentation needed. *)
  Alcotest.(check bool) "none" true
    (Option.is_none (Run_limiter.choose p ~budget_blocks:1_000_000))

let long_program () =
  let b = B.create ~name:"long" in
  let o = B.add_object b "a.o" in
  let rare = B.proc b ~obj:o ~name:"rare" [ B.work 5 ] in
  let common = B.proc b ~obj:o ~name:"common" [ B.work 2 ] in
  let main =
    B.proc b ~obj:o ~name:"main"
      [
        B.for_ ~trips:1_000_000
          [
            B.call common;
            B.if_
              (Behavior.Periodic { pattern = Behavior.loop_pattern ~trips:16 })
              [ B.work 1 ] [ B.call rare ];
          ];
      ]
  in
  B.entry b main;
  B.finish b

let test_limiter_picks_low_frequency_proc () =
  let p = long_program () in
  match Run_limiter.choose p ~budget_blocks:20_000 with
  | None -> Alcotest.fail "expected instrumentation"
  | Some t ->
      (* rare (proc 0) runs 16x less often than common (proc 1). *)
      Alcotest.(check int) "chose the rare procedure" 0 t.Run_limiter.stop_proc;
      Alcotest.(check bool) "count positive" true (t.Run_limiter.stop_count > 0)

let test_limiter_trace_bounded_and_stable () =
  let p = long_program () in
  let t1 = Run_limiter.trace p ~budget_blocks:20_000 in
  let t2 = Run_limiter.trace p ~budget_blocks:20_000 in
  Alcotest.(check bool) "bounded" true (Trace.blocks_executed t1 <= 40_000);
  Alcotest.(check int) "reproducible length" (Trace.blocks_executed t1)
    (Trace.blocks_executed t2);
  Alcotest.(check int) "same instructions" t1.Trace.instructions t2.Trace.instructions

let test_limiter_near_end_criterion () =
  let p = long_program () in
  match Run_limiter.choose p ~budget_blocks:20_000 with
  | None -> Alcotest.fail "expected instrumentation"
  | Some t ->
      (* Rerunning with the instrumentation should stop near the profile
         point: within 15% of the profiled block count. *)
      let trace = Pi_isa.Interp.run ~limits:(Run_limiter.limits t) p in
      let delta =
        Float.abs
          (float_of_int (Trace.blocks_executed trace)
          -. float_of_int t.Run_limiter.profiled_blocks)
        /. float_of_int t.Run_limiter.profiled_blocks
      in
      Alcotest.(check bool) "stops near the profile point" true (delta < 0.15)

(* The fields of [a] and [b] that differ; [program] is the input itself. *)
let trace_diff (a : Trace.t) (b : Trace.t) =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("block_seq", a.Trace.block_seq = b.Trace.block_seq);
      ("mem_events", a.Trace.mem_events = b.Trace.mem_events);
      ("instructions", a.Trace.instructions = b.Trace.instructions);
      ("cond_branches", a.Trace.cond_branches = b.Trace.cond_branches);
      ("taken_branches", a.Trace.taken_branches = b.Trace.taken_branches);
      ("indirect_branches", a.Trace.indirect_branches = b.Trace.indirect_branches);
      ("calls", a.Trace.calls = b.Trace.calls);
      ("mem_refs", a.Trace.mem_refs = b.Trace.mem_refs);
      ("proc_invocations", a.Trace.proc_invocations = b.Trace.proc_invocations);
    ]

let check_one_pass ?seed ~what p ~budget_blocks =
  Alcotest.(check (list string))
    (Printf.sprintf "%s, budget %d: one pass = two passes" what budget_blocks)
    []
    (trace_diff
       (Run_limiter.trace ?seed p ~budget_blocks)
       (Pi_oracle.two_pass_trace ?seed p ~budget_blocks))

let test_limiter_one_pass_every_bench () =
  List.iter
    (fun (bench : Pi_workloads.Bench.t) ->
      List.iter
        (fun scale ->
          let p = bench.Pi_workloads.Bench.build ~scale in
          let what = Printf.sprintf "%s scale %d" bench.Pi_workloads.Bench.name scale in
          List.iter
            (fun (seed, budget_blocks) -> check_one_pass ~seed ~what p ~budget_blocks)
            [ (1, 220_000); (7, 60_000); (42, 30_000); (3, 1); (5, 2); (9, 11) ])
        [ 1; 2 ])
    (Pi_workloads.Spec.everything ())

(* Every budget from 1 to 400 on [long_program]: among them are budgets
   whose chosen procedure is last entered exactly at the snapshot's
   boundary ([near_end]), where a snapshot taken one block late would miss
   the halting invocation. *)
let test_limiter_one_pass_budget_sweep () =
  let p = long_program () in
  let boundary = ref 0 in
  for budget_blocks = 1 to 400 do
    check_one_pass ~what:"long" p ~budget_blocks;
    match Run_limiter.choose p ~budget_blocks with
    | None -> ()
    | Some t ->
        let profile =
          Pi_isa.Interp.run ~limits:{ Pi_isa.Interp.max_blocks = budget_blocks; stop_proc = None } p
        in
        let entry = p.Program.procs.(t.Run_limiter.stop_proc).Program.entry in
        let last = ref (-1) in
        Array.iteri (fun i b -> if b = entry then last := i) profile.Trace.block_seq;
        if !last = budget_blocks * 9 / 10 then incr boundary
  done;
  Alcotest.(check bool) "some budget puts the last entry at the boundary" true (!boundary > 0)

(* A program that halts after the snapshot point but inside the budget:
   no instrumentation, and the trace is the profile itself. *)
let test_limiter_one_pass_halts_after_snapshot () =
  let p = sample_program () in
  let blocks = Trace.blocks_executed (Pi_isa.Interp.run p) in
  let budget_blocks = blocks + 5 in
  Alcotest.(check bool) "halts past the snapshot point" true
    (blocks > (budget_blocks * 9 / 10) - 1);
  Alcotest.(check bool) "no instrumentation" true
    (Option.is_none (Run_limiter.choose p ~budget_blocks));
  check_one_pass ~what:"sample" p ~budget_blocks

(* [rare]'s entry block is also the target of a [Jump], so the profile
   counts three entries per invocation and the instrumented run overshoots
   the profile: the resumed run must continue past the profile's end, up to
   twice its length. The builder never emits such an edge, so this program
   is written out by hand. *)
let reentry_program () =
  let block block_id proc instrs term = { Program.block_id; proc; instrs; term } in
  let program =
    {
      Program.name = "reentry";
      objects = [| { Program.obj_id = 0; obj_name = "a.o"; procs = [| 0; 1; 2 |] } |];
      procs =
        [|
          { Program.proc_id = 0; proc_name = "main"; entry = 0; blocks = [| 0; 1; 2; 3 |] };
          { Program.proc_id = 1; proc_name = "common"; entry = 4; blocks = [| 4 |] };
          { Program.proc_id = 2; proc_name = "rare"; entry = 5; blocks = [| 5; 6; 7; 8 |] };
        |];
      blocks =
        [|
          block 0 0 [| Program.Plain 1 |] (Program.Jump 1);
          block 1 0 [||] (Program.Call { callee = 1; return_to = 2 });
          block 2 0 [||] (Program.Branch { branch = 0; taken = 1; not_taken = 3 });
          block 3 0 [||] (Program.Call { callee = 2; return_to = 1 });
          block 4 1 [| Program.Plain 2; Program.Mem 0 |] Program.Return;
          block 5 2 [| Program.Plain 3 |] (Program.Jump 6);
          block 6 2 [||] (Program.Branch { branch = 1; taken = 7; not_taken = 8 });
          block 7 2 [| Program.Mem 1 |] (Program.Jump 5);
          block 8 2 [||] Program.Return;
        |];
      branches =
        [|
          {
            Program.branch_id = 0;
            owner = 2;
            behavior = Behavior.Bernoulli { p_taken = 0.9 };
            label = None;
            resolved_src = -1;
          };
          {
            Program.branch_id = 1;
            owner = 6;
            behavior = Behavior.Loop_trip { trips = 3 };
            label = None;
            resolved_src = -1;
          };
        |];
      ibrs = [||];
      mem_ops =
        [|
          { Program.mem_id = 0; space = Program.Global; target = 0; pattern = Program.Random_uniform; is_store = false };
          { Program.mem_id = 1; space = Program.Global; target = 0; pattern = Program.Chase { perm_seed = 5 }; is_store = true };
        |];
      globals = [| { Program.global_id = 0; global_name = "g"; size = 4096 } |];
      heap_sites = [||];
      entry_proc = 0;
    }
  in
  (match Program.validate program with Ok () -> () | Error e -> failwith e);
  program

let test_limiter_one_pass_continues_past_profile () =
  let p = reentry_program () in
  List.iter
    (fun budget_blocks ->
      (match Run_limiter.choose p ~budget_blocks with
      | Some t when t.Run_limiter.stop_proc = 2 -> ()
      | _ -> Alcotest.fail "expected rare to be chosen");
      let trace = Run_limiter.trace p ~budget_blocks in
      Alcotest.(check bool) "ran past the profile" true
        (Trace.blocks_executed trace > budget_blocks);
      check_one_pass ~what:"reentry" p ~budget_blocks)
    [ 100; 1_000; 20_000 ]

(* Ties go to the lowest procedure id: [rare0] and [rare1] run equally
   often and both near the end, and [rare1] is entered last. *)
let test_limiter_tie_lowest_id () =
  let b = B.create ~name:"tie" in
  let o = B.add_object b "a.o" in
  let rare0 = B.proc b ~obj:o ~name:"rare0" [ B.work 5 ] in
  let rare1 = B.proc b ~obj:o ~name:"rare1" [ B.work 5 ] in
  let common = B.proc b ~obj:o ~name:"common" [ B.work 2 ] in
  let main =
    B.proc b ~obj:o ~name:"main"
      [
        B.for_ ~trips:1_000_000
          [
            B.call common;
            B.if_
              (Behavior.Periodic { pattern = Behavior.loop_pattern ~trips:16 })
              [ B.work 1 ]
              [ B.call rare0; B.call rare1 ];
          ];
      ]
  in
  B.entry b main;
  let p = B.finish b in
  match Run_limiter.choose p ~budget_blocks:20_000 with
  | None -> Alcotest.fail "expected instrumentation"
  | Some t -> Alcotest.(check int) "lowest id wins the tie" 0 t.Run_limiter.stop_proc

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    ( "layout.code",
      [
        Alcotest.test_case "natural ordered" `Quick test_natural_layout_ordered;
        Alcotest.test_case "reproducible" `Quick test_layout_reproducible;
        Alcotest.test_case "seed changes addresses" `Quick test_layout_seed_changes_addresses;
        Alcotest.test_case "alignment" `Quick test_layout_alignment;
        Alcotest.test_case "block contiguity" `Quick test_layout_block_contiguity;
        Alcotest.test_case "branch pc placement" `Quick test_branch_pc_inside_block;
        Alcotest.test_case "order is permutation" `Quick test_order_is_permutation;
        qcheck prop_no_overlap_any_seed;
      ] );
    ( "layout.data",
      [
        Alcotest.test_case "bump deterministic" `Quick test_bump_deterministic;
        Alcotest.test_case "randomized varies" `Quick test_randomized_heap_varies;
        Alcotest.test_case "randomized reproducible" `Quick test_randomized_reproducible;
        Alcotest.test_case "address resolution" `Quick test_address_resolution;
        Alcotest.test_case "footprint" `Quick test_footprint_positive;
        qcheck prop_data_no_overlap;
      ] );
    ( "layout.placement",
      [
        Alcotest.test_case "seed zero natural" `Quick test_placement_seed_zero_natural;
        Alcotest.test_case "batch" `Quick test_placement_batch;
      ] );
    ( "layout.run_limiter",
      [
        Alcotest.test_case "short program untouched" `Quick
          test_limiter_short_program_no_instrumentation;
        Alcotest.test_case "picks rare procedure" `Quick test_limiter_picks_low_frequency_proc;
        Alcotest.test_case "bounded and stable" `Quick test_limiter_trace_bounded_and_stable;
        Alcotest.test_case "near-end criterion" `Quick test_limiter_near_end_criterion;
        Alcotest.test_case "ties go to the lowest id" `Quick test_limiter_tie_lowest_id;
        Alcotest.test_case "one pass = two passes, every bench" `Quick
          test_limiter_one_pass_every_bench;
        Alcotest.test_case "one pass = two passes, budgets 1..400" `Quick
          test_limiter_one_pass_budget_sweep;
        Alcotest.test_case "one pass: halt after the snapshot" `Quick
          test_limiter_one_pass_halts_after_snapshot;
        Alcotest.test_case "one pass: run past the profile" `Quick
          test_limiter_one_pass_continues_past_profile;
      ] );
  ]

(* ---------------- ASLR ---------------- *)

let test_aslr_shifts_pages () =
  let p = sample_program () in
  let base = Data.bump p in
  let shifted = Data.bump ~aslr_seed:42 p in
  let delta = shifted.Data.global_base.(0) - base.Data.global_base.(0) in
  Alcotest.(check bool) "shifted" true (delta <> 0 || shifted.Data.heap_base.(0).(0) <> base.Data.heap_base.(0).(0));
  Alcotest.(check int) "page aligned shift" 0 (delta mod 4096)

let test_aslr_reproducible () =
  let p = sample_program () in
  let a = Data.bump ~aslr_seed:9 p and b = Data.bump ~aslr_seed:9 p in
  Alcotest.(check (array int)) "same seed same shift" a.Data.global_base b.Data.global_base;
  let c = Data.bump ~aslr_seed:10 p in
  Alcotest.(check bool) "different seed differs" true (c.Data.global_base <> a.Data.global_base)

let test_placement_aslr_flag () =
  let p = sample_program () in
  let off = Placement.make p ~seed:3 in
  let on = Placement.make ~aslr:true p ~seed:3 in
  Alcotest.(check (array int)) "code layout unaffected"
    off.Placement.code.Code.block_addr on.Placement.code.Code.block_addr;
  Alcotest.(check bool) "data layout shifted" true
    (off.Placement.data.Data.global_base <> on.Placement.data.Data.global_base)

let aslr_cases =
  ( "layout.aslr",
    [
      Alcotest.test_case "page shifts" `Quick test_aslr_shifts_pages;
      Alcotest.test_case "reproducible" `Quick test_aslr_reproducible;
      Alcotest.test_case "placement flag" `Quick test_placement_aslr_flag;
    ] )

let suite = suite @ [ aslr_cases ]
