(* Golden-equivalence tests for the compiled replay path: Replay.run must
   reproduce Pipeline.run_unoptimized field-for-field (bit-identical cycles
   included) over a matrix of benchmarks x seeds x machines x data-layout
   modes, with and without warmup, and for every predictor family that has
   an inline kernel. A data side shared across seeds must equal per-seed
   builds, and one built for another machine or trace must be refused. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay
module Machine = Pi_uarch.Machine
module Placement = Pi_layout.Placement

let check_counts label (a : Pipeline.counts) (b : Pipeline.counts) =
  let ck name got expect = Alcotest.(check int) (label ^ ": " ^ name) expect got in
  Alcotest.(check bool)
    (label ^ ": cycles bit-identical") true
    (a.Pipeline.cycles = b.Pipeline.cycles);
  ck "instructions" b.Pipeline.instructions a.Pipeline.instructions;
  ck "cond_branches" b.Pipeline.cond_branches a.Pipeline.cond_branches;
  ck "cond_mispredicts" b.Pipeline.cond_mispredicts a.Pipeline.cond_mispredicts;
  ck "indirect_branches" b.Pipeline.indirect_branches a.Pipeline.indirect_branches;
  ck "indirect_mispredicts" b.Pipeline.indirect_mispredicts a.Pipeline.indirect_mispredicts;
  ck "btb_misses" b.Pipeline.btb_misses a.Pipeline.btb_misses;
  ck "l1i_accesses" b.Pipeline.l1i_accesses a.Pipeline.l1i_accesses;
  ck "l1i_misses" b.Pipeline.l1i_misses a.Pipeline.l1i_misses;
  ck "l1d_accesses" b.Pipeline.l1d_accesses a.Pipeline.l1d_accesses;
  ck "l1d_misses" b.Pipeline.l1d_misses a.Pipeline.l1d_misses;
  ck "l2_accesses" b.Pipeline.l2_accesses a.Pipeline.l2_accesses;
  ck "l2_misses" b.Pipeline.l2_misses a.Pipeline.l2_misses

let benches = [ "400.perlbench"; "403.gcc"; "429.mcf"; "445.gobmk" ]
let seeds = [ 1; 2; 3 ]

(* The bump heap's data layout is seed-invariant; heap randomization and
   ASLR give every seed its own, so each replay builds its own data side. *)
let data_modes =
  [
    ("bump", fun p ~seed -> Placement.make p ~seed);
    ("heap_random", fun p ~seed -> Placement.make ~heap_random:true p ~seed);
    ("aslr", fun p ~seed -> Placement.make ~aslr:true p ~seed);
  ]

let machines =
  [
    ("xeon_e5440", Machine.xeon_e5440);
    (* The NetBurst-style machine exercises the trace cache; adding the
       data prefetcher also exerces prefetch fills on the replay path. *)
    ("netburst+prefetch", Machine.with_data_prefetcher Machine.netburst_like);
    (* The walk's [wrong_path = false] branch, and [perfect_btb = true]
       (the sweep's "perfect" reference lane replays it). *)
    ("xeon-nowp", Machine.without_wrong_path Machine.xeon_e5440);
    ("xeon+perfect", Machine.with_perfect_prediction Machine.xeon_e5440);
  ]

let traced name =
  let bench = Pi_workloads.Spec.find name in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  (p, Pi_layout.Run_limiter.trace p ~budget_blocks:8_000)

let test_golden_matrix () =
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      List.iter
        (fun (machine_name, config) ->
          let plan = Replay.compile config trace in
          List.iter
            (fun (mode, make) ->
              List.iter
                (fun seed ->
                  let placement = make p ~seed in
                  let label =
                    Printf.sprintf "%s/%s/%s/seed%d" bench_name machine_name mode seed
                  in
                  let legacy = Pipeline.run_unoptimized config trace placement in
                  check_counts label (Replay.run plan placement) legacy)
                seeds)
            data_modes)
        machines)
    benches

let test_golden_with_warmup () =
  let p, trace = traced "400.perlbench" in
  List.iter
    (fun (machine_name, config) ->
      let plan = Replay.compile config trace in
      let placement = Placement.make p ~seed:7 in
      let legacy = Pipeline.run_unoptimized ~warmup_blocks:1500 config trace placement in
      check_counts
        ("warmup/" ^ machine_name)
        (Replay.run ~warmup_blocks:1500 plan placement)
        legacy)
    machines

(* Pipeline.run is documented as compile-then-replay; keep it honest. *)
let test_run_is_replay () =
  let p, trace = traced "429.mcf" in
  let config = Machine.xeon_e5440 in
  let placement = Placement.make p ~seed:11 in
  check_counts "run = compile;replay"
    (Pipeline.run config trace placement)
    (Replay.run (Replay.compile config trace) placement)

(* Every predictor family with an inline kernel (bimodal, gshare, GAs,
   hybrid) plus a kernel-less predictor (perceptron, closure fallback):
   replay must match the closure-driven legacy path on live state. *)
let test_kernel_families () =
  let p, trace = traced "445.gobmk" in
  let families =
    [
      ("bimodal", fun () -> Pi_uarch.Bimodal.create ~entries_log2:12);
      ("gshare", fun () -> Pi_uarch.Gshare.create ~entries_log2:12 ~history_bits:8);
      ("gas", fun () -> Pi_uarch.Gas.create ~entries_log2:12 ~history_bits:6);
      ("hybrid", Pi_uarch.Hybrid.xeon_like);
      ("perceptron (no kernel)", fun () -> Pi_uarch.Perceptron.create ~history_bits:12 ());
    ]
  in
  List.iter
    (fun (name, make_predictor) ->
      let config = { Machine.xeon_e5440 with Pipeline.make_predictor } in
      let plan = Replay.compile config trace in
      List.iter
        (fun seed ->
          let placement = Placement.make p ~seed in
          let label = Printf.sprintf "kernel %s seed%d" name seed in
          check_counts label
            (Replay.run plan placement)
            (Pipeline.run_unoptimized config trace placement))
        [ 2; 5 ])
    families

(* with_config must be equivalent to a fresh compile whether it reuses the
   packed arrays (predictor-only change) or recompiles (cost change). *)
let test_with_config () =
  let p, trace = traced "400.perlbench" in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let placement = Placement.make p ~seed:3 in
  let variants =
    [
      ( "predictor swap (reuses arrays)",
        { base with Pipeline.make_predictor = (fun () -> Pi_uarch.Bimodal.create ~entries_log2:10) } );
      ( "penalty change (recompiles)",
        { base with Pipeline.penalties = { base.Pipeline.penalties with Pipeline.l2_miss = 300.0 } } );
    ]
  in
  List.iter
    (fun (label, config) ->
      check_counts label
        (Replay.run (Replay.with_config plan config) placement)
        (Pipeline.run_unoptimized config trace placement))
    variants

(* One data side built from the shared (bump) data layout, replayed for
   seeds in shuffled order, scalar and fused, must equal replays that build
   a fresh data side from each seed's own placement: the data side is
   read-only, so the order and number of replays sharing it cannot
   matter. *)
let test_shared_data_side () =
  let p, trace = traced "429.mcf" in
  let pred_batch =
    Replay.batch_of
      [|
        ("bimodal", fun () -> Pi_uarch.Bimodal.create ~entries_log2:10);
        ("gshare", fun () -> Pi_uarch.Gshare.create ~entries_log2:12 ~history_bits:8);
        ("hybrid", Pi_uarch.Hybrid.xeon_like);
      |]
  in
  List.iter
    (fun (machine_name, config) ->
      let plan = Replay.compile config trace in
      let data = Option.get (Placement.shared_data p) in
      let data_side = Replay.data_side plan data in
      let l1i = config.Pipeline.l1i and l2 = config.Pipeline.l2 in
      let cache_batch =
        Replay.cache_batch_of ~l1i ~l2
          [|
            ("seed", l1i, l2);
            ("half-l2", l1i, { l2 with Pi_uarch.Cache.size_bytes = l2.Pi_uarch.Cache.size_bytes / 2 });
          |]
      in
      List.iter
        (fun seed ->
          let label = Printf.sprintf "%s seed%d shared data side" machine_name seed in
          let shared = Placement.with_data data ~seed in
          let fresh = Placement.make p ~seed in
          check_counts label
            (Replay.run ~warmup_blocks:700 ~data_side plan shared)
            (Replay.run ~warmup_blocks:700 plan fresh);
          List.iter
            (fun batch ->
              Array.iteri
                (fun j c -> check_counts (Printf.sprintf "%s, fused lane %d" label j) c
                  (Replay.run_many ~warmup_blocks:700 plan batch fresh).(j))
                (Replay.run_many ~warmup_blocks:700 ~data_side plan batch shared))
            [ pred_batch; cache_batch ])
        [ 9; 2; 31; 1; 2; 17 ])
    machines

(* A data side is only valid for the L1D, prefetcher flag and trace it was
   simulated with; [with_config] can change the first two after the build,
   so replays must refuse a mismatch rather than return wrong counts. *)
let test_data_side_mismatch () =
  let p, trace = traced "429.mcf" in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let placement = Placement.make p ~seed:4 in
  let data_side = Replay.data_side plan placement.Placement.data in
  let l1d = base.Pipeline.l1d in
  let raises label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  let batch = Replay.batch_of [| ("bimodal", fun () -> Pi_uarch.Bimodal.create ~entries_log2:10) |] in
  let bigger_l1d =
    { base with Pipeline.l1d = { l1d with Pi_uarch.Cache.size_bytes = 2 * l1d.Pi_uarch.Cache.size_bytes } }
  in
  List.iter
    (fun (label, other) ->
      raises (label ^ ", scalar") (fun () -> Replay.run ~data_side other placement);
      raises (label ^ ", fused") (fun () -> Replay.run_many ~data_side other batch placement))
    [
      ("L1D size", Replay.with_config plan bigger_l1d);
      ( "L1D line",
        Replay.with_config plan
          { base with Pipeline.l1d = { l1d with Pi_uarch.Cache.line_bytes = 2 * l1d.Pi_uarch.Cache.line_bytes } } );
      ("prefetcher flag", Replay.with_config plan (Machine.with_data_prefetcher base));
      ("another trace", Replay.compile base (Pi_layout.Run_limiter.trace p ~budget_blocks:8_000));
    ];
  (* A predictor swap keeps the data side valid. *)
  let swapped =
    { base with Pipeline.make_predictor = (fun () -> Pi_uarch.Bimodal.create ~entries_log2:10) }
  in
  check_counts "predictor swap reuses the data side"
    (Replay.run ~data_side (Replay.with_config plan swapped) placement)
    (Pipeline.run_unoptimized swapped trace placement);
  (* The plan remembers its last data side, and hands it back only for the
     same data layout on a machine it fits. *)
  let data = placement.Placement.data in
  Alcotest.(check bool) "same layout: the remembered data side" true
    (Replay.data_side plan data == data_side);
  let other = Replay.with_config plan bigger_l1d in
  check_counts "other L1D: a data side of its own"
    (Replay.run ~data_side:(Replay.data_side other data) other placement)
    (Pipeline.run_unoptimized bigger_l1d trace placement)

(* Scalar replay is the one-lane walk of a cache batch, but it is metered as a
   replay: the replay counters move by its own counts, while the fused-pass
   instruments and the [replay.fused] span belong to [run_many] alone. *)
let test_replay_metering () =
  let module M = Pi_obs.Metrics in
  let module Span = Pi_obs.Span in
  let p, trace = traced "429.mcf" in
  let plan = Replay.compile Machine.xeon_e5440 trace in
  let placement = Placement.make p ~seed:4 in
  let runs = M.counter "pi_obs_replay_runs_total" in
  let blocks = M.counter "pi_obs_replay_blocks_total" in
  let branches = M.counter "pi_obs_branches_total" in
  let mispredicts = M.counter "pi_obs_mispredicts_total" in
  let probes = M.counter "pi_obs_cache_probes_total" in
  let cache_axis = [ ("axis", "cache") ] in
  let passes = M.counter ~labels:cache_axis "pi_obs_sweep_fused_passes_total" in
  let lanes = M.gauge ~labels:cache_axis "pi_obs_sweep_lanes_per_pass" in
  let all = [ runs; blocks; branches; mispredicts; probes; passes ] in
  let fused_spans f =
    let col = Span.collector () in
    let r = Span.with_collector col f in
    (r, List.length (List.filter (fun e -> e.Span.name = "replay.fused") (Span.collector_events col)))
  in
  M.set lanes 12345.0;
  let before = List.map M.counter_value all in
  let c, spans = fused_spans (fun () -> Replay.run plan placement) in
  let moved = List.map2 (fun m b -> M.counter_value m - b) all before in
  Alcotest.(check (list int))
    "runs, blocks, branches, mispredicts, probes, cache passes"
    [
      1;
      Replay.blocks plan;
      c.Pipeline.cond_branches + c.Pipeline.indirect_branches;
      Pipeline.mispredicts c;
      c.Pipeline.l1i_accesses + c.Pipeline.l1d_accesses + c.Pipeline.l2_accesses;
      0;
    ]
    moved;
  Alcotest.(check (float 0.0)) "cache lanes gauge untouched" 12345.0 (M.gauge_value lanes);
  Alcotest.(check int) "no replay.fused span" 0 spans;
  (* The same walk as a one-lane fused pass is metered the other way. *)
  let l1i = Machine.xeon_e5440.Pipeline.l1i and l2 = Machine.xeon_e5440.Pipeline.l2 in
  let batch = Replay.cache_batch_of ~l1i ~l2 [| ("seed", l1i, l2) |] in
  let before = List.map M.counter_value all in
  let fused, spans = fused_spans (fun () -> Replay.run_many plan batch placement) in
  check_counts "one-lane run_many = run" fused.(0) c;
  Alcotest.(check (list int))
    "run_many: one cache pass, no replay counters" [ 0; 0; 0; 0; 0; 1 ]
    (List.map2 (fun m b -> M.counter_value m - b) all before);
  Alcotest.(check (float 0.0)) "cache lanes gauge set" 1.0 (M.gauge_value lanes);
  Alcotest.(check int) "one replay.fused span" 1 spans

(* Step-derivation edge cases: every replay step is derived from the block
   it executes and the block after it, so the cases that matter are the
   ones where that pair says little. A program built with [Pi_isa.Builder]
   (branches, a switch, an indirect call, loads and stores) is traced, and
   its trace is then cut or given a program with edited terminators:

   - a branch whose taken and not-taken targets are the same block (the
     outcome is "taken" exactly when the next block is that target, and
     the wrong-path alternate then comes from the other side);
   - traces whose last block ends in a branch, a switch or an indirect
     call, which raise no terminator event;
   - a switch and an indirect call with no alternate (empty target lists:
     a mispredict has no wrong path to fetch);
   - a one-block trace.

   Scalar replay and fused predictor and cache batches must equal
   [run_unoptimized] field for field, cycles compared as [%h]. *)
module B = Pi_isa.Builder
module Program = Pi_isa.Program
module Trace = Pi_isa.Trace

let edge_program () =
  let b = B.create ~name:"edges" in
  let o = B.add_object b "main.o" in
  let g = B.global b ~name:"table" ~size:65536 in
  let site = B.heap_site b ~name:"nodes" ~obj_size:64 ~count:4096 in
  let leaf1 = B.proc b ~obj:o ~name:"leaf1" [ B.work 3; B.load_global g (B.seq ~stride:64) ] in
  let leaf2 = B.proc b ~obj:o ~name:"leaf2" [ B.store_heap site B.rand_access; B.work 2 ] in
  let leaf3 = B.proc b ~obj:o ~name:"leaf3" [ B.fp_work 2; B.load_heap site (B.chase ~seed:5) ] in
  let main =
    B.proc b ~obj:o ~name:"main"
      [
        B.for_ ~trips:100_000
          [
            B.work 2;
            B.if_ (Pi_isa.Behavior.Bernoulli { p_taken = 0.5 })
              [ B.load_global g B.rand_access ]
              [ B.store_global g (B.seq ~stride:8); B.work 1 ];
            B.switch Pi_isa.Behavior.Selector.Random_target
              [| [ B.work 1 ]; [ B.load_heap site B.rand_access ]; [ B.mul_work 1 ] |];
            B.icall Pi_isa.Behavior.Selector.Random_target [| leaf1; leaf2; leaf3 |];
            B.while_ (Pi_isa.Behavior.Loop_trip { trips = 3 }) [ B.load_global g (B.fixed 128) ];
          ];
      ]
  in
  B.entry b main;
  B.finish b

let with_terms (program : Program.t) edit =
  {
    program with
    Program.blocks =
      Array.map (fun (blk : Program.block) -> { blk with Program.term = edit blk }) program.Program.blocks;
  }

(* The first [n] blocks of [trace], with their memory events. *)
let trace_prefix (trace : Trace.t) n =
  let blocks = trace.Trace.program.Program.blocks in
  let events = ref 0 in
  for i = 0 to n - 1 do
    Array.iter
      (function Program.Mem _ -> incr events | _ -> ())
      blocks.(trace.Trace.block_seq.(i)).Program.instrs
  done;
  {
    trace with
    Trace.block_seq = Array.sub trace.Trace.block_seq 0 n;
    mem_events = Array.sub trace.Trace.mem_events 0 !events;
  }

(* The prefix of [trace] that ends with the last executed block whose
   terminator satisfies [pred]. *)
let prefix_ending (trace : Trace.t) pred =
  let blocks = trace.Trace.program.Program.blocks in
  let n = ref (Array.length trace.Trace.block_seq) in
  while not (pred blocks.(trace.Trace.block_seq.(!n - 1)).Program.term) do decr n done;
  trace_prefix trace !n

let check_counts_h label (a : Pipeline.counts) (b : Pipeline.counts) =
  Alcotest.(check string) (label ^ ": cycles %h") (Printf.sprintf "%h" b.Pipeline.cycles)
    (Printf.sprintf "%h" a.Pipeline.cycles);
  check_counts label a b

let test_step_edge_cases () =
  let p = edge_program () in
  let trace = Pi_layout.Run_limiter.trace p ~budget_blocks:6_000 in
  let n = Array.length trace.Trace.block_seq in
  (* The first executed branch gets one target on both sides. *)
  let first_branch =
    Array.find_map
      (fun b ->
        match p.Program.blocks.(b).Program.term with
        | Program.Branch { branch; _ } -> Some branch
        | _ -> None)
      trace.Trace.block_seq
    |> Option.get
  in
  let same_target pick =
    with_terms p (fun blk ->
        match blk.Program.term with
        | Program.Branch ({ branch; taken; not_taken } as br) when branch = first_branch ->
            let t = pick taken not_taken in
            Program.Branch { br with taken = t; not_taken = t }
        | term -> term)
  in
  let no_alternates =
    with_terms p (fun blk ->
        match blk.Program.term with
        | Program.Switch s -> Program.Switch { s with targets = [||] }
        | Program.Indirect_call c -> Program.Indirect_call { c with callees = [||] }
        | term -> term)
  in
  let is_branch = function Program.Branch _ -> true | _ -> false in
  let is_switch = function Program.Switch _ -> true | _ -> false in
  let is_icall = function Program.Indirect_call _ -> true | _ -> false in
  let traces =
    [
      ("whole", trace);
      ("taken = not_taken = taken", { trace with Trace.program = same_target (fun t _ -> t) });
      ("taken = not_taken = not_taken", { trace with Trace.program = same_target (fun _ f -> f) });
      ("no alternates", { trace with Trace.program = no_alternates });
      ("ends in a branch", prefix_ending trace is_branch);
      ("ends in a switch", prefix_ending trace is_switch);
      ("ends in an indirect call", prefix_ending trace is_icall);
      ( "no alternates, ends in an indirect call",
        { (prefix_ending trace is_icall) with Trace.program = no_alternates } );
      ("one block", trace_prefix trace 1);
    ]
  in
  let grid = Array.of_list (Pi_uarch.Sweep.configurations ()) in
  let pred_configs = Array.init ((Array.length grid + 6) / 7) (fun k -> grid.(7 * k)) in
  let cache_variants = Array.of_list (Pi_uarch.Sweep.cache_configurations ()) in
  List.iter
    (fun (machine_name, (base : Pipeline.config)) ->
      let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
      let cache_configs =
        Array.init
          ((Array.length cache_variants + 8) / 9)
          (fun k ->
            let name, vi, vd = cache_variants.(9 * k) in
            (name, Pi_uarch.Sweep.apply_cache_variant l1i vi, Pi_uarch.Sweep.apply_cache_variant l2 vd))
      in
      let pred_batch = Replay.batch_of pred_configs in
      let cache_batch = Replay.cache_batch_of ~l1i ~l2 cache_configs in
      List.iter
        (fun (trace_name, (tr : Trace.t)) ->
          let plan = Replay.compile base tr in
          let len = Array.length tr.Trace.block_seq in
          List.iter
            (fun seed ->
              let placement = Placement.make p ~seed in
              List.iter
                (fun warmup_blocks ->
                  let label =
                    Printf.sprintf "%s/%s (%d of %d blocks)/seed%d/warmup%d" machine_name trace_name
                      len n seed warmup_blocks
                  in
                  let legacy config = Pipeline.run_unoptimized ~warmup_blocks config tr placement in
                  check_counts_h (label ^ " scalar") (Replay.run ~warmup_blocks plan placement) (legacy base);
                  let fused = Replay.run_many ~warmup_blocks plan pred_batch placement in
                  Array.iteri
                    (fun j c ->
                      let name, make = pred_configs.((Replay.batch_src pred_batch).(j)) in
                      check_counts_h
                        (Printf.sprintf "%s predictor lane %s" label name)
                        c
                        (legacy (Machine.with_predictor base ~name make)))
                    fused;
                  let fused = Replay.run_many ~warmup_blocks plan cache_batch placement in
                  Array.iteri
                    (fun j c ->
                      let name, gi, gd = cache_configs.((Replay.batch_src cache_batch).(j)) in
                      check_counts_h
                        (Printf.sprintf "%s cache lane %s" label name)
                        c
                        (legacy { base with Pipeline.l1i = gi; l2 = gd }))
                    fused)
                [ 0; 1_000; len + 5 ])
            [ 3 ])
        traces)
    [
      ("xeon", Machine.xeon_e5440);
      ("netburst+prefetch", Machine.with_data_prefetcher Machine.netburst_like);
    ]

let test_plan_introspection () =
  let _, trace = traced "429.mcf" in
  let plan = Replay.compile Machine.xeon_e5440 trace in
  Alcotest.(check int) "plan blocks = trace blocks"
    (Pi_isa.Trace.blocks_executed trace) (Replay.blocks plan);
  Alcotest.(check bool) "plan has mem events" true (Replay.mem_events plan > 0);
  Alcotest.(check bool) "plan words accounted" true (Replay.words plan > 0)

(* A plan is tables over the static program: one program traced at two
   budgets compiles to plans of one size, smaller than either trace. *)
let test_plan_size_static () =
  let p = edge_program () in
  let plan max_blocks =
    Replay.compile Machine.xeon_e5440
      (Pi_isa.Interp.run ~limits:{ Pi_isa.Interp.max_blocks; stop_proc = None } p)
  in
  let short = plan 60_000 and long = plan 220_000 in
  Alcotest.(check bool)
    (Printf.sprintf "traces differ in length (%d vs %d blocks)" (Replay.blocks short) (Replay.blocks long))
    true
    (Replay.blocks long > 2 * Replay.blocks short);
  Alcotest.(check int) "plan words independent of trace length" (Replay.words short) (Replay.words long);
  Alcotest.(check bool)
    (Printf.sprintf "plan words %d < blocks %d" (Replay.words short) (Replay.blocks short))
    true
    (Replay.words short < Replay.blocks short)

(* A replay of the same machine as the last one on its domain builds no
   predictor: the domain's scratch keeps the machine predictor's packed
   initial tables and the last indirect predictor, reset for the next
   replay. So once the scratch is warm a scalar replay puts next to
   nothing in the major heap (without the pools, the hybrid's tables and
   the 512x4 BTB are ~5K words a replay). Pooled and reset, an ITTAGE
   machine replays to the same counts as a fresh one. *)
let test_replay_pools () =
  let p, trace = traced "400.perlbench" in
  let placement = Placement.make p ~seed:1 in
  let plan = Replay.compile Machine.xeon_e5440 trace in
  let want = Replay.run plan placement in
  (* [Gc.counters] also counts the major words allocated since the last
     slice, which [Gc.quick_stat] reports only after a collection. *)
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  for k = 1 to 20 do
    let before = major_words () in
    let c = Replay.run plan placement in
    let words = major_words () -. before in
    check_counts (Printf.sprintf "replay %d" k) c want;
    Alcotest.(check bool)
      (Printf.sprintf "replay %d: %.0f major words < 256" k words)
      true (words < 256.0)
  done;
  let ittage =
    Machine.with_indirect Machine.xeon_e5440 ~name:"ittage" (fun () -> Pi_uarch.Indirect.ittage ())
  in
  let plan = Replay.compile ittage trace in
  let first = Replay.run plan placement in
  check_counts "ittage: pooled and reset" (Replay.run plan placement) first;
  check_counts "ittage: the oracle" first (Pipeline.run_unoptimized ittage trace placement)

let suite =
  [
    ( "replay",
      [
        Alcotest.test_case "golden matrix: 4 benches x 3 seeds x 4 machines" `Quick
          test_golden_matrix;
        Alcotest.test_case "golden with warmup" `Quick test_golden_with_warmup;
        Alcotest.test_case "run = compile;replay" `Quick test_run_is_replay;
        Alcotest.test_case "predictor kernels match closures" `Quick test_kernel_families;
        Alcotest.test_case "with_config reuse and recompile" `Quick test_with_config;
        Alcotest.test_case "plan introspection" `Quick test_plan_introspection;
        Alcotest.test_case "step edge cases: same-target branch, last-block terminators, no alternate"
          `Quick test_step_edge_cases;
        Alcotest.test_case "plan size does not depend on trace length" `Quick
          test_plan_size_static;
        Alcotest.test_case "replay metering: replay counters, no fused pass" `Quick
          test_replay_metering;
        Alcotest.test_case "shared data side == per-seed data sides, any order" `Quick
          test_shared_data_side;
        Alcotest.test_case "data side for another L1D, prefetcher or trace is refused" `Quick
          test_data_side_mismatch;
        Alcotest.test_case "replay pools: no major-heap tables, pooled ITTAGE reset" `Quick
          test_replay_pools;
      ] );
  ]
