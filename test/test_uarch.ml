(* Tests for pi_uarch: BTB, caches, timing pipeline, counter protocol and
   the machine configuration. *)

module Btb = Pi_uarch.Btb
module Cache = Pi_uarch.Cache
module Pipeline = Pi_uarch.Pipeline
module Machine = Pi_uarch.Machine
module Counters = Pi_uarch.Counters
module B = Pi_isa.Builder
module Behavior = Pi_isa.Behavior
module Interp = Pi_isa.Interp
module Placement = Pi_layout.Placement

(* ---------------- BTB ---------------- *)

let test_btb_miss_then_hit () =
  let btb = Btb.create ~sets:16 ~ways:2 in
  Alcotest.(check bool) "cold miss" false (Btb.lookup_update btb ~pc:0x1000 ~target:0x2000);
  Alcotest.(check bool) "then hit" true (Btb.lookup_update btb ~pc:0x1000 ~target:0x2000)

let test_btb_wrong_target () =
  let btb = Btb.create ~sets:16 ~ways:2 in
  ignore (Btb.lookup_update btb ~pc:0x1000 ~target:0x2000);
  Alcotest.(check bool) "stale target" false (Btb.lookup_update btb ~pc:0x1000 ~target:0x3000);
  Alcotest.(check bool) "retrained" true (Btb.lookup_update btb ~pc:0x1000 ~target:0x3000)

let test_btb_lru_eviction () =
  let btb = Btb.create ~sets:1 ~ways:2 in
  ignore (Btb.lookup_update btb ~pc:0x10 ~target:1);
  ignore (Btb.lookup_update btb ~pc:0x20 ~target:2);
  (* Touch 0x10 to make 0x20 the LRU, then insert a third entry. *)
  ignore (Btb.lookup_update btb ~pc:0x10 ~target:1);
  ignore (Btb.lookup_update btb ~pc:0x30 ~target:3);
  (* Check the survivor first: a miss lookup allocates and would evict it. *)
  Alcotest.(check bool) "MRU survivor" true (Btb.lookup_update btb ~pc:0x10 ~target:1);
  Alcotest.(check bool) "LRU victim evicted" false (Btb.lookup_update btb ~pc:0x20 ~target:2)

(* Lookups run once per indirect branch of every replay: a hit, a stale
   target and a miss each shift the set's ways in place, allocating
   nothing. *)
let test_btb_no_allocation () =
  let btb = Btb.create ~sets:4 ~ways:4 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Btb.lookup_update btb ~pc:(0x1000 + ((i * 7) land 63 * 4)) ~target:(i land 3))
  done;
  Alcotest.(check (float 0.0)) "minor words over 10,000 lookups" 0.0 (Gc.minor_words () -. before)

let test_btb_reset () =
  let btb = Btb.create ~sets:4 ~ways:2 in
  ignore (Btb.lookup_update btb ~pc:0x40 ~target:7);
  Btb.reset btb;
  Alcotest.(check bool) "cold after reset" false (Btb.lookup_update btb ~pc:0x40 ~target:7)

(* ---------------- Cache ---------------- *)

let small_geometry = { Cache.size_bytes = 1024; assoc = 2; line_bytes = 64 }
(* 8 sets x 2 ways x 64B. *)

let test_cache_geometry () =
  Alcotest.(check int) "sets" 8 (Cache.geometry_sets small_geometry);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Cache.geometry_sets: set count not a power of two") (fun () ->
      ignore (Cache.geometry_sets { Cache.size_bytes = 1536; assoc = 2; line_bytes = 64 }))

let test_cache_hit_miss () =
  let c = Cache.create small_geometry in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x0);
  Alcotest.(check bool) "hit" true (Cache.access c 0x0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 0x3f);
  Alcotest.(check bool) "next line miss" false (Cache.access c 0x40);
  Alcotest.(check int) "accesses" 4 (Cache.accesses c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_conflict_misses () =
  let c = Cache.create small_geometry in
  (* Three lines mapping to set 0 in a 2-way cache: 0x0, 0x200, 0x400. *)
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  ignore (Cache.access c 0x400);
  Alcotest.(check bool) "first way evicted" false (Cache.access c 0x0)

let test_cache_lru_order () =
  let c = Cache.create small_geometry in
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  ignore (Cache.access c 0x0);
  (* 0x200 is now LRU. *)
  ignore (Cache.access c 0x400);
  Alcotest.(check bool) "MRU kept" true (Cache.access c 0x0);
  Alcotest.(check bool) "LRU gone" false (Cache.access c 0x200)

let test_cache_probe_pure () =
  let c = Cache.create small_geometry in
  Alcotest.(check bool) "probe cold" false (Cache.probe c 0x0);
  Alcotest.(check int) "probe does not count" 0 (Cache.accesses c);
  ignore (Cache.access c 0x0);
  Alcotest.(check bool) "probe warm" true (Cache.probe c 0x0)

let test_cache_fill_silent () =
  let c = Cache.create small_geometry in
  Cache.fill c 0x0;
  Alcotest.(check int) "fill counts no access" 0 (Cache.accesses c);
  Alcotest.(check int) "fill counts no miss" 0 (Cache.misses c);
  Alcotest.(check bool) "line installed" true (Cache.probe c 0x0)

let test_cache_fill_on_hit_promotes () =
  let c = Cache.create small_geometry in
  (* Set 0, 2 ways: A=0x0, B=0x200, C=0x400. After A,B the LRU is A. *)
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  (* Prefetch-fill A again: already resident, so the fill must PROMOTE it
     to MRU (making B the victim), not install a duplicate or no-op. *)
  Cache.fill c 0x0;
  Cache.fill c 0x400;
  Alcotest.(check bool) "promoted line survives" true (Cache.probe c 0x0);
  Alcotest.(check bool) "LRU line evicted" false (Cache.probe c 0x200);
  Alcotest.(check bool) "filled line resident" true (Cache.probe c 0x400)

let test_cache_touch_counts_and_promotes () =
  let c = Cache.create small_geometry in
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  Cache.touch c 0x0;
  (* touch is an access: it counts and updates recency. *)
  Alcotest.(check int) "touch counted" 3 (Cache.accesses c);
  ignore (Cache.access c 0x400);
  Alcotest.(check bool) "touched line is MRU" true (Cache.probe c 0x0);
  Alcotest.(check bool) "untouched line evicted" false (Cache.probe c 0x200)

let test_cache_access_range () =
  let c = Cache.create small_geometry in
  let misses = Cache.access_range c ~addr:0x10 ~bytes:100 in
  (* Spans lines 0x00 and 0x40. *)
  Alcotest.(check int) "two line misses" 2 misses;
  Alcotest.(check int) "zero on re-fetch" 0 (Cache.access_range c ~addr:0x10 ~bytes:100)

let test_cache_reset () =
  let c = Cache.create small_geometry in
  ignore (Cache.access c 0x0);
  Cache.reset c;
  Alcotest.(check int) "counters cleared" 0 (Cache.accesses c);
  Alcotest.(check bool) "contents cleared" false (Cache.access c 0x0)

(* ---------------- Pipeline ---------------- *)

(* A branch-free program: CPI must equal the static cost exactly, and with a
   big-enough cache there are no misses after warmup. *)
let straight_line_program ~trips =
  let b = B.create ~name:"straight" in
  let o = B.add_object b "a.o" in
  let main = B.proc b ~obj:o ~name:"main" [ B.for_ ~trips [ B.work 10 ] ] in
  B.entry b main;
  B.finish b

(* All-taken branches: with a static not-taken predictor every one
   mispredicts; with always-taken none do. Cycles must differ by exactly
   penalty * count. *)
let taken_branch_program ~trips =
  let b = B.create ~name:"taken-branches" in
  let o = B.add_object b "a.o" in
  let main =
    B.proc b ~obj:o ~name:"main"
      [ B.for_ ~trips [ B.if_ Behavior.Always_taken [ B.work 2 ] [ B.work 2 ] ] ]
  in
  B.entry b main;
  B.finish b

let run_with predictor ?(wrong_path = false) program =
  let trace = Interp.run program in
  let config =
    {
      Machine.xeon_e5440 with
      Pipeline.make_predictor = predictor;
      wrong_path;
      name = "test";
    }
  in
  (Pipeline.run config trace (Placement.natural program), trace)

let test_pipeline_mispredict_accounting () =
  let p = taken_branch_program ~trips:500 in
  let all_wrong, trace = run_with Pi_uarch.Perfect.always_not_taken p in
  let none_wrong, _ = run_with Pi_uarch.Perfect.perfect p in
  (* Every branch in this program is taken except the final loop exit,
     which static-not-taken gets right — hence count - 1. *)
  Alcotest.(check int) "all but the loop exit mispredicted"
    trace.Pi_isa.Trace.cond_branches
    (all_wrong.Pipeline.cond_mispredicts + 1);
  Alcotest.(check int) "none mispredicted" 0 none_wrong.Pipeline.cond_mispredicts;
  let expected_delta =
    float_of_int all_wrong.Pipeline.cond_mispredicts
    *. Machine.xeon_e5440.Pipeline.penalties.Pipeline.mispredict
  in
  Alcotest.(check (float 1e-6)) "cycles differ by penalty * count" expected_delta
    (all_wrong.Pipeline.cycles -. none_wrong.Pipeline.cycles)

let test_pipeline_cpi_floor () =
  let p = straight_line_program ~trips:2000 in
  let counts, _ = run_with Pi_uarch.Perfect.perfect p in
  let cpi = Pipeline.cpi counts in
  Alcotest.(check bool) "cpi in a sane band" true (cpi > 0.2 && cpi < 0.6)

let test_pipeline_warmup_reduces_instructions () =
  let p = straight_line_program ~trips:2000 in
  let trace = Interp.run p in
  let placement = Placement.natural p in
  let full = Pipeline.run Machine.xeon_e5440 trace placement in
  let warm = Pipeline.run ~warmup_blocks:2000 Machine.xeon_e5440 trace placement in
  Alcotest.(check bool) "fewer measured instructions" true
    (warm.Pipeline.instructions < full.Pipeline.instructions);
  Alcotest.(check bool) "still measuring" true (warm.Pipeline.instructions > 0)

let test_pipeline_perfect_btb () =
  let b = B.create ~name:"switchy" in
  let o = B.add_object b "a.o" in
  let main =
    B.proc b ~obj:o ~name:"main"
      [
        B.for_ ~trips:200
          [ B.switch Behavior.Selector.Random_target [| [ B.work 1 ]; [ B.work 2 ]; [ B.work 3 ] |] ];
      ]
  in
  B.entry b main;
  let p = B.finish b in
  let trace = Interp.run p in
  let placement = Placement.natural p in
  let oracle = Machine.with_perfect_prediction Machine.xeon_e5440 in
  let counts = Pipeline.run oracle trace placement in
  Alcotest.(check int) "no indirect mispredicts" 0 counts.Pipeline.indirect_mispredicts;
  Alcotest.(check (float 0.0)) "total MPKI zero" 0.0 (Pipeline.mpki counts);
  let real = Pipeline.run Machine.xeon_e5440 trace placement in
  Alcotest.(check bool) "real BTB misses on random targets" true
    (real.Pipeline.indirect_mispredicts > 0)

let test_pipeline_deterministic () =
  let p = taken_branch_program ~trips:300 in
  let a, _ = run_with Pi_uarch.Hybrid.xeon_like p in
  let b, _ = run_with Pi_uarch.Hybrid.xeon_like p in
  Alcotest.(check (float 0.0)) "same cycles" a.Pipeline.cycles b.Pipeline.cycles;
  Alcotest.(check int) "same mispredicts" a.Pipeline.cond_mispredicts b.Pipeline.cond_mispredicts

let test_pipeline_layout_changes_events_not_instructions () =
  let bench = Pi_workloads.Spec.find "400.perlbench" in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  let trace = Pi_layout.Run_limiter.trace p ~budget_blocks:15_000 in
  let run seed = Pipeline.run Machine.xeon_e5440 trace (Placement.make p ~seed) in
  let a = run 1 and b = run 2 in
  Alcotest.(check int) "instructions identical across layouts" a.Pipeline.instructions
    b.Pipeline.instructions;
  Alcotest.(check int) "branches identical across layouts" a.Pipeline.cond_branches
    b.Pipeline.cond_branches;
  Alcotest.(check bool) "cycles differ (interference)" true
    (a.Pipeline.cycles <> b.Pipeline.cycles)

(* ---------------- Counters ---------------- *)

let sample_counts =
  {
    Pipeline.cycles = 1_000_000.0;
    instructions = 800_000;
    cond_branches = 100_000;
    cond_mispredicts = 4_000;
    indirect_branches = 5_000;
    indirect_mispredicts = 1_000;
    btb_misses = 1_000;
    l1i_accesses = 300_000;
    l1i_misses = 2_000;
    l1d_accesses = 200_000;
    l1d_misses = 8_000;
    l2_accesses = 10_000;
    l2_misses = 3_000;
  }

let test_counters_ideal_math () =
  let m = Counters.ideal sample_counts in
  Alcotest.(check (float 1e-9)) "cpi" 1.25 m.Counters.cpi;
  Alcotest.(check (float 1e-9)) "mpki counts cond + indirect" 6.25 m.Counters.mpki;
  Alcotest.(check (float 1e-9)) "l1i mpki" 2.5 m.Counters.l1i_mpki;
  Alcotest.(check (float 1e-9)) "l2 mpki" 3.75 m.Counters.l2_mpki

let test_counters_no_noise_is_exact () =
  let m = Counters.measure ~noise:Counters.no_noise ~seed:5 sample_counts in
  let exact = Counters.ideal sample_counts in
  Alcotest.(check (float 1e-9)) "cpi exact" exact.Counters.cpi m.Counters.cpi;
  Alcotest.(check (float 1e-9)) "mpki exact" exact.Counters.mpki m.Counters.mpki

let test_counters_deterministic () =
  let a = Counters.measure ~seed:42 sample_counts in
  let b = Counters.measure ~seed:42 sample_counts in
  Alcotest.(check (float 0.0)) "reproducible" a.Counters.cpi b.Counters.cpi

let test_counters_median_rejects_spikes () =
  (* With frequent large spikes, the median-of-5 protocol must sit much
     closer to the true value than the worst single runs do. *)
  let noise = { Counters.default_noise with spike_probability = 0.3; spike_scale = 0.2 } in
  let exact = (Counters.ideal sample_counts).Counters.cpi in
  let protocol_err = ref 0.0 and single_err = ref 0.0 in
  for seed = 1 to 60 do
    let p = Counters.measure ~noise ~seed sample_counts in
    let s = Counters.measure_single_run ~noise ~seed sample_counts in
    protocol_err := !protocol_err +. Float.abs (p.Counters.cpi -. exact);
    single_err := !single_err +. Float.abs (s.Counters.cpi -. exact)
  done;
  Alcotest.(check bool) "median filter helps" true (!protocol_err < !single_err)

let test_counters_instructions_exact () =
  (* Retired instructions come from the run-length instrumentation and are
     never noisy. *)
  let m = Counters.measure ~seed:9 sample_counts in
  Alcotest.(check (float 0.0)) "instructions exact" 800_000.0 m.Counters.instructions

(* ---------------- Machine configs ---------------- *)

let test_machine_with_predictor_name () =
  let c = Machine.with_predictor Machine.xeon_e5440 ~name:"zzz" Pi_uarch.Perfect.perfect in
  Alcotest.(check string) "name suffixed" "xeon-e5440+zzz" c.Pipeline.name

let test_machine_without_wrong_path () =
  let c = Machine.without_wrong_path Machine.xeon_e5440 in
  Alcotest.(check bool) "flag off" false c.Pipeline.wrong_path

let suite =
  [
    ( "uarch.btb",
      [
        Alcotest.test_case "miss then hit" `Quick test_btb_miss_then_hit;
        Alcotest.test_case "wrong target" `Quick test_btb_wrong_target;
        Alcotest.test_case "LRU eviction" `Quick test_btb_lru_eviction;
        Alcotest.test_case "lookups allocate nothing" `Quick test_btb_no_allocation;
        Alcotest.test_case "reset" `Quick test_btb_reset;
      ] );
    ( "uarch.cache",
      [
        Alcotest.test_case "geometry" `Quick test_cache_geometry;
        Alcotest.test_case "hit / miss" `Quick test_cache_hit_miss;
        Alcotest.test_case "conflict misses" `Quick test_cache_conflict_misses;
        Alcotest.test_case "LRU order" `Quick test_cache_lru_order;
        Alcotest.test_case "probe is pure" `Quick test_cache_probe_pure;
        Alcotest.test_case "fill is silent" `Quick test_cache_fill_silent;
        Alcotest.test_case "fill on hit promotes" `Quick test_cache_fill_on_hit_promotes;
        Alcotest.test_case "touch counts and promotes" `Quick
          test_cache_touch_counts_and_promotes;
        Alcotest.test_case "access range" `Quick test_cache_access_range;
        Alcotest.test_case "reset" `Quick test_cache_reset;
      ] );
    ( "uarch.pipeline",
      [
        Alcotest.test_case "mispredict accounting" `Quick test_pipeline_mispredict_accounting;
        Alcotest.test_case "cpi floor" `Quick test_pipeline_cpi_floor;
        Alcotest.test_case "warmup window" `Quick test_pipeline_warmup_reduces_instructions;
        Alcotest.test_case "perfect btb" `Quick test_pipeline_perfect_btb;
        Alcotest.test_case "deterministic" `Quick test_pipeline_deterministic;
        Alcotest.test_case "layout invariants" `Quick
          test_pipeline_layout_changes_events_not_instructions;
      ] );
    ( "uarch.counters",
      [
        Alcotest.test_case "ideal math" `Quick test_counters_ideal_math;
        Alcotest.test_case "no-noise exact" `Quick test_counters_no_noise_is_exact;
        Alcotest.test_case "deterministic" `Quick test_counters_deterministic;
        Alcotest.test_case "median rejects spikes" `Quick test_counters_median_rejects_spikes;
        Alcotest.test_case "instructions exact" `Quick test_counters_instructions_exact;
      ] );
    ( "uarch.machine",
      [
        Alcotest.test_case "with_predictor name" `Quick test_machine_with_predictor_name;
        Alcotest.test_case "without wrong path" `Quick test_machine_without_wrong_path;
      ] );
  ]

(* ---------------- Cache property tests ---------------- *)

(* LRU inclusion (stack) property: any access that hits in a k-way cache
   also hits in a (k+1)-way cache of the same set count. *)
let prop_cache_lru_inclusion =
  QCheck.Test.make ~name:"LRU associativity inclusion property" ~count:60
    QCheck.(pair (int_range 1 100000) (list_of_size (QCheck.Gen.return 300) (int_bound 63)))
    (fun (_, lines) ->
      let small = Cache.create { Cache.size_bytes = 8 * 2 * 64; assoc = 2; line_bytes = 64 } in
      let big = Cache.create { Cache.size_bytes = 8 * 3 * 64; assoc = 3; line_bytes = 64 } in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let hit_small = Cache.access small addr in
          let hit_big = Cache.access big addr in
          (not hit_small) || hit_big)
        lines)

let prop_cache_miss_count_bounded =
  QCheck.Test.make ~name:"misses never exceed accesses" ~count:60
    QCheck.(list_of_size (QCheck.Gen.return 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create small_geometry in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      Cache.misses c <= Cache.accesses c && Cache.accesses c = List.length addrs)

let prop_predictor_deterministic =
  QCheck.Test.make ~name:"predictors are deterministic functions of the stream" ~count:20
    QCheck.(list_of_size (QCheck.Gen.return 400) (pair (int_bound 0xFFFF) bool))
    (fun stream ->
      let run () =
        let p = Pi_uarch.Hybrid.xeon_like () in
        List.map (fun (pc, taken) -> p.Pi_uarch.Predictor.on_branch ~pc ~taken) stream
      in
      run () = run ())

let property_cases =
  ( "uarch.properties",
    [
      QCheck_alcotest.to_alcotest prop_cache_lru_inclusion;
      QCheck_alcotest.to_alcotest prop_cache_miss_count_bounded;
      QCheck_alcotest.to_alcotest prop_predictor_deterministic;
    ] )

let suite = suite @ [ property_cases ]

(* ---------------- Second machine ---------------- *)

let test_netburst_config () =
  let nb = Machine.netburst_like in
  Alcotest.(check bool) "deeper pipeline" true
    (nb.Pipeline.penalties.Pipeline.mispredict
    > Machine.xeon_e5440.Pipeline.penalties.Pipeline.mispredict);
  Alcotest.(check bool) "has a trace cache" true (nb.Pipeline.trace_cache <> None)

let test_netburst_steeper_slope () =
  (* The interferometry-visible misprediction cost tracks pipeline depth. *)
  let bench = Pi_workloads.Spec.find "456.hmmer" in
  let prepared =
    Interferometry.Experiment.prepare ~config:Interferometry.Experiment.quick_config bench
  in
  let slope machine =
    let n = 12 in
    let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let placement =
        Pi_layout.Placement.make prepared.Interferometry.Experiment.program ~seed:(i + 1)
      in
      let c =
        Pipeline.run ~warmup_blocks:prepared.Interferometry.Experiment.warmup_blocks machine
          prepared.Interferometry.Experiment.trace placement
      in
      xs.(i) <- Pipeline.mpki c;
      ys.(i) <- Pipeline.cpi c
    done;
    (Pi_stats.Linreg.fit xs ys).Pi_stats.Linreg.slope
  in
  let xeon = slope Machine.xeon_e5440 and netburst = slope Machine.netburst_like in
  Alcotest.(check bool)
    (Printf.sprintf "netburst slope %.4f > xeon slope %.4f" netburst xeon)
    true (netburst > xeon)

let machine_cases =
  ( "uarch.machines",
    [
      Alcotest.test_case "netburst config" `Quick test_netburst_config;
      Alcotest.test_case "netburst steeper slope" `Quick test_netburst_steeper_slope;
    ] )

let suite = suite @ [ machine_cases ]
