(* Golden-equivalence tests for the cache axis of the fused sweep engine:
   Replay.run_many over a cache batch must reproduce the sequential
   per-geometry loop field-for-field (bit-identical cycles included) for
   every lane, across benchmarks x seeds x machines, with and without
   warmup — and lane sharding must be deterministic: any shard count,
   sequential or domain-parallel, yields the same study. Also covers the
   satellite Cache.create geometry validation and the batch's duplicate /
   line-size rejections. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay
module Machine = Pi_uarch.Machine
module Sweep = Pi_uarch.Sweep
module Cache = Pi_uarch.Cache
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

let traced name =
  let bench = Pi_workloads.Spec.find name in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  (p, Pi_layout.Run_limiter.trace p ~budget_blocks:8_000)

let machines =
  [ ("xeon_e5440", Machine.xeon_e5440); ("netburst", Machine.netburst_like) ]

let geometries (base : Pipeline.config) =
  Array.of_list
    (List.map
       (fun (name, vi, vd) ->
         ( name,
           Sweep.apply_cache_variant base.Pipeline.l1i vi,
           Sweep.apply_cache_variant base.Pipeline.l2 vd ))
       (Sweep.cache_configurations ()))

(* The sequential reference for one lane: exactly Sweep's per-geometry
   path — the seed machine rebound to the lane's L1I/L2. *)
let sequential ~warmup_blocks (base : Pipeline.config) plan placement (_, gi, gd) =
  let config = { base with Pipeline.l1i = gi; l2 = gd } in
  Replay.run ~warmup_blocks (Replay.with_config plan config) placement

let check_batch ~warmup_blocks label (base : Pipeline.config) plan placement =
  let configs = geometries base in
  let batch = Replay.cache_batch_of ~l1i:base.Pipeline.l1i ~l2:base.Pipeline.l2 configs in
  Alcotest.(check string) (label ^ ": axis") "cache" (Replay.batch_axis batch);
  let fused = Replay.run_many ~warmup_blocks plan batch placement in
  let src = Replay.batch_src batch in
  Array.iteri
    (fun j c ->
      let i = src.(j) in
      let ((name, _, _) as cfg) = configs.(i) in
      check_counts
        (Printf.sprintf "%s lane %s" label name)
        c
        (sequential ~warmup_blocks base plan placement cfg))
    fused

(* Every lane of the full 100-geometry grid, bit-exact, over 3 benches x 2
   seeds x 2 machines (the netburst machine exercises the trace cache and
   the higher penalty set; both machines run wrong-path effects, whose L1I
   probe/touch and speculative L2 touches hit the per-lane tag images). *)
let test_golden_matrix () =
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      List.iter
        (fun (machine_name, base) ->
          let plan = Replay.compile base trace in
          List.iter
            (fun seed ->
              let placement = Placement.make p ~seed in
              let label = Printf.sprintf "%s/%s/seed%d" bench_name machine_name seed in
              check_batch ~warmup_blocks:0 label base plan placement)
            [ 1; 2 ])
        machines)
    [ "400.perlbench"; "429.mcf"; "445.gobmk" ]

let test_golden_with_warmup () =
  let p, trace = traced "403.gcc" in
  List.iter
    (fun (machine_name, base) ->
      let plan = Replay.compile base trace in
      let placement = Placement.make p ~seed:7 in
      check_batch ~warmup_blocks:1500 ("warmup/" ^ machine_name) base plan placement)
    machines

(* Sharding splits the lane set without loss or reorder of the merge: for
   several shard counts, the concatenated shard results equal the unsharded
   pass lane for lane. *)
let test_shard_partition () =
  let p, trace = traced "429.mcf" in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let placement = Placement.make p ~seed:4 in
  let configs = geometries base in
  let batch = Replay.cache_batch_of ~l1i:base.Pipeline.l1i ~l2:base.Pipeline.l2 configs in
  let whole = Replay.run_many plan batch placement in
  let src = Replay.batch_src batch in
  let by_caller = Array.make (Array.length configs) None in
  Array.iteri (fun j c -> by_caller.(src.(j)) <- Some c) whole;
  List.iter
    (fun shards ->
      let sub = Replay.shard batch ~shards in
      Alcotest.(check int)
        (Printf.sprintf "%d shards requested" shards)
        (min shards (Replay.batch_lanes batch))
        (Array.length sub);
      let seen = ref 0 in
      Array.iter
        (fun s ->
          let counts = Replay.run_many plan s placement in
          let ssrc = Replay.batch_src s in
          Array.iteri
            (fun j c ->
              incr seen;
              match by_caller.(ssrc.(j)) with
              | Some reference ->
                  let name, _, _ = configs.(ssrc.(j)) in
                  check_counts (Printf.sprintf "%d-way shard lane %s" shards name) c reference
              | None -> Alcotest.fail "shard lane not in unsharded batch")
            counts)
        sub;
      Alcotest.(check int)
        (Printf.sprintf "%d-way sharding covers all lanes" shards)
        (Replay.batch_lanes batch) !seen)
    [ 2; 4; 7 ]

let check_studies_equal label (a : Sweep.cache_study) (b : Sweep.cache_study) =
  Alcotest.(check int)
    (label ^ ": point count")
    (Array.length b.Sweep.cache_points)
    (Array.length a.Sweep.cache_points);
  Array.iteri
    (fun i (pa : Sweep.cache_point) ->
      let pb = b.Sweep.cache_points.(i) in
      Alcotest.(check string) (label ^ ": name") pb.Sweep.geometry_name pa.Sweep.geometry_name;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s mpki+cpi bit-identical" label pa.Sweep.geometry_name)
        true
        (pa.Sweep.l1i_mpki = pb.Sweep.l1i_mpki
        && pa.Sweep.l2_mpki = pb.Sweep.l2_mpki
        && pa.Sweep.cache_cpi = pb.Sweep.cache_cpi))
    a.Sweep.cache_points;
  Alcotest.(check bool)
    (label ^ ": seed point + degradation model bit-identical")
    true
    (a.Sweep.seed_point = b.Sweep.seed_point
    && a.Sweep.degradation.Pi_stats.Multireg.coefficients
       = b.Sweep.degradation.Pi_stats.Multireg.coefficients
    && a.Sweep.degradation.Pi_stats.Multireg.intercept
       = b.Sweep.degradation.Pi_stats.Multireg.intercept
    && a.Sweep.predicted_seed_cpi = b.Sweep.predicted_seed_cpi)

(* The study-level contract: fused (any shard count, sequential or
   Scheduler-parallel) == per-geometry sequential loop, the `--jobs 1` ==
   `--jobs 4` determinism case included. *)
let test_study_fused_equals_sequential () =
  let p, trace = traced "400.perlbench" in
  let placement = Placement.make p ~seed:3 in
  let benchmark = "400.perlbench" in
  let baseline =
    Sweep.run_cache_study ~warmup_blocks:500 ~fused:false ~benchmark trace placement
  in
  Alcotest.(check int) "baseline fallback lanes" 100 baseline.Sweep.cache_fallback_lanes;
  Alcotest.(check string)
    "seed point is the seed machine" "l1i-w8+l2-w8" baseline.Sweep.seed_point.Sweep.geometry_name;
  let fused = Sweep.run_cache_study ~warmup_blocks:500 ~benchmark trace placement in
  Alcotest.(check int) "fused lanes" 100 fused.Sweep.cache_fused_lanes;
  Alcotest.(check int) "fallback lanes" 0 fused.Sweep.cache_fallback_lanes;
  Alcotest.(check int) "warmup recorded" 500 fused.Sweep.cache_warmup_blocks;
  check_studies_equal "fused==sequential" fused baseline;
  let sharded_seq =
    Sweep.run_cache_study ~warmup_blocks:500 ~shards:4 ~benchmark trace placement
  in
  Alcotest.(check int) "4 shards recorded" 4 sharded_seq.Sweep.cache_shards;
  check_studies_equal "shards=4 sequential" sharded_seq baseline;
  let jobs1 =
    Sweep.run_cache_study ~warmup_blocks:500 ~shards:4
      ~map_shards:(Pi_campaign.Campaign.sweep_shard_map ~jobs:1 ())
      ~benchmark trace placement
  in
  let jobs4 =
    Sweep.run_cache_study ~warmup_blocks:500 ~shards:4
      ~map_shards:(Pi_campaign.Campaign.sweep_shard_map ~jobs:4 ())
      ~benchmark trace placement
  in
  check_studies_equal "jobs=1" jobs1 baseline;
  check_studies_equal "jobs=4 == jobs=1" jobs4 jobs1

(* Satellite: the symbolic grid is memoized — one shared list, not a
   rebuild per call — and materializes to 100 distinct geometry pairs
   containing the seed. *)
let test_configurations_memoized () =
  Alcotest.(check bool)
    "cache_configurations () returns the same list" true
    (Sweep.cache_configurations () == Sweep.cache_configurations ());
  Alcotest.(check int) "100 configurations" 100 (List.length (Sweep.cache_configurations ()));
  let base = Machine.xeon_e5440 in
  let configs = geometries base in
  let seen = Hashtbl.create 128 in
  Array.iter
    (fun (name, gi, gd) ->
      Alcotest.(check bool) (name ^ " distinct") false (Hashtbl.mem seen (gi, gd));
      Hashtbl.add seen (gi, gd) ())
    configs;
  Alcotest.(check bool)
    "grid contains the seed geometries" true
    (Array.exists
       (fun (_, gi, gd) -> gi = base.Pipeline.l1i && gd = base.Pipeline.l2)
       configs)

let check_invalid_arg label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* Satellite: Cache.create validates geometry instead of silently
   mis-indexing. *)
let test_cache_create_validation () =
  let g = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 } in
  ignore (Cache.create g);
  (* 48K/12-way/64B is legitimate: 64 sets, a power of two. *)
  ignore (Cache.create { Cache.size_bytes = 48 * 1024; assoc = 12; line_bytes = 64 });
  check_invalid_arg "zero size" (fun () -> Cache.create { g with Cache.size_bytes = 0 });
  check_invalid_arg "negative size" (fun () -> Cache.create { g with Cache.size_bytes = -1024 });
  check_invalid_arg "zero assoc" (fun () -> Cache.create { g with Cache.assoc = 0 });
  check_invalid_arg "negative assoc" (fun () -> Cache.create { g with Cache.assoc = -2 });
  check_invalid_arg "zero line" (fun () -> Cache.create { g with Cache.line_bytes = 0 });
  check_invalid_arg "non-pow2 line" (fun () -> Cache.create { g with Cache.line_bytes = 48 });
  check_invalid_arg "size not divisible by assoc*line" (fun () ->
      Cache.create { g with Cache.size_bytes = 1000 });
  check_invalid_arg "non-pow2 set count" (fun () ->
      (* 24K / (8 * 64B) = 48 sets: divisible, but not a power of two. *)
      Cache.create { g with Cache.size_bytes = 24 * 1024 })

(* Satellite: batch construction rejects duplicates and mixed line sizes
   with clear errors, and way-disabling cannot add ways. *)
let test_batch_rejections () =
  let base = Machine.xeon_e5440 in
  let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
  check_invalid_arg "duplicate geometry pair" (fun () ->
      Replay.cache_batch_of ~l1i ~l2 [| ("a", l1i, l2); ("b", l1i, l2) |]);
  check_invalid_arg "mixed L1I line size" (fun () ->
      Replay.cache_batch_of ~l1i ~l2 [| ("a", { l1i with Cache.line_bytes = 32 }, l2) |]);
  check_invalid_arg "mixed L2 line size" (fun () ->
      Replay.cache_batch_of ~l1i ~l2 [| ("a", l1i, { l2 with Cache.line_bytes = 128 }) |]);
  check_invalid_arg "invalid lane geometry" (fun () ->
      Replay.cache_batch_of ~l1i ~l2 [| ("a", { l1i with Cache.size_bytes = 24 * 1024 }, l2) |]);
  check_invalid_arg "way-disabling beyond the seed" (fun () ->
      ignore (Sweep.apply_cache_variant { l1i with Cache.assoc = 4 } (Sweep.Ways 8)))

(* A miss rate flat across the degraded grid (l1i_mpki on equake and
   hmmer; both rates on lbm) used to make the fit's design singular and
   the study raise. Flat predictors now get coefficient 0 and SE 0, and a
   study whose predictors all vary still gets the plain [Multireg.fit]. *)
let test_study_flat_predictors () =
  let study name =
    let p, trace = traced name in
    let s = Sweep.run_cache_study ~benchmark:name trace (Placement.make p ~seed:1) in
    let degraded =
      List.filter (fun pt -> pt != s.Sweep.seed_point) (Array.to_list s.Sweep.cache_points)
    in
    let flat f = List.for_all (fun pt -> f pt = f (List.hd degraded)) degraded in
    (s, degraded, flat (fun pt -> pt.Sweep.l1i_mpki), flat (fun pt -> pt.Sweep.l2_mpki))
  in
  let seen_flat = ref 0 in
  List.iter
    (fun name ->
      let s, degraded, l1i_flat, l2_flat = study name in
      let m = s.Sweep.degradation in
      Alcotest.(check int) (name ^ ": two coefficients") 2 (Array.length m.Pi_stats.Multireg.coefficients);
      List.iteri
        (fun j is_flat ->
          if is_flat then begin
            incr seen_flat;
            Alcotest.(check (float 0.0)) (Printf.sprintf "%s: flat x%d coefficient" name (j + 1)) 0.0
              m.Pi_stats.Multireg.coefficients.(j);
            Alcotest.(check (float 0.0)) (Printf.sprintf "%s: flat x%d SE" name (j + 1)) 0.0
              m.Pi_stats.Multireg.coefficient_standard_errors.(j)
          end)
        [ l1i_flat; l2_flat ];
      if l1i_flat && l2_flat then
        Alcotest.(check (float 1e-12)) (name ^ ": intercept-only fit is the mean CPI")
          (Pi_stats.Descriptive.mean (Array.of_list (List.map (fun pt -> pt.Sweep.cache_cpi) degraded)))
          m.Pi_stats.Multireg.intercept;
      if not (l1i_flat || l2_flat) then begin
        let plain =
          Pi_stats.Multireg.fit
            (Array.of_list (List.map (fun pt -> [| pt.Sweep.l1i_mpki; pt.Sweep.l2_mpki |]) degraded))
            (Array.of_list (List.map (fun pt -> pt.Sweep.cache_cpi) degraded))
        in
        Alcotest.(check bool) (name ^ ": varying predictors keep the plain fit") true (plain = m)
      end)
    [ "183.equake"; "470.lbm"; "456.hmmer"; "429.mcf" ];
  Alcotest.(check bool) "some benchmark has a flat predictor" true (!seen_flat > 0)

(* The shared L2 layer on the cache axis: lanes are grouped by L2
   geometry (the 100-point grid is 10 groups of 10), and a group's set
   splits only when a fetch miss is taken by some of its lanes and not
   others (their L1Is differ). Driven on a 64 KB L2 (most referenced sets
   split), with the data prefetcher (fills on clean and split sets),
   without wrong-path effects, on a heap_random data side, with warmup;
   cut into 1, 2 and 3 shards (3 cuts groups at lanes 33 and 66), and as
   a 5-lane subset holding two partial groups, packed anew and selected
   from the grid batch, as a steered study replays it. Every lane must be
   %h-equal to a sequential replay of its geometry. The L1I layer groups
   lanes by L1I geometry across L2 groups: a 10-lane batch of one 2-way
   L1I over every L2 variant, whose lanes disagree on the wrong-path L2
   probe and so split L1I sets, must also equal the oracle (and its
   selection from the grid batch, the sequential replay). *)
let tiny_l2 (base : Pipeline.config) =
  { base with Pipeline.l2 = { Cache.size_bytes = 64 * 1024; assoc = 8; line_bytes = 64 } }

let test_shared_l2_golden () =
  let warmup_blocks = 2000 in
  let l1i_splits =
    Pi_obs.Metrics.counter ~labels:[ ("axis", "cache") ] "pi_obs_sweep_l1i_split_sets_total"
  in
  let splits0 = Pi_obs.Metrics.counter_value l1i_splits in
  let check label batch got want_of =
    let src = Replay.batch_src batch in
    Array.iteri
      (fun j (c : Pipeline.counts) ->
        let want : Pipeline.counts = want_of src.(j) in
        let lane = Printf.sprintf "%s lane %s" label (Replay.batch_names batch).(j) in
        Alcotest.(check string)
          (lane ^ ": cycles %h")
          (Printf.sprintf "%h" want.Pipeline.cycles)
          (Printf.sprintf "%h" c.Pipeline.cycles);
        check_counts lane c want)
      got
  in
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      List.iter
        (fun (machine_name, base) ->
          let plan = Replay.compile base trace in
          let configs = geometries base in
          let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
          List.iter
            (fun (pl_name, placement) ->
              let label = Printf.sprintf "%s/%s/%s" bench_name machine_name pl_name in
              let want =
                Array.map
                  (fun cfg -> lazy (sequential ~warmup_blocks base plan placement cfg))
                  configs
              in
              let batch = Replay.cache_batch_of ~l1i ~l2 configs in
              List.iter
                (fun shards ->
                  Array.iter
                    (fun sub ->
                      check
                        (Printf.sprintf "%s %d shards" label shards)
                        sub
                        (Replay.run_many ~warmup_blocks plan sub placement)
                        (fun i -> Lazy.force want.(i)))
                    (Replay.shard batch ~shards))
                [ 1; 2; 3 ];
              (* Grid index = 10 x L1I variant + L2 variant: lanes 0, 10
                 and 20 share an L2 geometry, as do 3 and 13. *)
              let subset = [| 13; 0; 20; 3; 10 |] in
              let sub = Replay.cache_batch_of ~l1i ~l2 (Array.map (fun i -> configs.(i)) subset) in
              check (label ^ " 5-lane subset") sub
                (Replay.run_many ~warmup_blocks plan sub placement)
                (fun k -> Lazy.force want.(subset.(k)));
              (* The same subset, and the one-L1I lanes below, as selections
                 of the grid batch: lanes keep their grid indices. *)
              let select what idxs =
                let sel = Replay.select batch idxs in
                let sorted a = List.sort compare (Array.to_list a) in
                Alcotest.(check (list int))
                  (label ^ " " ^ what ^ ": lanes keep grid indices")
                  (sorted idxs) (sorted (Replay.batch_src sel));
                Alcotest.(check (list int)) (label ^ " " ^ what ^ ": no fallbacks") []
                  (sorted (Replay.batch_fallback sel));
                check (label ^ " " ^ what) sel
                  (Replay.run_many ~warmup_blocks plan sel placement)
                  (fun i -> Lazy.force want.(i))
              in
              select "5-lane select" subset;
              select "one-L1I select" (Array.init 10 (fun k -> 10 + k));
              (* Grid lanes 10-19: the 2-way L1I over the 10 L2 variants. *)
              let one_l1i = Array.init 10 (fun k -> 10 + k) in
              let sub = Replay.cache_batch_of ~l1i ~l2 (Array.map (fun i -> configs.(i)) one_l1i) in
              check (label ^ " one L1I geometry") sub
                (Replay.run_many ~warmup_blocks plan sub placement)
                (fun k ->
                  let name, gi, gd = configs.(one_l1i.(k)) in
                  let c = Lazy.force want.(one_l1i.(k)) in
                  check_counts (Printf.sprintf "%s %s: replay = oracle" label name) c
                    (Pipeline.run_unoptimized ~warmup_blocks
                       { base with Pipeline.l1i = gi; l2 = gd }
                       trace placement);
                  c))
            [
              ("seed3", Placement.make p ~seed:3);
              ("heap_random", Placement.make ~heap_random:true p ~seed:3);
            ])
        [
          ("tiny-l2", tiny_l2 Machine.xeon_e5440);
          ("tiny-l2+prefetcher", Machine.with_data_prefetcher (tiny_l2 Machine.xeon_e5440));
          ("prefetcher", Machine.with_data_prefetcher Machine.xeon_e5440);
          ("tiny-l2 no wrong path", Machine.without_wrong_path (tiny_l2 Machine.xeon_e5440));
        ])
    [ "429.mcf"; "470.lbm"; "400.perlbench" ];
  Alcotest.(check bool) "L1I sets split" true (Pi_obs.Metrics.counter_value l1i_splits > splits0)

let suite =
  [
    ( "cache_sweep",
      [
        Alcotest.test_case "golden matrix: 100 lanes x 3 benches x 2 seeds x 2 machines" `Quick
          test_golden_matrix;
        Alcotest.test_case "golden with warmup" `Quick test_golden_with_warmup;
        Alcotest.test_case "shard partition and merge" `Quick test_shard_partition;
        Alcotest.test_case "study: flat miss rates fit without raising" `Quick
          test_study_flat_predictors;
        Alcotest.test_case "study: fused == sequential, jobs 1 == jobs 4" `Quick
          test_study_fused_equals_sequential;
        Alcotest.test_case "cache_configurations memoized and distinct" `Quick
          test_configurations_memoized;
        Alcotest.test_case "Cache.create geometry validation" `Quick test_cache_create_validation;
        Alcotest.test_case "batch rejects duplicates and mixed lines" `Quick
          test_batch_rejections;
        Alcotest.test_case "shared L2: tiny L2, prefetcher, no wrong path, heap_random, shards"
          `Quick test_shared_l2_golden;
      ] );
  ]
