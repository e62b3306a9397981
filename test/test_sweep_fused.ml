(* Golden-equivalence tests for the fused sweep engine: Replay.run_many
   must reproduce the sequential per-config loop field-for-field
   (bit-identical cycles included) for every lane, across benchmarks x
   seeds x machines, with and without warmup — and lane sharding must be
   deterministic: any shard count, sequential or domain-parallel, yields
   the same study. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay
module Machine = Pi_uarch.Machine
module Sweep = Pi_uarch.Sweep
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

let configs = Array.of_list (Sweep.configurations ())

(* The sequential reference for one lane: exactly Sweep's per-config path. *)
let sequential ~warmup_blocks base plan placement i =
  let name, make = configs.(i) in
  let config = Machine.with_predictor base ~name make in
  Replay.run ~warmup_blocks (Replay.with_config plan config) placement

let check_batch ~warmup_blocks label base plan placement =
  let batch = Replay.batch_of configs in
  let fused = Replay.run_many ~warmup_blocks plan batch placement in
  let src = Replay.batch_src batch in
  Array.iteri
    (fun j c ->
      let i = src.(j) in
      check_counts
        (Printf.sprintf "%s lane %s" label (fst configs.(i)))
        c
        (sequential ~warmup_blocks base plan placement i))
    fused

(* Every lane of the full 145-config grid, bit-exact, over 3 benches x 2
   seeds x 2 machines (the netburst machine exercises the trace cache and
   the higher penalty set; both machines run wrong-path effects, the state
   that splits L1I/L2 sets into per-lane copies). *)
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

(* The batch partition: 143 of the 145 grid configurations carry kernels
   (bimodal/gshare/GAs/hybrid); the two static predictors fall back. Fused
   and fallback indices together cover the grid exactly once. *)
let test_batch_partition () =
  let batch = Replay.batch_of configs in
  Alcotest.(check int) "fused lanes" 143 (Replay.batch_lanes batch);
  let fallback = Replay.batch_fallback batch in
  let fallback_names =
    List.sort compare (Array.to_list (Array.map (fun i -> fst configs.(i)) fallback))
  in
  Alcotest.(check (list string))
    "fallback = static predictors"
    [ "static-not-taken"; "static-taken" ]
    fallback_names;
  let covered = Array.append (Replay.batch_src batch) fallback in
  Alcotest.(check (list int))
    "src + fallback cover the grid"
    (List.init (Array.length configs) (fun i -> i))
    (List.sort compare (Array.to_list covered));
  Alcotest.(check bool) "packed tables non-empty" true (Replay.batch_table_bytes batch > 0)

(* Sharding splits the lane set without loss or reorder of the merge: for
   several shard counts, the concatenated shard results equal the unsharded
   pass lane for lane. *)
let test_shard_partition () =
  let p, trace = traced "429.mcf" in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let placement = Placement.make p ~seed:4 in
  let batch = Replay.batch_of configs in
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
                  check_counts
                    (Printf.sprintf "%d-way shard lane %s" shards (fst configs.(ssrc.(j))))
                    c reference
              | None -> Alcotest.fail "shard lane not in unsharded batch")
            counts)
        sub;
      Alcotest.(check int)
        (Printf.sprintf "%d-way sharding covers all lanes" shards)
        (Replay.batch_lanes batch) !seen)
    [ 2; 4; 7 ]

let check_studies_equal label (a : Sweep.study) (b : Sweep.study) =
  Alcotest.(check int)
    (label ^ ": point count") (Array.length b.Sweep.points) (Array.length a.Sweep.points);
  Array.iteri
    (fun i (pa : Sweep.point) ->
      let pb = b.Sweep.points.(i) in
      Alcotest.(check string) (label ^ ": name") pb.Sweep.config_name pa.Sweep.config_name;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s mpki+cpi bit-identical" label pa.Sweep.config_name)
        true
        (pa.Sweep.mpki = pb.Sweep.mpki && pa.Sweep.cpi = pb.Sweep.cpi))
    a.Sweep.points;
  Alcotest.(check bool)
    (label ^ ": perfect/ltage bit-identical") true
    (a.Sweep.perfect_cpi = b.Sweep.perfect_cpi
    && a.Sweep.ltage_point = b.Sweep.ltage_point
    && a.Sweep.predicted_perfect_cpi = b.Sweep.predicted_perfect_cpi
    && a.Sweep.predicted_ltage_cpi = b.Sweep.predicted_ltage_cpi)

(* The study-level contract: fused (any shard count, sequential or
   Scheduler-parallel) == per-config sequential loop, the `--jobs 1` ==
   `--jobs 4` determinism case included. *)
let test_study_fused_equals_sequential () =
  let p, trace = traced "400.perlbench" in
  let placement = Placement.make p ~seed:3 in
  let benchmark = "400.perlbench" in
  let baseline =
    Sweep.run_study ~warmup_blocks:500 ~fused:false ~benchmark trace placement
  in
  Alcotest.(check int) "baseline fallback lanes" 145 baseline.Sweep.fallback_lanes;
  let fused = Sweep.run_study ~warmup_blocks:500 ~benchmark trace placement in
  Alcotest.(check int) "fused lanes" 143 fused.Sweep.fused_lanes;
  Alcotest.(check int) "fallback lanes" 2 fused.Sweep.fallback_lanes;
  Alcotest.(check int) "warmup recorded" 500 fused.Sweep.warmup_blocks;
  check_studies_equal "fused==sequential" fused baseline;
  let sharded_seq =
    Sweep.run_study ~warmup_blocks:500 ~shards:4 ~benchmark trace placement
  in
  Alcotest.(check int) "4 shards recorded" 4 sharded_seq.Sweep.shards;
  check_studies_equal "shards=4 sequential" sharded_seq baseline;
  let jobs1 =
    Sweep.run_study ~warmup_blocks:500 ~shards:4
      ~map_shards:(Pi_campaign.Campaign.sweep_shard_map ~jobs:1 ())
      ~benchmark trace placement
  in
  let jobs4 =
    Sweep.run_study ~warmup_blocks:500 ~shards:4
      ~map_shards:(Pi_campaign.Campaign.sweep_shard_map ~jobs:4 ())
      ~benchmark trace placement
  in
  check_studies_equal "jobs=1" jobs1 baseline;
  check_studies_equal "jobs=4 == jobs=1" jobs4 jobs1

(* Satellite: the grid list is memoized — one shared list, not a rebuild
   per call. *)
let test_configurations_memoized () =
  Alcotest.(check bool)
    "configurations () returns the same list" true
    (Sweep.configurations () == Sweep.configurations ());
  Alcotest.(check int) "145 configurations" 145 (List.length (Sweep.configurations ()))

(* ------------------------------------------------------------------ *)
(* The per-domain scratch pool. A pass of either axis, scalar replay
   included, borrows whatever scratch its domain last returned and may use
   any one at least as large as it needs, so no pass may depend on which
   passes ran before it on the same domain, or beside it on another
   thread. "Fresh" is a pass on a newly spawned domain, whose pool starts
   empty. *)

let fresh f = Domain.join (Domain.spawn f)

(* Narrower L1I sets and wider L2 ways than the Xeon: a scratch shape
   neither of the other machines needs. *)
let wide_machine =
  {
    Machine.xeon_e5440 with
    Pipeline.name = "wide";
    l1i = { Pi_uarch.Cache.size_bytes = 32 * 1024; assoc = 4; line_bytes = 64 };
    l2 = { Pi_uarch.Cache.size_bytes = 4 * 1024 * 1024; assoc = 16; line_bytes = 64 };
  }

let pick names =
  Array.of_list (List.map (fun n -> List.find (fun (m, _) -> m = n) (Array.to_list configs)) names)

(* 143 lanes; 4 lanes of the grid's largest tables; 2 lanes of small ones. *)
let pool_batches =
  [
    ("grid", Replay.batch_of configs);
    ("big-tables", Replay.batch_of (pick [ "gshare-16/12"; "gas-16/12"; "hybrid-16/12"; "bimodal-16" ]));
    ("small-tables", Replay.batch_of (pick [ "bimodal-8"; "gshare-10/4" ]));
  ]

let check_lanes label got want =
  Alcotest.(check int) (label ^ ": lanes") (Array.length want) (Array.length got);
  Array.iteri (fun j c -> check_counts (Printf.sprintf "%s lane %d" label j) c want.(j)) got

(* Cache lanes over a machine's own geometries: the seed pair and three
   variants, each shaping the L1I or the L2 groups differently. *)
let cache_batch (base : Pipeline.config) =
  let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
  let v = Sweep.apply_cache_variant in
  Replay.cache_batch_of ~l1i ~l2
    [|
      ("seed", l1i, l2);
      ("l1i-half", v l1i Sweep.Half, l2);
      ("l2-double", l1i, v l2 Sweep.Double);
      ("w2", v l1i (Sweep.Ways 2), v l2 (Sweep.Ways 2));
    |]

(* The 100-geometry grid of the cache sweep over a machine. *)
let cache_grid_batch (base : Pipeline.config) =
  let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
  Replay.cache_batch_of ~l1i ~l2
    (Array.of_list
       (List.map
          (fun (name, vi, vd) ->
            (name, Sweep.apply_cache_variant l1i vi, Sweep.apply_cache_variant l2 vd))
          (Sweep.cache_configurations ())))

(* Every kind of pass that borrows the pool, on one machine: the predictor
   batches, a cache batch over its own geometries and a scalar replay (the
   one-lane walk). *)
let pool_passes base plan placement =
  List.map (fun (name, batch) -> (name, fun () -> Replay.run_many plan batch placement)) pool_batches
  @ [
      (let batch = cache_batch base in
       ("cache", fun () -> Replay.run_many plan batch placement));
      ("scalar", fun () -> [| Replay.run plan placement |]);
    ]

let test_pool_reuse () =
  let p, trace = traced "400.perlbench" in
  let placement = Placement.make p ~seed:2 in
  let runs =
    List.concat_map
      (fun (mname, base) ->
        let plan = Replay.compile base trace in
        List.map (fun (kind, f) -> (mname ^ "/" ^ kind, f)) (pool_passes base plan placement))
      (machines @ [ ("wide", wide_machine) ])
  in
  let want = List.map (fun (label, f) -> (label, fresh f)) runs in
  (* Every (machine, pass) in one order and then in reverse, all on this
     domain: each pass inherits the scratch the previous one left, larger
     or smaller in lanes, table bytes, L1I sets and L2 shape, of either
     axis. *)
  List.iter
    (fun (label, f) ->
      check_lanes (label ^ " after the pool's previous pass") (f ()) (List.assoc label want))
    (runs @ List.rev runs)

let test_pool_sharded_domains () =
  let p, trace = traced "429.mcf" in
  let placement = Placement.make p ~seed:5 in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let study ?map_shards ~shards () =
    Sweep.run_study ~plan ~shards ?map_shards ~benchmark:"429.mcf" trace placement
  in
  let cache_grid ?map_shards ~shards () =
    let points, _, _, _, _ = Sweep.run_cache_grid ~plan ~shards ?map_shards trace placement in
    points
  in
  let want = fresh (fun () -> study ~shards:1 ()) in
  let want_cache = fresh (fun () -> cache_grid ~shards:1 ()) in
  let want_scalar = fresh (fun () -> Replay.run plan placement) in
  (* Leave small scratches of both axes behind on this domain first. *)
  List.iter (fun (_, f) -> ignore (f ())) (List.rev (pool_passes base plan placement));
  let map_shards = Pi_campaign.Campaign.sweep_shard_map ~jobs:2 () in
  check_studies_equal "2 shards on 2 domains" (study ~shards:2 ~map_shards ()) want;
  Alcotest.(check bool)
    "cache grid: 2 shards on 2 domains" true
    (cache_grid ~shards:2 ~map_shards () = want_cache);
  check_counts "scalar after the sharded runs" (Replay.run plan placement) want_scalar;
  check_studies_equal "unsharded after the sharded run" (study ~shards:1 ()) want;
  Alcotest.(check bool)
    "cache grid: unsharded after the sharded run" true
    (cache_grid ~shards:1 () = want_cache)

let test_pool_threads () =
  (* A 40k-block trace: a 143-lane or 100-lane pass then outlasts the
     runtime's 50 ms thread tick, so the threads' passes overlap. *)
  let p = (Pi_workloads.Spec.find "445.gobmk").Pi_workloads.Bench.build ~scale:1 in
  let trace = Pi_layout.Run_limiter.trace p ~budget_blocks:40_000 in
  let placement = Placement.make p ~seed:3 in
  let base = Machine.netburst_like in
  let plan = Replay.compile base trace in
  let grid = List.assoc "grid" pool_batches and small = List.assoc "big-tables" pool_batches in
  (* One cache batch value, shared by both threads. *)
  let cache = cache_grid_batch base in
  let passes =
    [
      ("grid", fun () -> Replay.run_many plan grid placement);
      ("small", fun () -> Replay.run_many plan small placement);
      ("cache", fun () -> Replay.run_many plan cache placement);
      ("scalar", fun () -> [| Replay.run plan placement |]);
    ]
  in
  let want = List.map (fun (kind, f) -> (kind, fresh f)) passes in
  (* Two systhreads of this domain, each interleaving every pass kind; both
     open on the shared cache batch. The runtime switches between them
     mid-pass, so one thread's pass finds the pool empty or holding the
     other's scratch. *)
  let schedule =
    [|
      [ "cache"; "grid"; "cache"; "scalar"; "small"; "cache" ];
      [ "cache"; "small"; "cache"; "scalar"; "grid"; "cache" ];
    |]
  in
  let results = Array.make 2 [] in
  let worker t () =
    List.iter
      (fun kind -> results.(t) <- (kind, (List.assoc kind passes) ()) :: results.(t))
      schedule.(t)
  in
  let threads = List.init 2 (fun t -> Thread.create (worker t) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun t rs ->
      Alcotest.(check int) (Printf.sprintf "thread %d passes" t) 6 (List.length rs);
      List.iteri
        (fun r (kind, got) ->
          check_lanes (Printf.sprintf "thread %d pass %d (%s)" t r kind) got (List.assoc kind want))
        (List.rev rs))
    results

(* ------------------------------------------------------------------ *)
(* The shared cache layers. A predictor batch is one L1I group and one L2
   group: its lanes share one image per set until a lane's own wrong-path
   touch (L1I) or load (L2), or a fetch miss not every lane took (L2),
   splits the set. These inputs drive both paths hard: a 64 KB L2 (most
   referenced sets split), an 8 KB L1I (wrong-path touches evict lines, so
   lanes' L1Is diverge and fetch lines are partly missed), the data
   prefetcher (fills on clean and split sets), no wrong path (nothing
   splits), a heap_random data side, warmup (group counters are
   snapshotted with the lanes'), a 5-lane sub-batch, and selections of the
   grid batch as a steered sweep replays them. Every lane must be %h-equal to a sequential replay of its
   config, and on the tiny-L1I machines to the oracle too; those machines
   must split L1I sets. *)

let tiny_l2 (base : Pipeline.config) =
  {
    base with
    Pipeline.name = base.Pipeline.name ^ "-tiny-l2";
    l2 = { Pi_uarch.Cache.size_bytes = 64 * 1024; assoc = 8; line_bytes = 64 };
  }

let tiny_l1i (base : Pipeline.config) =
  { base with Pipeline.l1i = { Pi_uarch.Cache.size_bytes = 8 * 1024; assoc = 2; line_bytes = 64 } }

let shared_l2_machines =
  [
    ("tiny-l2", tiny_l2 Machine.xeon_e5440);
    ("tiny-l1i", tiny_l1i Machine.xeon_e5440);
    ("tiny-l1i+l2", tiny_l1i (tiny_l2 Machine.xeon_e5440));
    ("prefetcher", Machine.with_data_prefetcher Machine.xeon_e5440);
    ("tiny-l2+prefetcher", Machine.with_data_prefetcher (tiny_l2 Machine.xeon_e5440));
    ("tiny-l2 no wrong path", Machine.without_wrong_path (tiny_l2 Machine.xeon_e5440));
  ]

let check_lanes_h label batch got want_of =
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

let steered_sub_batch = [ "bimodal-8"; "gshare-10/4"; "gas-16/12"; "hybrid-16/12"; "gshare-16/12" ]
(* gas-13/11 is the grid's last single-table lane, hybrid-11/6 its first
   hybrid one. *)
let four_kinds_and_fallback =
  [ "hybrid-11/6"; "static-taken"; "gas-13/11"; "bimodal-10"; "gshare-12/6" ]

let l1i_splits axis =
  Pi_obs.Metrics.counter ~labels:[ ("axis", axis) ] "pi_obs_sweep_l1i_split_sets_total"

let test_shared_l2_golden () =
  let warmup_blocks = 2000 in
  let splits = l1i_splits "predictor" in
  let splits0 = Pi_obs.Metrics.counter_value splits in
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      List.iter
        (fun (machine_name, base) ->
          let plan = Replay.compile base trace in
          let oracle = base.Pipeline.l1i <> Machine.xeon_e5440.Pipeline.l1i in
          List.iter
            (fun (pl_name, placement) ->
              let label = Printf.sprintf "%s/%s/%s" bench_name machine_name pl_name in
              let want = Array.init (Array.length configs) (fun i ->
                  lazy
                    (let c = sequential ~warmup_blocks base plan placement i in
                     (if oracle then
                        let name, make = configs.(i) in
                        check_counts
                          (Printf.sprintf "%s %s: replay = oracle" label name)
                          c
                          (Pipeline.run_unoptimized ~warmup_blocks
                             (Machine.with_predictor base ~name make)
                             trace placement));
                     c)) in
              let want_of i = Lazy.force want.(i) in
              let grid = Replay.batch_of configs in
              check_lanes_h label grid (Replay.run_many ~warmup_blocks plan grid placement) want_of;
              let sub = pick steered_sub_batch in
              let sub_batch = Replay.batch_of sub in
              let index_of name =
                let rec go i = if fst configs.(i) = name then i else go (i + 1) in
                go 0
              in
              check_lanes_h (label ^ " 5-lane") sub_batch
                (Replay.run_many ~warmup_blocks plan sub_batch placement)
                (fun k -> want_of (index_of (fst sub.(k))));
              (* As selections of the grid batch, their counter tables
                 gathered from its image: the same 5 lanes; the lanes on
                 either side of the single-table/hybrid boundary plus the
                 other two kinds and a static fallback; and the grid
                 without bimodal-16, which moves every later table 64 KB
                 down (a table read at its grid offset lands on another
                 lane's table). Lanes and fallbacks keep their grid
                 indices. *)
              List.iter
                (fun (what, names) ->
                  let idxs = List.map index_of names in
                  let sel = Replay.select grid (Array.of_list idxs) in
                  let fallback, lanes =
                    List.partition (fun i -> Array.mem i (Replay.batch_fallback grid)) idxs
                  in
                  let sorted a = List.sort compare (Array.to_list a) in
                  Alcotest.(check (list int))
                    (label ^ " " ^ what ^ ": lanes keep grid indices")
                    (List.sort compare lanes) (sorted (Replay.batch_src sel));
                  Alcotest.(check (list int))
                    (label ^ " " ^ what ^ ": fallbacks keep grid indices")
                    (List.sort compare fallback) (sorted (Replay.batch_fallback sel));
                  check_lanes_h (label ^ " " ^ what) sel
                    (Replay.run_many ~warmup_blocks plan sel placement)
                    want_of)
                [
                  ("5-lane select", steered_sub_batch);
                  ("four-kind select", four_kinds_and_fallback);
                  ( "grid-but-one select",
                    List.filter (( <> ) "bimodal-16") (List.map fst (Array.to_list configs)) );
                ])
            [
              ("seed3", Placement.make p ~seed:3);
              ("heap_random", Placement.make ~heap_random:true p ~seed:3);
            ])
        shared_l2_machines)
    [ "470.lbm"; "403.gcc" ];
  Alcotest.(check bool) "L1I sets split" true (Pi_obs.Metrics.counter_value splits > splits0)

(* The cache-layer counters, bumped once per pass by the same layer code
   for L1I and L2: lane references served by a group image or by a split
   set, and sets split. With no warmup the two paths add up to the lanes'
   own access counts of that cache (an L1I repeat of the last fetched
   line is served for the whole batch at once, as a shared reference).
   These inputs make both paths and splits occur in both caches on both
   axes: predictor lanes on a tiny L1I, whose wrong-path touches split L1I
   sets; cache lanes on a tiny L2, whose L2 probes disagree within an L1I
   group and whose fetch misses disagree within an L2 group. *)
let test_shared_l2_metrics () =
  let module M = Pi_obs.Metrics in
  List.iter
    (fun (axis, bench_name, base, batch) ->
      let p, trace = traced bench_name in
      let placement = Placement.make p ~seed:2 in
      let plan = Replay.compile base trace in
      let series cache =
        let name = Printf.sprintf "pi_obs_sweep_%s_%s_total" cache in
        let refs path = M.counter ~labels:[ ("axis", axis); ("path", path) ] (name "refs") in
        [ refs "shared"; refs "lane"; M.counter ~labels:[ ("axis", axis) ] (name "split_sets") ]
      in
      let all = series "l1i" @ series "l2" in
      let before = List.map M.counter_value all in
      let counts = Replay.run_many plan batch placement in
      let sum f = Array.fold_left (fun a c -> a + f c) 0 counts in
      match List.map2 (fun m b -> M.counter_value m - b) all before with
      | [ i_shared; i_lane; i_split; shared; lane; split ] ->
          List.iter
            (fun (cache, shared, lane, split, accesses) ->
              let label what = Printf.sprintf "%s %s: %s" axis cache what in
              Alcotest.(check bool) (label "shared references") true (shared > 0);
              Alcotest.(check bool) (label "per-lane references") true (lane > 0);
              Alcotest.(check bool) (label "split sets") true (split > 0);
              Alcotest.(check int)
                (label "paths add up to the lanes' accesses")
                accesses (shared + lane))
            [
              ("L1I", i_shared, i_lane, i_split, sum (fun c -> c.Pipeline.l1i_accesses));
              ("L2", shared, lane, split, sum (fun c -> c.Pipeline.l2_accesses));
            ]
      | _ -> assert false)
    [
      ("predictor", "403.gcc", tiny_l1i Machine.xeon_e5440, Replay.batch_of configs);
      ("cache", "429.mcf", tiny_l2 Machine.xeon_e5440, cache_grid_batch (tiny_l2 Machine.xeon_e5440));
    ]

let suite =
  [
    ( "sweep_fused",
      [
        Alcotest.test_case "golden matrix: 145 lanes x 3 benches x 2 seeds x 2 machines" `Quick
          test_golden_matrix;
        Alcotest.test_case "golden with warmup" `Quick test_golden_with_warmup;
        Alcotest.test_case "batch partition: 143 fused + 2 fallback" `Quick test_batch_partition;
        Alcotest.test_case "shard partition and merge" `Quick test_shard_partition;
        Alcotest.test_case "study: fused == sequential, jobs 1 == jobs 4" `Quick
          test_study_fused_equals_sequential;
        Alcotest.test_case "configurations memoized" `Quick test_configurations_memoized;
        Alcotest.test_case "scratch pool: any prior pass, any shape" `Quick test_pool_reuse;
        Alcotest.test_case "scratch pool: 2 shards on 2 domains" `Quick test_pool_sharded_domains;
        Alcotest.test_case "scratch pool: 2 systhreads on one domain" `Quick test_pool_threads;
        Alcotest.test_case "shared L2: tiny L2, prefetcher, no wrong path, heap_random, 5 lanes"
          `Quick test_shared_l2_golden;
        Alcotest.test_case "shared L2: path and split counters" `Quick test_shared_l2_metrics;
      ] );
  ]
