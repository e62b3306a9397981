(* Microbenchmark for the compiled-replay path: times the one-pass trace
   build (checked against the two-pass reference), plan compilation, the
   legacy interpreter and plan replay over the same placements, checks that
   both produce identical counts, and renders the numbers as JSON for the
   perf trajectory (BENCH_pipeline.json). Two legs: the default config,
   whose bump-heap data layout every seed shares, so its data side is
   simulated once (as campaigns do) and timed on its own; and heap
   randomization, where every seed has its own data layout and each
   replay builds its own data side. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay

type result = {
  bench : string;
  scale : int;
  layouts : int;
  blocks : int;  (* dynamic blocks per observation *)
  mem_events : int;
  plan_words : int;
  trace_seconds : float;  (* one-pass Run_limiter.trace, best of [grid_reps] *)
  trace_identical : bool;  (* that trace = the two-pass reference *)
  compile_seconds : float;
  data_side_seconds : float;  (* the shared data side, built once for every layout *)
  legacy_seconds : float;  (* total wall time for [layouts] legacy observations *)
  replay_seconds : float;  (* same placements through the compiled plan *)
  legacy_obs_per_sec : float;
  replay_obs_per_sec : float;
  replay_blocks_per_sec : float;
  speedup : float;  (* replay_obs_per_sec / legacy_obs_per_sec *)
  identical : bool;  (* replay counts = legacy counts on every placement *)
  (* The heap-randomized leg: per-seed data layouts and data sides. *)
  heap_random_legacy_seconds : float;
  heap_random_replay_seconds : float;  (* data side builds included *)
  heap_random_replay_obs_per_sec : float;
  heap_random_speedup : float;
  heap_random_identical : bool;
}

(* Durations on the monotonic clock: an NTP step during a timed phase must
   not bend the perf trajectory. *)
let now () = Pi_obs.Clock.now ()

(* Grid timings are best-of-N; see [run_sweep]. *)
let grid_reps = 5

module Span = Pi_obs.Span

(* [f ()] and its wall time. *)
let wall f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* [wall] inside a [name] span tagged with the benchmark. *)
let timed ~bench name f = Span.with_ ~name ~args:[ ("bench", bench) ] (fun () -> wall f)

(* The fastest of [reps] runs of [f] through [measure] ([wall] or
   [timed]), and that run's result. The runs are deterministic, so the
   spread between them is scheduler and clock noise, not workload
   variance. *)
let best_of ~reps measure f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to reps do
    let r, dt = measure f in
    if dt < !best then begin
      best := dt;
      result := Some r
    end
  done;
  (Option.get !result, !best)

let per_sec count seconds = if seconds > 0.0 then count /. seconds else 0.0

let trace_of config program =
  Pi_layout.Run_limiter.trace ~seed:config.Experiment.master_seed program
    ~budget_blocks:config.Experiment.budget_blocks

(* Every benchmark's prologue: the workload's config and program, its trace
   and warmup length, built as [Experiment.prepare] builds them. *)
let subject ~bench ~scale =
  let config = { Experiment.default_config with scale } in
  let program = (Pi_workloads.Spec.find bench).Pi_workloads.Bench.build ~scale in
  let trace = trace_of config program in
  let warmup_blocks =
    int_of_float
      (config.Experiment.warmup_fraction
      *. float_of_int (Pi_isa.Trace.blocks_executed trace))
  in
  (config, program, trace, warmup_blocks)

let two_pass_trace ?(seed = 42) program ~budget_blocks =
  let limits =
    match Pi_layout.Run_limiter.choose ~seed program ~budget_blocks with
    | None -> { Pi_isa.Interp.max_blocks = budget_blocks; stop_proc = None }
    | Some t -> Pi_layout.Run_limiter.limits t
  in
  Pi_isa.Interp.run ~seed ~limits program

let run ?(bench = "400.perlbench") ?(scale = 4) ?(layouts = 12) () =
  if layouts < 1 then invalid_arg "Perf_bench.run: layouts < 1";
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let machine = config.Experiment.machine in
  let data = Option.get (Pi_layout.Placement.shared_data program) in
  let placements = Array.init layouts (fun i -> Pi_layout.Placement.with_data data ~seed:(i + 1)) in
  let heap_random_placements =
    Array.init layouts (fun i -> Pi_layout.Placement.make ~heap_random:true program ~seed:(i + 1))
  in
  (* Warm both paths once outside the timed region (page faults, lazy
     initialization) using a placement that is not part of the measurement. *)
  let warm_placement = Pi_layout.Placement.make program ~seed:(layouts + 1) in
  ignore (Pipeline.run_unoptimized ~warmup_blocks machine trace warm_placement);
  ignore (Replay.run ~warmup_blocks (Replay.compile machine trace) warm_placement);
  let timed name f = timed ~bench name f in
  let _, trace_seconds =
    best_of ~reps:grid_reps (timed "perf.trace") (fun () -> trace_of config program)
  in
  let trace_identical =
    trace
    = two_pass_trace ~seed:config.Experiment.master_seed program
        ~budget_blocks:config.Experiment.budget_blocks
  in
  let plan, compile_seconds = timed "perf.compile" (fun () -> Replay.compile machine trace) in
  let data_side, data_side_seconds =
    timed "perf.data_side" (fun () -> Replay.data_side plan data)
  in
  let legacy_leg placements =
    timed "perf.legacy" (fun () ->
        Array.map (fun p -> Pipeline.run_unoptimized ~warmup_blocks machine trace p) placements)
  in
  let legacy, legacy_seconds = legacy_leg placements in
  let replayed, replay_seconds =
    timed "perf.replay" (fun () ->
        Array.map (fun p -> Replay.run ~warmup_blocks ~data_side plan p) placements)
  in
  let hr_legacy, heap_random_legacy_seconds = legacy_leg heap_random_placements in
  let hr_replayed, heap_random_replay_seconds =
    timed "perf.replay" (fun () ->
        Array.map (fun p -> Replay.run ~warmup_blocks plan p) heap_random_placements)
  in
  let obs = float_of_int layouts in
  let blocks = Replay.blocks plan in
  {
    bench;
    scale;
    layouts;
    blocks;
    mem_events = Replay.mem_events plan;
    plan_words = Replay.words plan;
    trace_seconds;
    trace_identical;
    compile_seconds;
    data_side_seconds;
    legacy_seconds;
    replay_seconds;
    legacy_obs_per_sec = per_sec obs legacy_seconds;
    replay_obs_per_sec = per_sec obs replay_seconds;
    replay_blocks_per_sec = per_sec (obs *. float_of_int blocks) replay_seconds;
    speedup = per_sec legacy_seconds replay_seconds;
    identical = legacy = replayed;
    heap_random_legacy_seconds;
    heap_random_replay_seconds;
    heap_random_replay_obs_per_sec = per_sec obs heap_random_replay_seconds;
    heap_random_speedup = per_sec heap_random_legacy_seconds heap_random_replay_seconds;
    heap_random_identical = hr_legacy = hr_replayed;
  }

let to_json r =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"bench\": %S," r.bench;
      Printf.sprintf "  \"scale\": %d," r.scale;
      Printf.sprintf "  \"layouts\": %d," r.layouts;
      Printf.sprintf "  \"blocks_per_observation\": %d," r.blocks;
      Printf.sprintf "  \"mem_events_per_observation\": %d," r.mem_events;
      Printf.sprintf "  \"plan_words\": %d," r.plan_words;
      Printf.sprintf "  \"trace_seconds\": %.6f," r.trace_seconds;
      Printf.sprintf "  \"trace_identical\": %b," r.trace_identical;
      Printf.sprintf "  \"compile_seconds\": %.6f," r.compile_seconds;
      Printf.sprintf "  \"data_side_seconds\": %.6f," r.data_side_seconds;
      Printf.sprintf "  \"legacy_seconds\": %.6f," r.legacy_seconds;
      Printf.sprintf "  \"replay_seconds\": %.6f," r.replay_seconds;
      Printf.sprintf "  \"legacy_obs_per_sec\": %.2f," r.legacy_obs_per_sec;
      Printf.sprintf "  \"replay_obs_per_sec\": %.2f," r.replay_obs_per_sec;
      Printf.sprintf "  \"replay_blocks_per_sec\": %.0f," r.replay_blocks_per_sec;
      Printf.sprintf "  \"speedup\": %.3f," r.speedup;
      Printf.sprintf "  \"identical_counts\": %b," r.identical;
      Printf.sprintf "  \"heap_random_legacy_seconds\": %.6f," r.heap_random_legacy_seconds;
      Printf.sprintf "  \"heap_random_replay_seconds\": %.6f," r.heap_random_replay_seconds;
      Printf.sprintf "  \"heap_random_replay_obs_per_sec\": %.2f,"
        r.heap_random_replay_obs_per_sec;
      Printf.sprintf "  \"heap_random_speedup\": %.3f," r.heap_random_speedup;
      Printf.sprintf "  \"heap_random_identical_counts\": %b" r.heap_random_identical;
      "}";
    ]

let write_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n')

let summary r =
  Printf.sprintf
    "%s scale %d: %d blocks/obs, trace %.1fms (identical to two passes: %b)\n\
     compile %.1fms + data side %.1fms (amortized over every placement)\n\
     legacy: %.2f obs/s (%.1fms/obs)   replay: %.2f obs/s (%.1fms/obs, %.2fM blocks/s)\n\
     speedup: %.2fx   counts identical: %b   plan: %.1f MiB\n\
     heap_random (per-seed data sides): replay %.2f obs/s, speedup %.2fx, counts identical: %b"
    r.bench r.scale r.blocks (r.trace_seconds *. 1e3) r.trace_identical
    (r.compile_seconds *. 1e3) (r.data_side_seconds *. 1e3)
    r.legacy_obs_per_sec
    (1e3 *. r.legacy_seconds /. float_of_int r.layouts)
    r.replay_obs_per_sec
    (1e3 *. r.replay_seconds /. float_of_int r.layouts)
    (r.replay_blocks_per_sec /. 1e6) r.speedup r.identical
    (float_of_int (r.plan_words * 8) /. 1024.0 /. 1024.0)
    r.heap_random_replay_obs_per_sec r.heap_random_speedup r.heap_random_identical

(* Fused-sweep benchmark (BENCH_sweep.json): the full 145-configuration
   predictor study through the sequential per-config loop versus the fused
   one-pass engine, on one placement of the same traced benchmark. *)

module Sweep = Pi_uarch.Sweep

type sweep_result = {
  sweep_bench : string;
  sweep_scale : int;
  study_configs : int;
  fused_lanes : int;
  fallback_lanes : int;
  blocks_per_pass : int;
  baseline_seconds : float;
  fused_seconds : float;
  baseline_configs_per_sec : float;
  fused_configs_per_sec : float;
  lane_blocks_per_sec : float;
  sweep_speedup : float;
  sweep_identical : bool;
}

let studies_identical (a : Sweep.study) (b : Sweep.study) =
  a.Sweep.points = b.Sweep.points
  && a.Sweep.perfect_cpi = b.Sweep.perfect_cpi
  && a.Sweep.ltage_point = b.Sweep.ltage_point
  && a.Sweep.predicted_perfect_cpi = b.Sweep.predicted_perfect_cpi
  && a.Sweep.predicted_ltage_cpi = b.Sweep.predicted_ltage_cpi

let run_sweep ?(bench = "400.perlbench") ?(scale = 4) () =
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let placement = Pi_layout.Placement.make program ~seed:1 in
  (* Compile once and hand the plan to every study: a caller sweeping one
     trace would do the same, and the timed studies should measure the
     sweep, not recompilation. *)
  let plan = Pi_uarch.Replay.compile config.Experiment.machine trace in
  (* One untimed fused study warms every code path the timed studies share
     (the fallback/perfect/L-TAGE lanes go through the same Replay.run the
     baseline uses), plus page faults, the memoized grid and its scratch. *)
  ignore (Sweep.run_study ~plan ~warmup_blocks ~benchmark:bench trace placement);
  (* Time the 145-configuration grid through each path — the unit the
     fused engine replaces. The perfect/L-TAGE reference simulations and
     the regression are identical sequential work on both paths, so timing
     them would only blur the configs/sec ratio; the full studies are
     still run (untimed) below for the bit-identical check. Each path is
     timed [grid_reps] times and the minimum kept. *)
  let best_of name = best_of ~reps:grid_reps (timed ~bench name) in
  let (baseline_points, _, _, _, _), baseline_seconds =
    best_of "perf.sweep_baseline" (fun () ->
        Sweep.run_grid ~plan ~warmup_blocks ~fused:false trace placement)
  in
  let (fused_points, fused_lanes, fallback_lanes, _, _), fused_seconds =
    best_of "perf.sweep_fused" (fun () ->
        Sweep.run_grid ~plan ~warmup_blocks trace placement)
  in
  let baseline =
    Sweep.run_study ~plan ~warmup_blocks ~fused:false ~benchmark:bench trace placement
  in
  let fused = Sweep.run_study ~plan ~warmup_blocks ~benchmark:bench trace placement in
  let study_configs = Array.length fused_points in
  let blocks = Pi_isa.Trace.blocks_executed trace in
  {
    sweep_bench = bench;
    sweep_scale = scale;
    study_configs;
    fused_lanes;
    fallback_lanes;
    blocks_per_pass = blocks;
    baseline_seconds;
    fused_seconds;
    baseline_configs_per_sec =
      (if baseline_seconds > 0.0 then float_of_int study_configs /. baseline_seconds else 0.0);
    fused_configs_per_sec =
      (if fused_seconds > 0.0 then float_of_int study_configs /. fused_seconds else 0.0);
    lane_blocks_per_sec =
      (if fused_seconds > 0.0 then
         float_of_int fused_lanes *. float_of_int blocks /. fused_seconds
       else 0.0);
    sweep_speedup = (if fused_seconds > 0.0 then baseline_seconds /. fused_seconds else 0.0);
    sweep_identical = baseline_points = fused_points && studies_identical fused baseline;
  }

let sweep_to_json r =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"bench\": %S," r.sweep_bench;
      Printf.sprintf "  \"scale\": %d," r.sweep_scale;
      Printf.sprintf "  \"study_configs\": %d," r.study_configs;
      Printf.sprintf "  \"fused_lanes\": %d," r.fused_lanes;
      Printf.sprintf "  \"fallback_lanes\": %d," r.fallback_lanes;
      Printf.sprintf "  \"blocks_per_pass\": %d," r.blocks_per_pass;
      Printf.sprintf "  \"baseline_seconds\": %.6f," r.baseline_seconds;
      Printf.sprintf "  \"fused_seconds\": %.6f," r.fused_seconds;
      Printf.sprintf "  \"baseline_configs_per_sec\": %.2f," r.baseline_configs_per_sec;
      Printf.sprintf "  \"fused_configs_per_sec\": %.2f," r.fused_configs_per_sec;
      Printf.sprintf "  \"lane_blocks_per_sec\": %.0f," r.lane_blocks_per_sec;
      Printf.sprintf "  \"speedup\": %.3f," r.sweep_speedup;
      Printf.sprintf "  \"identical_studies\": %b" r.sweep_identical;
      "}";
    ]

let write_sweep_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (sweep_to_json r);
      output_char oc '\n')

let sweep_summary r =
  Printf.sprintf
    "%s scale %d sweep: %d configs (%d fused lanes + %d fallback), %d blocks/pass\n\
     per-config: %.2f configs/s (%.2fs/grid)   fused: %.2f configs/s (%.2fs/grid, %.2fM \
     lane-blocks/s)\n\
     speedup: %.2fx   studies identical: %b"
    r.sweep_bench r.sweep_scale r.study_configs r.fused_lanes r.fallback_lanes r.blocks_per_pass
    r.baseline_configs_per_sec r.baseline_seconds r.fused_configs_per_sec r.fused_seconds
    (r.lane_blocks_per_sec /. 1e6) r.sweep_speedup r.sweep_identical

(* Cache-axis benchmark (BENCH_cache_sweep.json): the 100-geometry cache
   study through the sequential per-geometry loop versus the fused
   one-pass cache batch, on one placement of the same traced benchmark.
   Same protocol as [run_sweep]: compile once, one untimed warm study,
   best-of-[grid_reps] grid timings, untimed full studies for the
   bit-identical check. *)

type cache_sweep_result = {
  cache_bench : string;
  cache_scale : int;
  cache_study_configs : int;
  cache_fused_lanes : int;
  cache_blocks_per_pass : int;
  cache_baseline_seconds : float;
  cache_fused_seconds : float;
  cache_baseline_configs_per_sec : float;
  cache_fused_configs_per_sec : float;
  cache_lane_blocks_per_sec : float;
  cache_speedup : float;
  cache_identical : bool;
}

let cache_studies_identical (a : Sweep.cache_study) (b : Sweep.cache_study) =
  a.Sweep.cache_points = b.Sweep.cache_points
  && a.Sweep.seed_point = b.Sweep.seed_point
  && a.Sweep.degradation.Pi_stats.Multireg.coefficients
     = b.Sweep.degradation.Pi_stats.Multireg.coefficients
  && a.Sweep.degradation.Pi_stats.Multireg.intercept
     = b.Sweep.degradation.Pi_stats.Multireg.intercept
  && a.Sweep.predicted_seed_cpi = b.Sweep.predicted_seed_cpi

let run_cache_sweep ?(bench = "400.perlbench") ?(scale = 4) () =
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let placement = Pi_layout.Placement.make program ~seed:1 in
  let plan = Pi_uarch.Replay.compile config.Experiment.machine trace in
  ignore (Sweep.run_cache_study ~plan ~warmup_blocks ~benchmark:bench trace placement);
  let best_of name = best_of ~reps:grid_reps (timed ~bench name) in
  let (baseline_points, _, _, _, _), baseline_seconds =
    best_of "perf.cache_sweep_baseline" (fun () ->
        Sweep.run_cache_grid ~plan ~warmup_blocks ~fused:false trace placement)
  in
  let (fused_points, fused_lanes, _, _, _), fused_seconds =
    best_of "perf.cache_sweep_fused" (fun () ->
        Sweep.run_cache_grid ~plan ~warmup_blocks trace placement)
  in
  let baseline =
    Sweep.run_cache_study ~plan ~warmup_blocks ~fused:false ~benchmark:bench trace placement
  in
  let fused = Sweep.run_cache_study ~plan ~warmup_blocks ~benchmark:bench trace placement in
  let study_configs = Array.length fused_points in
  let blocks = Pi_isa.Trace.blocks_executed trace in
  {
    cache_bench = bench;
    cache_scale = scale;
    cache_study_configs = study_configs;
    cache_fused_lanes = fused_lanes;
    cache_blocks_per_pass = blocks;
    cache_baseline_seconds = baseline_seconds;
    cache_fused_seconds = fused_seconds;
    cache_baseline_configs_per_sec =
      (if baseline_seconds > 0.0 then float_of_int study_configs /. baseline_seconds else 0.0);
    cache_fused_configs_per_sec =
      (if fused_seconds > 0.0 then float_of_int study_configs /. fused_seconds else 0.0);
    cache_lane_blocks_per_sec =
      (if fused_seconds > 0.0 then
         float_of_int fused_lanes *. float_of_int blocks /. fused_seconds
       else 0.0);
    cache_speedup = (if fused_seconds > 0.0 then baseline_seconds /. fused_seconds else 0.0);
    cache_identical = baseline_points = fused_points && cache_studies_identical fused baseline;
  }

let cache_sweep_to_json r =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"bench\": %S," r.cache_bench;
      Printf.sprintf "  \"scale\": %d," r.cache_scale;
      Printf.sprintf "  \"study_configs\": %d," r.cache_study_configs;
      Printf.sprintf "  \"fused_lanes\": %d," r.cache_fused_lanes;
      Printf.sprintf "  \"blocks_per_pass\": %d," r.cache_blocks_per_pass;
      Printf.sprintf "  \"baseline_seconds\": %.6f," r.cache_baseline_seconds;
      Printf.sprintf "  \"fused_seconds\": %.6f," r.cache_fused_seconds;
      Printf.sprintf "  \"baseline_configs_per_sec\": %.2f," r.cache_baseline_configs_per_sec;
      Printf.sprintf "  \"fused_configs_per_sec\": %.2f," r.cache_fused_configs_per_sec;
      Printf.sprintf "  \"lane_blocks_per_sec\": %.0f," r.cache_lane_blocks_per_sec;
      Printf.sprintf "  \"speedup\": %.3f," r.cache_speedup;
      Printf.sprintf "  \"identical_studies\": %b" r.cache_identical;
      "}";
    ]

let write_cache_sweep_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (cache_sweep_to_json r);
      output_char oc '\n')

let cache_sweep_summary r =
  Printf.sprintf
    "%s scale %d cache sweep: %d geometries (all fused), %d blocks/pass\n\
     per-geometry: %.2f configs/s (%.2fs/grid)   fused: %.2f configs/s (%.2fs/grid, %.2fM \
     lane-blocks/s)\n\
     speedup: %.2fx   studies identical: %b"
    r.cache_bench r.cache_scale r.cache_study_configs r.cache_blocks_per_pass
    r.cache_baseline_configs_per_sec r.cache_baseline_seconds r.cache_fused_configs_per_sec
    r.cache_fused_seconds
    (r.cache_lane_blocks_per_sec /. 1e6)
    r.cache_speedup r.cache_identical

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead benchmark (BENCH_recorder.json): the fused
   sweep grid with the recorder fully on — background scrape loop
   folding the registry into a Timeseries store plus a per-job span
   collector, i.e. exactly what a daemon job pays — against the same
   grid with the recorder off. The 5% gate in `make perf` rides on
   [rec_overhead_percent]. *)

module Timeseries = Pi_obs.Timeseries

type recorder_result = {
  rec_bench : string;
  rec_scale : int;
  rec_configs : int;  (* grid configurations per timed rep *)
  rec_scrape_interval : float;  (* seconds between recorder scrapes *)
  rec_off_seconds : float;  (* best-of-N grid wall time, recorder off *)
  rec_on_seconds : float;  (* same grid with scrape loop + collector *)
  rec_off_configs_per_sec : float;
  rec_on_configs_per_sec : float;
  rec_overhead_percent : float;  (* (on - off) / off * 100 *)
  rec_points : int;  (* raw time-series points captured during the on pass *)
  rec_spans : int;  (* spans captured by the per-job collector *)
  rec_identical : bool;  (* grid points identical across recorder on/off *)
}

let run_recorder ?(bench = "400.perlbench") ?(scale = 4) () =
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let placement = Pi_layout.Placement.make program ~seed:1 in
  let plan = Pi_uarch.Replay.compile config.Experiment.machine trace in
  ignore (Sweep.run_grid ~plan ~warmup_blocks trace placement);
  let best_of = best_of ~reps:grid_reps wall in
  let was_enabled = Span.enabled () in
  (* Recorder off: no tracing, no scrape loop — the clean baseline. *)
  Span.set_enabled false;
  let (off_points, _, _, _, _), off_seconds =
    best_of (fun () -> Sweep.run_grid ~plan ~warmup_blocks trace placement)
  in
  (* Recorder on: global tracing enabled (the daemon's --trace-out
     state), a per-job collector attached to this thread, and the
     background sampler scraping the whole registry at a far harsher
     cadence than the daemon's 1 s default. *)
  Span.set_enabled true;
  let scrape_interval = 0.01 in
  let ts = Timeseries.create () in
  let stop = Timeseries.sampler ~interval:scrape_interval ts in
  let collector = Span.collector () in
  let (on_points, _, _, _, _), on_seconds =
    best_of (fun () ->
        Span.with_collector collector (fun () ->
            Sweep.run_grid ~plan ~warmup_blocks trace placement))
  in
  stop ();
  Span.set_enabled was_enabled;
  let rec_points =
    List.fold_left
      (fun acc s -> acc + List.length s.Timeseries.points)
      0 (Timeseries.snapshot ts)
  in
  let configs = Array.length off_points in
  {
    rec_bench = bench;
    rec_scale = scale;
    rec_configs = configs;
    rec_scrape_interval = scrape_interval;
    rec_off_seconds = off_seconds;
    rec_on_seconds = on_seconds;
    rec_off_configs_per_sec =
      (if off_seconds > 0.0 then float_of_int configs /. off_seconds else 0.0);
    rec_on_configs_per_sec =
      (if on_seconds > 0.0 then float_of_int configs /. on_seconds else 0.0);
    rec_overhead_percent =
      (if off_seconds > 0.0 then (on_seconds -. off_seconds) /. off_seconds *. 100.0
       else 0.0);
    rec_points;
    rec_spans = List.length (Span.collector_events collector);
    rec_identical = off_points = on_points;
  }

let recorder_to_json r =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"bench\": %S," r.rec_bench;
      Printf.sprintf "  \"scale\": %d," r.rec_scale;
      Printf.sprintf "  \"configs\": %d," r.rec_configs;
      Printf.sprintf "  \"scrape_interval\": %.3f," r.rec_scrape_interval;
      Printf.sprintf "  \"off_seconds\": %.6f," r.rec_off_seconds;
      Printf.sprintf "  \"on_seconds\": %.6f," r.rec_on_seconds;
      Printf.sprintf "  \"off_configs_per_sec\": %.2f," r.rec_off_configs_per_sec;
      Printf.sprintf "  \"on_configs_per_sec\": %.2f," r.rec_on_configs_per_sec;
      Printf.sprintf "  \"overhead_percent\": %.2f," r.rec_overhead_percent;
      Printf.sprintf "  \"timeseries_points\": %d," r.rec_points;
      Printf.sprintf "  \"collected_spans\": %d," r.rec_spans;
      Printf.sprintf "  \"identical_grids\": %b" r.rec_identical;
      "}";
    ]

let write_recorder_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (recorder_to_json r);
      output_char oc '\n')

let recorder_summary r =
  Printf.sprintf
    "%s scale %d recorder: %d configs/grid, %.0fms scrapes\n\
     recorder off: %.2f configs/s (%.2fs/grid)   on: %.2f configs/s (%.2fs/grid)\n\
     overhead: %.2f%%   points: %d   spans: %d   grids identical: %b"
    r.rec_bench r.rec_scale r.rec_configs
    (r.rec_scrape_interval *. 1000.0)
    r.rec_off_configs_per_sec r.rec_off_seconds r.rec_on_configs_per_sec r.rec_on_seconds
    r.rec_overhead_percent r.rec_points r.rec_spans r.rec_identical

(* Surrogate-steered sweep benchmark (BENCH_surrogate.json): the steered
   Max_err study against the golden full fused study on the same plan —
   the pruning claim (grid lanes replayed vs grid size) and the accuracy
   claim (every predicted lane within the tolerance of the golden study)
   in one artifact. The default benchmark is 183.equake: a smooth
   response surface the steering should prune hard, so the prune-factor
   gate has headroom on any box (the timing numbers are informational —
   steering is deterministic, so the lane counts never wobble). *)

type surrogate_result = {
  sur_bench : string;
  sur_scale : int;
  sur_grid_configs : int;  (* grid lanes in the full study (145) *)
  sur_max_err_percent : float;  (* the Max_err steering tolerance *)
  sur_replayed_lanes : int;  (* lanes carrying simulated truth *)
  sur_pruned_lanes : int;  (* lanes filled in by the surrogate *)
  sur_prune_factor : float;  (* grid_configs / replayed_lanes *)
  sur_rounds : int;  (* steering fit-replay rounds *)
  sur_holdout_max_err : float;  (* model's own pre-replay holdout, percent *)
  sur_holdout_mean_err : float;
  sur_predicted_max_err : float;  (* predicted lanes vs golden CPI, percent *)
  sur_full_seconds : float;  (* best-of-N full fused study *)
  sur_steered_seconds : float;  (* best-of-N steered study, fits included *)
  sur_replay_seconds : float;  (* that study's time in fused replay *)
  sur_model_seconds : float;  (* that study's steering time outside replay *)
  sur_speedup : float;  (* full_seconds / steered_seconds *)
  sur_replayed_identical : bool;  (* replayed lanes = golden lanes, bitwise *)
  sur_within_tolerance : bool;  (* predicted_max_err <= max_err_percent *)
}

let run_surrogate ?(bench = "183.equake") ?(scale = 2) ?(max_err = 1.0) () =
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let placement = Pi_layout.Placement.make program ~seed:1 in
  let plan = Pi_uarch.Replay.compile config.Experiment.machine trace in
  ignore (Sweep.run_grid ~plan ~warmup_blocks trace placement);
  (* Best-of-3, not [grid_reps]: each rep here is a whole study (grid +
     perfect/L-TAGE references + fits), and the gated quantity — the lane
     counts — is deterministic across reps anyway. *)
  let best_of = best_of ~reps:3 wall in
  let full, full_seconds =
    best_of (fun () ->
        Sweep.run_study ~plan ~warmup_blocks ~benchmark:bench trace placement)
  in
  let steered, steered_seconds =
    best_of (fun () ->
        Sweep.run_study ~plan ~warmup_blocks ~surrogate:(Sweep.Max_err max_err)
          ~benchmark:bench trace placement)
  in
  let grid_configs = Array.length full.Sweep.points in
  let replayed_identical = ref true in
  let predicted_max = ref 0.0 in
  Array.iteri
    (fun i source ->
      let p = steered.Sweep.points.(i) and f = full.Sweep.points.(i) in
      match source with
      | Sweep.Replayed -> if p <> f then replayed_identical := false
      | Sweep.Predicted ->
          let err = Float.abs (p.Sweep.cpi -. f.Sweep.cpi) /. f.Sweep.cpi *. 100.0 in
          if err > !predicted_max then predicted_max := err)
    steered.Sweep.sources;
  let replayed = steered.Sweep.replayed_lanes in
  {
    sur_bench = bench;
    sur_scale = scale;
    sur_grid_configs = grid_configs;
    sur_max_err_percent = max_err;
    sur_replayed_lanes = replayed;
    sur_pruned_lanes = grid_configs - replayed;
    sur_prune_factor =
      (if replayed > 0 then float_of_int grid_configs /. float_of_int replayed
       else 0.0);
    sur_rounds = steered.Sweep.surrogate_rounds;
    sur_holdout_max_err = steered.Sweep.surrogate_max_abs_err;
    sur_holdout_mean_err = steered.Sweep.surrogate_mean_abs_err;
    sur_predicted_max_err = !predicted_max;
    sur_full_seconds = full_seconds;
    sur_steered_seconds = steered_seconds;
    sur_replay_seconds = steered.Sweep.grid_seconds;
    sur_model_seconds = steered.Sweep.model_seconds;
    sur_speedup =
      (if steered_seconds > 0.0 then full_seconds /. steered_seconds else 0.0);
    sur_replayed_identical = !replayed_identical;
    sur_within_tolerance = !predicted_max <= max_err;
  }

let surrogate_to_json r =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"bench\": %S," r.sur_bench;
      Printf.sprintf "  \"scale\": %d," r.sur_scale;
      Printf.sprintf "  \"grid_configs\": %d," r.sur_grid_configs;
      Printf.sprintf "  \"max_err_percent\": %.3f," r.sur_max_err_percent;
      Printf.sprintf "  \"replayed_lanes\": %d," r.sur_replayed_lanes;
      Printf.sprintf "  \"pruned_lanes\": %d," r.sur_pruned_lanes;
      Printf.sprintf "  \"prune_factor\": %.2f," r.sur_prune_factor;
      Printf.sprintf "  \"rounds\": %d," r.sur_rounds;
      Printf.sprintf "  \"holdout_max_abs_err\": %.4f," r.sur_holdout_max_err;
      Printf.sprintf "  \"holdout_mean_abs_err\": %.4f," r.sur_holdout_mean_err;
      Printf.sprintf "  \"predicted_cpi_max_err\": %.4f," r.sur_predicted_max_err;
      Printf.sprintf "  \"full_seconds\": %.6f," r.sur_full_seconds;
      Printf.sprintf "  \"steered_seconds\": %.6f," r.sur_steered_seconds;
      Printf.sprintf "  \"replay_seconds\": %.6f," r.sur_replay_seconds;
      Printf.sprintf "  \"model_seconds\": %.6f," r.sur_model_seconds;
      Printf.sprintf "  \"speedup\": %.3f," r.sur_speedup;
      Printf.sprintf "  \"replayed_identical\": %b," r.sur_replayed_identical;
      Printf.sprintf "  \"within_tolerance\": %b" r.sur_within_tolerance;
      "}";
    ]

let write_surrogate_json ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (surrogate_to_json r);
      output_char oc '\n')

let surrogate_summary r =
  Printf.sprintf
    "%s scale %d steered sweep (max-err %.2f%%): %d/%d lanes replayed (%d pruned, \
     %.1fx), %d rounds\n\
     predicted CPI err vs golden: max %.3f%%   holdout: max %.3f%% mean %.3f%%\n\
     full study: %.2fs   steered: %.2fs (%.2fx; %.2fs replay, %.2fs model)   \
     replayed lanes identical: %b   within tolerance: %b"
    r.sur_bench r.sur_scale r.sur_max_err_percent r.sur_replayed_lanes
    r.sur_grid_configs r.sur_pruned_lanes r.sur_prune_factor r.sur_rounds
    r.sur_predicted_max_err r.sur_holdout_max_err r.sur_holdout_mean_err
    r.sur_full_seconds r.sur_steered_seconds r.sur_speedup r.sur_replay_seconds
    r.sur_model_seconds r.sur_replayed_identical
    r.sur_within_tolerance

let surrogate_failures ~gate r =
  List.filter_map
    (fun x -> x)
    [
      (if not r.sur_replayed_identical then
         Some "steered replayed lanes diverge from the full fused study"
       else None);
      (if not r.sur_within_tolerance then
         Some
           (Printf.sprintf "predicted CPI error %.3f%% above tolerance %.2f%%"
              r.sur_predicted_max_err r.sur_max_err_percent)
       else None);
      (if gate > 0.0 && r.sur_prune_factor < gate then
         Some
           (Printf.sprintf "prune factor %.2fx below gate %.2fx (%d/%d lanes replayed)"
              r.sur_prune_factor gate r.sur_replayed_lanes r.sur_grid_configs)
       else None);
    ]

(* ------------------------------------------------------------------ *)
(* History metric bags: the flat numbers each benchmark contributes to
   the run-history ledger (Pi_obs.History). Names reuse the JSON field
   names so `interferometry compare BENCH_x.json history.jsonl@n` lines
   up where the suffixes match. *)

let history_metrics r =
  [
    ("trace_seconds", r.trace_seconds);
    ("compile_seconds", r.compile_seconds);
    ("data_side_seconds", r.data_side_seconds);
    ("legacy_obs_per_sec", r.legacy_obs_per_sec);
    ("replay_obs_per_sec", r.replay_obs_per_sec);
    ("replay_blocks_per_sec", r.replay_blocks_per_sec);
    ("speedup", r.speedup);
    ("heap_random_replay_obs_per_sec", r.heap_random_replay_obs_per_sec);
    ("heap_random_speedup", r.heap_random_speedup);
  ]

let sweep_history_metrics r =
  [
    ("baseline_configs_per_sec", r.baseline_configs_per_sec);
    ("fused_configs_per_sec", r.fused_configs_per_sec);
    ("lane_blocks_per_sec", r.lane_blocks_per_sec);
    ("speedup", r.sweep_speedup);
  ]

let cache_sweep_history_metrics r =
  [
    ("cache_baseline_configs_per_sec", r.cache_baseline_configs_per_sec);
    ("cache_fused_configs_per_sec", r.cache_fused_configs_per_sec);
    ("cache_lane_blocks_per_sec", r.cache_lane_blocks_per_sec);
    ("cache_speedup", r.cache_speedup);
  ]

let recorder_history_metrics r =
  [
    ("recorder_off_configs_per_sec", r.rec_off_configs_per_sec);
    ("recorder_on_configs_per_sec", r.rec_on_configs_per_sec);
    ("recorder_overhead_percent", r.rec_overhead_percent);
  ]

let surrogate_history_metrics r =
  [
    ("surrogate_replayed_lanes", float_of_int r.sur_replayed_lanes);
    ("surrogate_prune_factor", r.sur_prune_factor);
    ("surrogate_predicted_cpi_max_err", r.sur_predicted_max_err);
    ("surrogate_holdout_max_abs_err", r.sur_holdout_max_err);
    ("surrogate_speedup", r.sur_speedup);
    ("surrogate_replay_seconds", r.sur_replay_seconds);
    ("surrogate_model_seconds", r.sur_model_seconds);
  ]
