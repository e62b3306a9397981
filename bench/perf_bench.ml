(* The perf harness's five benchmarks. Each one measures, checks its paths
   against each other and returns one [report] built from its own locals:
   the BENCH document, the run-history metric bag, the summary text and the
   gate failures. bench/perf.ml runs them in order.

   - pipeline (BENCH_pipeline.json): the one-pass trace build (checked
     against the two-pass reference), plan compilation, the golden
     interpreter and plan replay over the same placements. Two legs: the
     default config, whose bump-heap data layout every seed shares, so its
     data side is simulated once (as campaigns do) and timed on its own;
     and heap randomization, where every seed has its own data layout and
     each replay builds its own data side.
   - sweep (BENCH_sweep.json): the 145-configuration predictor grid through
     the sequential per-config loop and the fused one-pass engine.
   - cache_sweep (BENCH_cache_sweep.json): the same for the 100-geometry
     cache grid.
   - recorder (BENCH_recorder.json): the fused grid with the flight
     recorder on against the same grid with it off.
   - surrogate (BENCH_surrogate.json): the steered Max_err study against
     the golden full fused study. *)

module Replay = Pi_uarch.Replay
module Sweep = Pi_uarch.Sweep
module Span = Pi_obs.Span
module Timeseries = Pi_obs.Timeseries
module Experiment = Interferometry.Experiment
module J = Pi_obs.Json

type report = {
  label : string;  (* the history label; the document is BENCH_<label>.json *)
  bench : string;
  scale : int;
  doc : J.t;
  metrics : (string * float) list;  (* the history bag, named after the document's keys *)
  summary : string;
  failures : string list;  (* empty when every gate passes *)
}

(* The timing gates [make perf] turns on ([~gates]): each fused axis at
   least 3x its per-config loop, and the flight recorder's overhead at most
   5%. *)
let fused_gate = 3.0
let recorder_gate = 5.0

(* The steered sweep replays at most a fifth of the grid. Steering is
   deterministic, so this gate always applies. *)
let prune_gate = 5.0

(* Durations on the monotonic clock: an NTP step during a timed phase must
   not bend the perf trajectory. *)
let now () = Pi_obs.Clock.now ()

(* Grid timings are best-of-N; see [fused_axis]. *)
let grid_reps = 5

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

(* A BENCH figure rounded to [d] decimals, as the summaries print it. *)
let decimals d x =
  let k = 10.0 ** float_of_int d in
  J.Float (Float.round (x *. k) /. k)

(* The gate's failure messages, [None] where a check passes. *)
let failures checks = List.filter_map Fun.id checks

let trace_of config program =
  Pi_layout.Run_limiter.trace ~seed:config.Experiment.master_seed program
    ~budget_blocks:config.Experiment.budget_blocks

(* Every benchmark's prologue: the workload's config and program, its trace
   and warmup length, built as [Experiment.prepare] builds them. *)
let subject ~bench ~scale =
  let config = Experiment.make_config ~scale () in
  let program = (Pi_workloads.Spec.find bench).Pi_workloads.Bench.build ~scale in
  let trace = trace_of config program in
  let warmup_blocks =
    int_of_float
      (config.Experiment.warmup_fraction
      *. float_of_int (Pi_isa.Trace.blocks_executed trace))
  in
  (config, program, trace, warmup_blocks)

let pipeline ~bench ~scale ~layouts =
  if layouts < 1 then invalid_arg "Perf_bench.pipeline: layouts < 1";
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
  ignore (Pi_oracle.run_unoptimized ~warmup_blocks machine trace warm_placement);
  ignore (Replay.run ~warmup_blocks (Replay.compile machine trace) warm_placement);
  let timed name f = timed ~bench name f in
  let _, trace_seconds =
    best_of ~reps:grid_reps (timed "perf.trace") (fun () -> trace_of config program)
  in
  let trace_identical =
    trace
    = Pi_oracle.two_pass_trace ~seed:config.Experiment.master_seed program
        ~budget_blocks:config.Experiment.budget_blocks
  in
  let plan, compile_seconds = timed "perf.compile" (fun () -> Replay.compile machine trace) in
  let data_side, data_side_seconds =
    timed "perf.data_side" (fun () -> Replay.data_side plan data)
  in
  let legacy_leg placements =
    timed "perf.legacy" (fun () ->
        Array.map (fun p -> Pi_oracle.run_unoptimized ~warmup_blocks machine trace p) placements)
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
  let plan_words = Replay.words plan in
  let prepared_words = Obj.reachable_words (Obj.repr (program, trace, plan, data, data_side)) in
  let legacy_obs_per_sec = per_sec obs legacy_seconds in
  let replay_obs_per_sec = per_sec obs replay_seconds in
  let replay_blocks_per_sec = per_sec (obs *. float_of_int blocks) replay_seconds in
  let speedup = per_sec legacy_seconds replay_seconds in
  let identical = legacy = replayed in
  let heap_random_replay_obs_per_sec = per_sec obs heap_random_replay_seconds in
  let heap_random_speedup = per_sec heap_random_legacy_seconds heap_random_replay_seconds in
  let heap_random_identical = hr_legacy = hr_replayed in
  {
    label = "pipeline";
    bench;
    scale;
    doc =
      J.Obj
        [
          ("bench", J.String bench);
          ("scale", J.Int scale);
          ("layouts", J.Int layouts);
          ("blocks_per_observation", J.Int blocks);
          ("mem_events_per_observation", J.Int (Replay.mem_events plan));
          ("plan_words", J.Int plan_words);
          ("prepared_words", J.Int prepared_words);
          ("trace_seconds", decimals 6 trace_seconds);
          ("trace_identical", J.Bool trace_identical);
          ("compile_seconds", decimals 6 compile_seconds);
          ("data_side_seconds", decimals 6 data_side_seconds);
          ("legacy_seconds", decimals 6 legacy_seconds);
          ("replay_seconds", decimals 6 replay_seconds);
          ("legacy_obs_per_sec", decimals 2 legacy_obs_per_sec);
          ("replay_obs_per_sec", decimals 2 replay_obs_per_sec);
          ("replay_blocks_per_sec", decimals 0 replay_blocks_per_sec);
          ("speedup", decimals 3 speedup);
          ("identical_counts", J.Bool identical);
          ("heap_random_legacy_seconds", decimals 6 heap_random_legacy_seconds);
          ("heap_random_replay_seconds", decimals 6 heap_random_replay_seconds);
          ("heap_random_replay_obs_per_sec", decimals 2 heap_random_replay_obs_per_sec);
          ("heap_random_speedup", decimals 3 heap_random_speedup);
          ("heap_random_identical_counts", J.Bool heap_random_identical);
        ];
    metrics =
      [
        ("trace_seconds", trace_seconds);
        ("compile_seconds", compile_seconds);
        ("data_side_seconds", data_side_seconds);
        ("legacy_obs_per_sec", legacy_obs_per_sec);
        ("replay_obs_per_sec", replay_obs_per_sec);
        ("replay_blocks_per_sec", replay_blocks_per_sec);
        ("speedup", speedup);
        ("heap_random_replay_obs_per_sec", heap_random_replay_obs_per_sec);
        ("heap_random_speedup", heap_random_speedup);
      ];
    summary =
      Printf.sprintf
        "%s scale %d: %d blocks/obs, trace %.1fms (identical to two passes: %b)\n\
         compile %.1fms + data side %.1fms (amortized over every placement)\n\
         legacy: %.2f obs/s (%.1fms/obs)   replay: %.2f obs/s (%.1fms/obs, %.2fM blocks/s)\n\
         speedup: %.2fx   counts identical: %b\n\
         plan: %d words (%.1f KiB)   prepared bench: %d words (%.1f MiB)\n\
         heap_random (per-seed data sides): replay %.2f obs/s, speedup %.2fx, counts identical: %b"
        bench scale blocks (trace_seconds *. 1e3) trace_identical (compile_seconds *. 1e3)
        (data_side_seconds *. 1e3) legacy_obs_per_sec
        (1e3 *. legacy_seconds /. obs)
        replay_obs_per_sec
        (1e3 *. replay_seconds /. obs)
        (replay_blocks_per_sec /. 1e6) speedup identical plan_words
        (float_of_int (plan_words * 8) /. 1024.0)
        prepared_words
        (float_of_int (prepared_words * 8) /. 1024.0 /. 1024.0)
        heap_random_replay_obs_per_sec heap_random_speedup heap_random_identical;
    failures =
      failures
        [
          (if not trace_identical then
             Some "one-pass Run_limiter.trace differs from the two-pass reference"
           else None);
          (if not identical then Some "replay counts differ from the legacy pipeline" else None);
          (if not heap_random_identical then
             Some "heap_random replay counts differ from the legacy pipeline"
           else None);
          (if speedup < 1.0 then Some (Printf.sprintf "replay slower than legacy (%.2fx)" speedup)
           else None);
        ];
  }

(* The prologue of the four grid benchmarks: one placement of the traced
   benchmark, and a plan compiled once and handed to every study. A caller
   sweeping one trace would do the same, and the timed studies should
   measure the sweep, not recompilation. *)
let grid_subject ~bench ~scale =
  let config, program, trace, warmup_blocks = subject ~bench ~scale in
  let placement = Pi_layout.Placement.make program ~seed:1 in
  (Replay.compile config.Experiment.machine trace, warmup_blocks, trace, placement)

(* Both fused axes, one protocol: [grid ~fused] is the grid of one axis
   and [study ~fused] the parts of its full study the paths must agree on.
   One untimed fused study warms every code path the timed grids share
   (the fallback/perfect/L-TAGE lanes go through the same Replay.run the
   baseline uses), plus page faults, the memoized grid and its scratch.
   The grid, the unit the fused engine replaces, is then timed through
   each path, best of [grid_reps], so a scheduler hiccup in one rep cannot
   fail the gate. The reference simulations and the regression are the
   same sequential work on both paths, so timing them would only blur the
   configs/sec ratio; the full studies still run, untimed, for the
   bit-identical check. *)
let fused_axis ~gates ~cache ~bench ~scale ~blocks ~grid ~study =
  let label = if cache then "cache_sweep" else "sweep" in
  let noun = if cache then "cache sweep" else "sweep" in
  let metric k = if cache then "cache_" ^ k else k in
  ignore (study ~fused:true);
  let best_of name = best_of ~reps:grid_reps (timed ~bench ("perf." ^ label ^ name)) in
  let (baseline_points, _, _, _, _), baseline_seconds =
    best_of "_baseline" (fun () -> grid ~fused:false)
  in
  let (fused_points, fused_lanes, fallback_lanes, _, _), fused_seconds =
    best_of "_fused" (fun () -> grid ~fused:true)
  in
  let baseline = study ~fused:false in
  let fused = study ~fused:true in
  let study_configs = Array.length fused_points in
  let baseline_configs_per_sec = per_sec (float_of_int study_configs) baseline_seconds in
  let fused_configs_per_sec = per_sec (float_of_int study_configs) fused_seconds in
  let lane_blocks_per_sec =
    per_sec (float_of_int fused_lanes *. float_of_int blocks) fused_seconds
  in
  let speedup = per_sec baseline_seconds fused_seconds in
  let identical = baseline_points = fused_points && fused = baseline in
  {
    label;
    bench;
    scale;
    doc =
      J.Obj
        ([
           ("bench", J.String bench);
           ("scale", J.Int scale);
           ("study_configs", J.Int study_configs);
           ("fused_lanes", J.Int fused_lanes);
         ]
        @ (if cache then [] else [ ("fallback_lanes", J.Int fallback_lanes) ])
        @ [
            ("blocks_per_pass", J.Int blocks);
            ("baseline_seconds", decimals 6 baseline_seconds);
            ("fused_seconds", decimals 6 fused_seconds);
            ("baseline_configs_per_sec", decimals 2 baseline_configs_per_sec);
            ("fused_configs_per_sec", decimals 2 fused_configs_per_sec);
            ("lane_blocks_per_sec", decimals 0 lane_blocks_per_sec);
            ("speedup", decimals 3 speedup);
            ("identical_studies", J.Bool identical);
          ]);
    metrics =
      [
        (metric "baseline_configs_per_sec", baseline_configs_per_sec);
        (metric "fused_configs_per_sec", fused_configs_per_sec);
        (metric "lane_blocks_per_sec", lane_blocks_per_sec);
        (metric "speedup", speedup);
      ];
    summary =
      (if cache then
         Printf.sprintf "%s scale %d cache sweep: %d geometries (all fused), %d blocks/pass\n"
           bench scale study_configs blocks
       else
         Printf.sprintf "%s scale %d sweep: %d configs (%d fused lanes + %d fallback), %d blocks/pass\n"
           bench scale study_configs fused_lanes fallback_lanes blocks)
      ^ Printf.sprintf
          "per-%s: %.2f configs/s (%.2fs/grid)   fused: %.2f configs/s (%.2fs/grid, %.2fM \
           lane-blocks/s)\n\
           speedup: %.2fx   studies identical: %b"
          (if cache then "geometry" else "config")
          baseline_configs_per_sec baseline_seconds fused_configs_per_sec fused_seconds
          (lane_blocks_per_sec /. 1e6) speedup identical;
    failures =
      failures
        [
          (if not identical then
             Some (Printf.sprintf "fused %s diverges from the sequential study" noun)
           else None);
          (if gates && speedup < fused_gate then
             Some (Printf.sprintf "fused %s speedup %.2fx below gate %.2fx" noun speedup fused_gate)
           else None);
        ];
  }

let sweep ~gates ~bench ~scale =
  let plan, warmup_blocks, trace, placement = grid_subject ~bench ~scale in
  fused_axis ~gates ~cache:false ~bench ~scale ~blocks:(Pi_isa.Trace.blocks_executed trace)
    ~grid:(fun ~fused -> Sweep.run_grid ~plan ~warmup_blocks ~fused trace placement)
    ~study:(fun ~fused ->
      let s = Sweep.run_study ~plan ~warmup_blocks ~fused ~benchmark:bench trace placement in
      Sweep.(s.points, s.perfect_cpi, s.ltage_point, s.predicted_perfect_cpi, s.predicted_ltage_cpi))

let cache_sweep ~gates ~bench ~scale =
  let plan, warmup_blocks, trace, placement = grid_subject ~bench ~scale in
  fused_axis ~gates ~cache:true ~bench ~scale ~blocks:(Pi_isa.Trace.blocks_executed trace)
    ~grid:(fun ~fused -> Sweep.run_cache_grid ~plan ~warmup_blocks ~fused trace placement)
    ~study:(fun ~fused ->
      let s = Sweep.run_cache_study ~plan ~warmup_blocks ~fused ~benchmark:bench trace placement in
      let d = s.Sweep.degradation in
      Sweep.(s.cache_points, s.seed_point, d.Pi_stats.Multireg.coefficients,
             d.Pi_stats.Multireg.intercept, s.predicted_seed_cpi))

(* The fused grid with the recorder fully on — the background scrape loop
   folding the registry into a Timeseries store plus a per-job span
   collector, i.e. exactly what a daemon job pays — against the same grid
   with the recorder off. Same protocol as [fused_axis]. *)
let recorder ~gates ~bench ~scale =
  let plan, warmup_blocks, trace, placement = grid_subject ~bench ~scale in
  let grid () = Sweep.run_grid ~plan ~warmup_blocks trace placement in
  ignore (grid ());
  let best_of = best_of ~reps:grid_reps wall in
  let was_enabled = Span.enabled () in
  (* Recorder off: no tracing, no scrape loop — the clean baseline. *)
  Span.set_enabled false;
  let (off_points, _, _, _, _), off_seconds = best_of grid in
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
    best_of (fun () -> Span.with_collector collector grid)
  in
  stop ();
  Span.set_enabled was_enabled;
  let points =
    List.fold_left
      (fun acc s -> acc + List.length s.Timeseries.points)
      0 (Timeseries.snapshot ts)
  in
  let spans = List.length (Span.collector_events collector) in
  let configs = Array.length off_points in
  let off_configs_per_sec = per_sec (float_of_int configs) off_seconds in
  let on_configs_per_sec = per_sec (float_of_int configs) on_seconds in
  let overhead_percent =
    if off_seconds > 0.0 then (on_seconds -. off_seconds) /. off_seconds *. 100.0 else 0.0
  in
  let identical = off_points = on_points in
  {
    label = "recorder";
    bench;
    scale;
    doc =
      J.Obj
        [
          ("bench", J.String bench);
          ("scale", J.Int scale);
          ("configs", J.Int configs);
          ("scrape_interval", decimals 3 scrape_interval);
          ("off_seconds", decimals 6 off_seconds);
          ("on_seconds", decimals 6 on_seconds);
          ("off_configs_per_sec", decimals 2 off_configs_per_sec);
          ("on_configs_per_sec", decimals 2 on_configs_per_sec);
          ("overhead_percent", decimals 2 overhead_percent);
          ("timeseries_points", J.Int points);
          ("collected_spans", J.Int spans);
          ("identical_grids", J.Bool identical);
        ];
    metrics =
      [
        ("recorder_off_configs_per_sec", off_configs_per_sec);
        ("recorder_on_configs_per_sec", on_configs_per_sec);
        ("recorder_overhead_percent", overhead_percent);
      ];
    summary =
      Printf.sprintf
        "%s scale %d recorder: %d configs/grid, %.0fms scrapes\n\
         recorder off: %.2f configs/s (%.2fs/grid)   on: %.2f configs/s (%.2fs/grid)\n\
         overhead: %.2f%%   points: %d   spans: %d   grids identical: %b"
        bench scale configs (scrape_interval *. 1000.0) off_configs_per_sec off_seconds
        on_configs_per_sec on_seconds overhead_percent points spans identical;
    failures =
      failures
        [
          (if not identical then Some "sweep grid changed with the flight recorder on" else None);
          (if gates && overhead_percent > recorder_gate then
             Some
               (Printf.sprintf "flight-recorder overhead %.2f%% above gate %.2f%%"
                  overhead_percent recorder_gate)
           else None);
        ];
  }

(* The steered Max_err study against the golden full fused study on the
   same plan: the pruning claim (grid lanes replayed vs grid size) and the
   accuracy claim (every predicted lane within the tolerance of the golden
   study) in one document. The benchmark is 183.equake: a smooth response
   surface the steering should prune hard, so the prune-factor gate has
   headroom on any box (the timing numbers are informational — steering is
   deterministic, so the lane counts never wobble). *)
let surrogate ~bench ~scale =
  let max_err = 1.0 in
  let plan, warmup_blocks, trace, placement = grid_subject ~bench ~scale in
  ignore (Sweep.run_grid ~plan ~warmup_blocks trace placement);
  (* Best-of-3, not [grid_reps]: each rep here is a whole study (grid +
     perfect/L-TAGE references + fits), and the gated quantity — the lane
     counts — is deterministic across reps anyway. *)
  let best_of = best_of ~reps:3 wall in
  let full, full_seconds =
    best_of (fun () -> Sweep.run_study ~plan ~warmup_blocks ~benchmark:bench trace placement)
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
  let prune_factor =
    if replayed > 0 then float_of_int grid_configs /. float_of_int replayed else 0.0
  in
  let rounds = steered.Sweep.surrogate_rounds in
  let holdout_max = steered.Sweep.surrogate_max_abs_err in
  let holdout_mean = steered.Sweep.surrogate_mean_abs_err in
  let replay_seconds = steered.Sweep.grid_seconds in
  let model_seconds = steered.Sweep.model_seconds in
  let speedup = per_sec full_seconds steered_seconds in
  let within_tolerance = !predicted_max <= max_err in
  {
    label = "surrogate";
    bench;
    scale;
    doc =
      J.Obj
        [
          ("bench", J.String bench);
          ("scale", J.Int scale);
          ("grid_configs", J.Int grid_configs);
          ("max_err_percent", decimals 3 max_err);
          ("replayed_lanes", J.Int replayed);
          ("pruned_lanes", J.Int (grid_configs - replayed));
          ("prune_factor", decimals 2 prune_factor);
          ("rounds", J.Int rounds);
          ("holdout_max_abs_err", decimals 4 holdout_max);
          ("holdout_mean_abs_err", decimals 4 holdout_mean);
          ("predicted_cpi_max_err", decimals 4 !predicted_max);
          ("full_seconds", decimals 6 full_seconds);
          ("steered_seconds", decimals 6 steered_seconds);
          ("replay_seconds", decimals 6 replay_seconds);
          ("model_seconds", decimals 6 model_seconds);
          ("speedup", decimals 3 speedup);
          ("replayed_identical", J.Bool !replayed_identical);
          ("within_tolerance", J.Bool within_tolerance);
        ];
    metrics =
      [
        ("surrogate_replayed_lanes", float_of_int replayed);
        ("surrogate_prune_factor", prune_factor);
        ("surrogate_predicted_cpi_max_err", !predicted_max);
        ("surrogate_holdout_max_abs_err", holdout_max);
        ("surrogate_speedup", speedup);
        ("surrogate_replay_seconds", replay_seconds);
        ("surrogate_model_seconds", model_seconds);
      ];
    summary =
      Printf.sprintf
        "%s scale %d steered sweep (max-err %.2f%%): %d/%d lanes replayed (%d pruned, \
         %.1fx), %d rounds\n\
         predicted CPI err vs golden: max %.3f%%   holdout: max %.3f%% mean %.3f%%\n\
         full study: %.2fs   steered: %.2fs (%.2fx; %.2fs replay, %.2fs model)   \
         replayed lanes identical: %b   within tolerance: %b"
        bench scale max_err replayed grid_configs (grid_configs - replayed) prune_factor rounds
        !predicted_max holdout_max holdout_mean full_seconds steered_seconds speedup
        replay_seconds model_seconds !replayed_identical within_tolerance;
    failures =
      List.map (( ^ ) "steered sweep: ")
        (failures
           [
             (if not !replayed_identical then
                Some "steered replayed lanes diverge from the full fused study"
              else None);
             (if not within_tolerance then
                Some
                  (Printf.sprintf "predicted CPI error %.3f%% above tolerance %.2f%%"
                     !predicted_max max_err)
              else None);
             (if prune_factor < prune_gate then
                Some
                  (Printf.sprintf "prune factor %.2fx below gate %.2fx (%d/%d lanes replayed)"
                     prune_factor prune_gate replayed grid_configs)
              else None);
           ]);
  }
