(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation. Run with no arguments for everything, or name the artifacts:

     dune exec bench/main.exe -- fig1 fig2 fig3 fig4 fig5 fig6 table1 \
                                 significance fig7 fig8 headline ablations micro

   Environment knobs:
     PI_LAYOUTS     reorderings per benchmark     (default 40; paper: 100+)
     PI_SCALE       workload scale                (default 8)
     PI_SEED        master seed                   (default 1)
     PI_JOBS        campaign worker domains       (default: recommended count)
     PI_CACHE_DIR   campaign observation cache    (default: no cache)
     PI_LOG         log verbosity                 (default info here; quiet mutes)
     PI_TRACE_OUT   Chrome trace artifact         (default BENCH_trace.json; - skips)
     PI_METRICS_OUT metrics scrape artifact       (default BENCH_metrics.prom; - skips)

   The run starts with a parallel campaign over the 2006 suite (the
   `campaign` artifact): every dataset the figures need is computed on
   worker domains and the per-figure code reuses it from the cache.

   Expected paper values are quoted in each section header; absolute numbers
   differ (our substrate is a model, not the authors' Xeon testbed) but the
   shapes — who wins, rough factors, where significance fails, where
   linearity bends — should match. *)

module E = Interferometry.Experiment
module Model = Interferometry.Model
module Blame = Interferometry.Blame
module Significance = Interferometry.Significance
module Predict = Interferometry.Predict
module Spec = Pi_workloads.Spec
module Bench_def = Pi_workloads.Bench
module Linreg = Pi_stats.Linreg

let env_int = Interferometry.Knobs.env_int

(* The harness narrates by default; PI_LOG=quiet (or warn) mutes the
   narration without touching the figures on stdout. *)
let () =
  if Sys.getenv_opt "PI_LOG" = None then Pi_obs.Log.set_level (Some Pi_obs.Log.Info)

let n_layouts = env_int "PI_LAYOUTS" 40
let scale = env_int "PI_SCALE" 8
let master_seed = env_int "PI_SEED" 1

let config = { E.default_config with scale; master_seed }

let section title expectation =
  Printf.printf "\n==== %s ====\n" title;
  Printf.printf "  [paper: %s]\n\n%!" expectation

let timed name f =
  let t0 = Pi_obs.Clock.now () in
  let result = f () in
  Printf.printf "  (%s took %.1fs)\n%!" name (Pi_obs.Clock.now () -. t0);
  result

(* Datasets are shared between figures; prepare/observe each benchmark once. *)
let dataset_cache : (string, E.dataset) Hashtbl.t = Hashtbl.create 32

let dataset ?(cfg = config) (bench : Bench_def.t) =
  let key = bench.Bench_def.name ^ if cfg.E.heap_random then "+heap" else "" in
  match Hashtbl.find_opt dataset_cache key with
  | Some d -> d
  | None ->
      let d = E.run ~config:cfg bench ~n_layouts in
      Hashtbl.replace dataset_cache key d;
      d

let model_cache : (string, Model.t) Hashtbl.t = Hashtbl.create 32

let model bench =
  match Hashtbl.find_opt model_cache bench.Bench_def.name with
  | Some m -> m
  | None ->
      let m = Model.fit (dataset bench) in
      Hashtbl.replace model_cache bench.Bench_def.name m;
      m

(* ------------------------------------------------------------------ *)

(* Suite-wide parallel measurement: one observation job per (benchmark,
   seed) drained by worker domains, optionally backed by the on-disk
   observation cache. The datasets land in [dataset_cache] so every later
   figure reuses them — the parallel path feeds the whole harness. *)
let campaign () =
  section "Campaign: parallel measurement of the 2006 suite"
    "infrastructure, not in the paper; identical observations to the sequential path";
  let jobs = env_int "PI_JOBS" (Pi_campaign.Scheduler.default_jobs ()) in
  let cache_dir = Sys.getenv_opt "PI_CACHE_DIR" in
  let retries = env_int "PI_RETRIES" 0 in
  let fault =
    Pi_campaign.Fault.of_env
      ~warn:(fun msg -> Printf.eprintf "campaign: ignoring PI_FAULT: %s\n%!" msg)
      ()
  in
  let result =
    timed
      (Printf.sprintf "campaign over %d domain(s)" jobs)
      (fun () ->
        Pi_campaign.Campaign.run ~config ~jobs ?cache_dir ~retries ?fault ~n_layouts
          (Spec.all_2006 ()))
  in
  print_string (Pi_campaign.Manifest.summary_table result.Pi_campaign.Campaign.manifest);
  List.iter
    (fun (o : Pi_campaign.Campaign.bench_outcome) ->
      Option.iter
        (fun d -> Hashtbl.replace dataset_cache o.Pi_campaign.Campaign.bench.Bench_def.name d)
        o.Pi_campaign.Campaign.dataset)
    result.Pi_campaign.Campaign.outcomes

let fig1 () =
  section "Figure 1: CPI variation under code reordering (violin plots)"
    "some benchmarks vary by several percent, FP stream codes barely at all";
  let series =
    List.map
      (fun bench ->
        let d = dataset bench in
        ( bench.Bench_def.name,
          Pi_stats.Descriptive.percent_difference_from_mean (E.cpis d) ))
      (Spec.all_2006 ())
  in
  print_endline
    (Pi_plot.Violin.render ~width:100 ~title:"% difference from mean CPI over reorderings"
       ~x_label:"% difference from average CPI" series)

let scatter_for bench =
  let d = dataset bench in
  let m = model bench in
  let points = Array.map2 (fun x y -> (x, y)) (E.mpkis d) (E.cpis d) in
  print_endline
    (Pi_plot.Scatter.render ~width:90 ~height:22
       ~title:
         (Printf.sprintf "%s: CPI vs MPKI (o data, * fit, : 95%% CI, . 95%% PI)  %s"
            bench.Bench_def.name
            (Format.asprintf "%a" Linreg.pp m.Model.regression))
       ~x_label:"branch mispredictions per kilo-instruction (MPKI)" ~y_label:"CPI"
       ~line:(Pi_plot.Scatter.regression_line m.Model.regression)
       ~bands:
         [
           Pi_plot.Scatter.confidence_band m.Model.regression;
           Pi_plot.Scatter.prediction_band m.Model.regression;
         ]
       points)

let fig2 () =
  section "Figure 2: CPI vs MPKI with regression + intervals"
    "perlbench: CPI = 0.02799*MPKI + 0.51667; omnetpp intercept ~1.90";
  scatter_for (Spec.find "400.perlbench");
  scatter_for (Spec.find "471.omnetpp")

let fig3 () =
  section "Figure 3: CPI vs cache misses under heap randomization (454.calculix)"
    "CPI linear in both L1 and L2 misses with tight confidence bands";
  (* The cache experiment runs the benchmark longer (several sweeps over the
     stiffness blocks) so steady-state conflict behaviour, not cold misses,
     dominates — the analogue of the paper's full-length ref runs. *)
  let cfg =
    { config with E.heap_random = true; scale = 3 * scale; budget_blocks = 700_000 }
  in
  let d = dataset ~cfg (Spec.find "454.calculix") in
  let cpis = E.cpis d in
  let plot name xs =
    let reg = Linreg.fit xs cpis in
    let points = Array.map2 (fun x y -> (x, y)) xs cpis in
    print_endline
      (Pi_plot.Scatter.render ~width:90 ~height:20
         ~title:
           (Printf.sprintf "454.calculix: CPI vs %s  %s" name
              (Format.asprintf "%a" Linreg.pp reg))
         ~x_label:(name ^ " per kilo-instruction") ~y_label:"CPI"
         ~line:(Pi_plot.Scatter.regression_line reg)
         ~bands:[ Pi_plot.Scatter.confidence_band reg; Pi_plot.Scatter.prediction_band reg ]
         points)
  in
  plot "L1D misses" (E.l1d_mpkis d);
  plot "L2 misses" (E.l2_mpkis d)

(* The simulator study is benchmark x 147 pipeline runs: cache it too. *)
let study_cache : (string, Pi_uarch.Sweep.study) Hashtbl.t = Hashtbl.create 32

let study (bench : Bench_def.t) =
  match Hashtbl.find_opt study_cache bench.Bench_def.name with
  | Some s -> s
  | None ->
      let prepared = E.prepare ~config bench in
      let placement = Pi_layout.Placement.natural prepared.E.program in
      let s =
        Pi_uarch.Sweep.run_study ~base:config.E.machine
          ~warmup_blocks:prepared.E.warmup_blocks ~benchmark:bench.Bench_def.name
          prepared.E.trace placement
      in
      Hashtbl.replace study_cache bench.Bench_def.name s;
      s

let fig4 () =
  section
    "Figure 4: % error of linear extrapolation to perfect and L-TAGE CPI (145 predictor configs)"
    "avg 1.32% (perfect), worst 252.eon 6.0% / 178.galgel 7.5%; L-TAGE avg <0.3%, max <1%";
  let studies =
    timed "145-config sweep over 31 benchmarks" (fun () ->
        List.map (fun b -> study b) (Spec.simulation_suite ()))
  in
  let sorted =
    List.sort
      (fun (a : Pi_uarch.Sweep.study) b -> compare a.perfect_error_percent b.perfect_error_percent)
      studies
  in
  Printf.printf "%-16s %18s %18s\n" "Benchmark" "perfect err %" "L-TAGE err %";
  List.iter
    (fun (s : Pi_uarch.Sweep.study) ->
      Printf.printf "%-16s %18.2f %18.2f\n" s.benchmark s.perfect_error_percent
        s.ltage_error_percent)
    sorted;
  let avg f =
    List.fold_left (fun acc s -> acc +. f s) 0.0 studies /. float_of_int (List.length studies)
  in
  Printf.printf "%-16s %18.2f %18.2f\n" "Average"
    (avg (fun s -> s.Pi_uarch.Sweep.perfect_error_percent))
    (avg (fun s -> s.Pi_uarch.Sweep.ltage_error_percent))

let fig5 () =
  section "Figure 5: MPKI vs normalized CPI regression lines"
    "(a) astar/bzip2/sjeng strongly linear; (b) hmmer/eon/galgel visibly less so";
  let panel title names =
    Printf.printf "-- %s --\n" title;
    List.iter
      (fun name ->
        let s = study (Spec.find name) in
        let points =
          Array.map
            (fun (p : Pi_uarch.Sweep.point) -> (p.mpki, p.cpi /. s.perfect_cpi))
            s.points
        in
        let norm_reg = Linreg.fit (Array.map fst points) (Array.map snd points) in
        print_endline
          (Pi_plot.Scatter.render ~width:90 ~height:18
             ~title:
               (Printf.sprintf
                  "%s: normalized CPI vs MPKI (X = perfect at (0,1)); fit intercept %.3f"
                  name norm_reg.Linreg.intercept)
             ~x_label:"MPKI" ~y_label:"CPI/perfect"
             ~line:(Pi_plot.Scatter.regression_line norm_reg)
             ~extra_points:[ (0.0, 1.0, 'X') ] points))
      names
  in
  panel "(a) highly linear" [ "473.astar"; "401.bzip2"; "458.sjeng" ];
  panel "(b) less linear" [ "456.hmmer"; "252.eon"; "178.galgel" ]

let fig6 () =
  section "Figure 6: cumulative r^2 per event + combined model"
    "on average 27% of CPI variance from branch mispredictions; 462.libquantum 84.2%";
  let attributions = List.map (fun b -> Blame.attribute (dataset b)) (Spec.all_2006 ()) in
  let rows =
    List.map
      (fun (a : Blame.t) -> (a.Blame.benchmark, [ a.Blame.r2_mpki; a.Blame.r2_l1i; a.Blame.r2_l2 ]))
      attributions
    @ [
        (let avg = Blame.average attributions in
         (avg.Blame.benchmark, [ avg.Blame.r2_mpki; avg.Blame.r2_l1i; avg.Blame.r2_l2 ]));
      ]
  in
  print_endline
    (Pi_plot.Bars.render_stacked ~width:100 ~title:"cumulative r^2 (stacked) per event"
       ~segment_glyphs:[ 'B'; 'I'; '2' ]
       ~legend:[ "r2 MPKI"; "r2 L1I"; "r2 L2" ] rows);
  print_endline Blame.header;
  List.iter (fun a -> print_endline (Blame.row a)) attributions;
  print_endline (Blame.row (Blame.average attributions))

let significance_experiment () =
  section "Significance (Sections 4.6/6.4): t-test on CPI~MPKI per benchmark"
    "20 of 23 benchmarks reject the null hypothesis at p <= 0.05";
  print_endline Significance.header;
  (* The paper samples in batches (100 -> 200 -> 300) until the null can be
     rejected; we batch by PI_LAYOUTS. The grown datasets are kept so later
     figures reuse them. *)
  let verdicts =
    List.map
      (fun bench ->
        let d0 = dataset bench in
        let v0 = Significance.test d0 in
        let v, d =
          if v0.Significance.significant then (v0, d0)
          else
            let rec grow d =
              let n = Array.length d.E.observations in
              if n >= 3 * n_layouts then (Significance.test d, d)
              else
                let d = E.extend d ~n_layouts:(n + n_layouts) in
                let v = Significance.test d in
                if v.Significance.significant then (v, d) else grow d
            in
            grow d0
        in
        Hashtbl.replace dataset_cache bench.Bench_def.name d;
        print_endline (Significance.row v);
        v)
      (Spec.all_2006 ())
  in
  let significant =
    List.length (List.filter (fun v -> v.Significance.significant) verdicts)
  in
  Printf.printf "\n%d of %d benchmarks significant at p <= 0.05\n" significant
    (List.length verdicts);
  let mismatches =
    List.filter
      (fun ((bench : Bench_def.t), (v : Significance.verdict)) ->
        bench.Bench_def.expect_significant <> v.Significance.significant)
      (List.combine (Spec.all_2006 ()) verdicts)
  in
  if mismatches = [] then print_endline "all verdicts match the paper's expectations"
  else
    List.iter
      (fun ((bench : Bench_def.t), (v : Significance.verdict)) ->
        Printf.printf "NOTE: %s expected %s, measured %s\n" bench.Bench_def.name
          (if bench.Bench_def.expect_significant then "significant" else "not significant")
          (if v.Significance.significant then "significant" else "not significant"))
      mismatches

let table1 () =
  section "Table 1: least-squares models (slope, intercept, 95% PI at MPKI=0)"
    "slopes 0.016..0.041 for branch-sensitive codes, degenerate for zeusmp/GemsFDTD";
  print_endline Model.table1_header;
  List.iter (fun bench -> print_endline (Model.table1_row (model bench))) (Spec.table1_2006 ())

let evaluations_cache : (string * Predict.evaluation list) list ref = ref []

let evaluations () =
  if !evaluations_cache = [] then
    evaluations_cache :=
      timed "Pin predictor sweeps" (fun () ->
          List.map
            (fun bench ->
              (bench.Bench_def.name, Predict.evaluate (dataset bench) (model bench)))
            (Spec.table1_2006 ()));
  !evaluations_cache

let fig7 () =
  section "Figure 7: MPKI of real and simulated predictors"
    "real 6.306 avg; GAs-8KB 5.729; GAs-16KB 5.542; L-TAGE 3.995 (37% below real)";
  let evals = evaluations () in
  let names =
    match evals with
    | (_, rows) :: _ -> List.map (fun e -> e.Predict.predictor) rows
    | [] -> []
  in
  Printf.printf "%-16s" "Benchmark";
  List.iter (fun n -> Printf.printf " %12s" n) names;
  print_newline ();
  List.iter
    (fun (bench, rows) ->
      Printf.printf "%-16s" bench;
      List.iter (fun e -> Printf.printf " %12.3f" e.Predict.mean_mpki) rows;
      print_newline ())
    evals;
  let summary = Predict.summarize_suite evals in
  Printf.printf "%-16s %12.3f" "Average" summary.Predict.real_mpki;
  List.iter (fun (_, mpki, _, _) -> Printf.printf " %12.3f" mpki) summary.Predict.rows;
  Printf.printf " %12.3f\n" 0.0

let fig8 () =
  section "Figure 8: predicted CPI per predictor with 95% intervals"
    "error bars: prediction intervals for simulated predictors, confidence for real";
  List.iter
    (fun (bench, rows) ->
      Printf.printf "-- %s --\n" bench;
      print_endline
        (Pi_plot.Bars.render_intervals ~width:100
           (List.map
              (fun (e : Predict.evaluation) ->
                ( e.Predict.predictor,
                  e.Predict.cpi.Linreg.lower,
                  e.Predict.cpi.Linreg.estimate,
                  e.Predict.cpi.Linreg.upper ))
              rows)))
    (evaluations ())

let headline () =
  section "Headline estimates (Sections 1.4 and 7.2)"
    "perlbench perfect: -26.0% +- 4.2%; suite: real 1.387+-0.012 vs perfect 1.223+-0.061 (avg 11.8%); L-TAGE -37% MPKI -> -4.8% CPI";
  let perl = Spec.find "400.perlbench" in
  let m = model perl in
  let d = dataset perl in
  let mean_mpki = Pi_stats.Descriptive.mean (E.mpkis d) in
  let mean_cpi = Pi_stats.Descriptive.mean (E.cpis d) in
  let perfect = m.Model.perfect_prediction in
  Printf.printf "400.perlbench: measured CPI %.3f at MPKI %.2f\n" mean_cpi mean_mpki;
  Printf.printf "  perfect prediction CPI %.3f [%.3f, %.3f] -> improvement %.1f%%\n"
    perfect.Linreg.estimate perfect.Linreg.lower perfect.Linreg.upper
    (Model.improvement_percent m ~from_mpki:mean_mpki ~to_mpki:0.0);
  let half = Model.predict_cpi m ~mpki:(mean_mpki /. 2.0) in
  Printf.printf "  halving MPKI (%.2f -> %.2f): CPI %.3f [%.3f, %.3f], improvement %.1f%%\n"
    mean_mpki (mean_mpki /. 2.0) half.Linreg.estimate half.Linreg.lower half.Linreg.upper
    (Model.improvement_percent m ~from_mpki:mean_mpki ~to_mpki:(mean_mpki /. 2.0));
  (match Model.mpki_reduction_for_cpi_gain m ~at_mpki:mean_mpki ~gain_percent:10.0 with
  | Some reduction ->
      Printf.printf "  a 10%% CPI improvement requires a %.0f%% misprediction reduction\n"
        reduction
  | None -> print_endline "  (slope non-positive; no reduction estimate)");
  let summary = Predict.summarize_suite (evaluations ()) in
  Printf.printf "\nSuite (20 benchmarks): real CPI %.3f +- %.3f at %.3f MPKI\n"
    summary.Predict.real_cpi summary.Predict.real_cpi_half_width summary.Predict.real_mpki;
  List.iter
    (fun (name, mpki, cpi, half_width) ->
      Printf.printf "  %-10s MPKI %6.3f (%+.1f%%)  CPI %.3f +- %.3f (improvement %.1f%%)\n"
        name mpki
        (100.0 *. (mpki -. summary.Predict.real_mpki) /. summary.Predict.real_mpki)
        cpi half_width
        (100.0 *. (summary.Predict.real_cpi -. cpi) /. summary.Predict.real_cpi))
    summary.Predict.rows

let samples () =
  section "Number of samples (Section 6.3) + power analysis"
    "most benchmarks reject the null within 100 samples; some need 200, a few 300";
  print_endline Interferometry.Power.header;
  let rows =
    Interferometry.Power.analyze ~batch:n_layouts ~max_samples:(3 * n_layouts) ~config
      (Spec.all_2006 ())
  in
  List.iter (fun r -> print_endline (Interferometry.Power.row_to_string r)) rows;
  Printf.printf
    "\n(weakest detectable |r| at n=%d with 80%% power: %.2f; at n=%d: %.2f)\n" n_layouts
    (Interferometry.Power.detectable_r n_layouts)
    (3 * n_layouts)
    (Interferometry.Power.detectable_r (3 * n_layouts))

let machines () =
  section "Machine comparison (Section 1.5: betting on future microarchitectures)"
    "deeper pipelines (NetBurst-like) make each misprediction costlier: steeper Table-1 slopes";
  Printf.printf "%-16s %16s %16s %12s\n" "Benchmark" "Xeon-like slope" "NetBurst slope" "ratio";
  let benches = [ "400.perlbench"; "456.hmmer"; "445.gobmk"; "462.libquantum"; "401.bzip2" ] in
  let ratios =
    List.map
      (fun name ->
        let bench = Spec.find name in
        let prepared = E.prepare ~config bench in
        let slope machine =
          let plan = Pi_uarch.Replay.compile machine prepared.E.trace in
          let n = min 30 n_layouts in
          let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
          for i = 0 to n - 1 do
            let placement = Pi_layout.Placement.make prepared.E.program ~seed:(i + 1) in
            let c = Pi_uarch.Replay.run ~warmup_blocks:prepared.E.warmup_blocks plan placement in
            xs.(i) <- Pi_uarch.Pipeline.mpki c;
            ys.(i) <- Pi_uarch.Pipeline.cpi c
          done;
          (Linreg.fit xs ys).Linreg.slope
        in
        let xeon = slope config.E.machine in
        let netburst = slope Pi_uarch.Machine.netburst_like in
        Printf.printf "%-16s %16.4f %16.4f %12.2f\n" name xeon netburst (netburst /. xeon);
        netburst /. xeon)
      benches
  in
  Printf.printf "mean slope ratio: %.2fx (mispredict penalty ratio configured: %.2fx)\n"
    (List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios))
    (Pi_uarch.Machine.netburst_like.Pi_uarch.Pipeline.penalties.Pi_uarch.Pipeline.mispredict
    /. config.E.machine.Pi_uarch.Pipeline.penalties.Pi_uarch.Pipeline.mispredict)

let simpoints () =
  section "SimPoint phase analysis (Section 3 methodology)"
    "the MASE study simulates one simpoint per benchmark; we validate the machinery";
  Printf.printf "%-16s %10s %12s %12s %8s\n" "Benchmark" "full CPI" "simpoint CPI" "intervals" "err %%";
  List.iter
    (fun name ->
      let bench = Spec.find name in
      let prepared = E.prepare ~config bench in
      let trace = prepared.E.trace in
      let placement = Pi_layout.Placement.make prepared.E.program ~seed:1 in
      let metric t ~warmup_blocks =
        Pi_uarch.Pipeline.cpi
          (Pi_uarch.Pipeline.run ~warmup_blocks config.E.machine t placement)
      in
      let interval_blocks = max 1 (Pi_isa.Trace.blocks_executed trace / 10) in
      let full = metric trace ~warmup_blocks:prepared.E.warmup_blocks in
      let estimate =
        Pi_isa.Phases.estimate metric trace ~interval_blocks
          ~warmup_blocks:(3 * interval_blocks) ~k:4 ()
      in
      Printf.printf "%-16s %10.4f %12.4f %12d %8.2f\n" name full estimate
        ((Pi_isa.Trace.blocks_executed trace + interval_blocks - 1) / interval_blocks)
        (100.0 *. Float.abs (estimate -. full) /. full))
    [ "470.lbm"; "434.zeusmp"; "456.hmmer"; "400.perlbench" ];
  print_endline
    "(long-history predictor state needs long warmup; streaming codes estimate tightly)"

let ablations () =
  section "Ablations (DESIGN.md section 4)" "design-choice sanity checks, not in the paper";
  (* 1. Wrong-path side effects drive the non-linearity of eon. *)
  let bench = Spec.find "252.eon" in
  let prepared = E.prepare ~config bench in
  let placement = Pi_layout.Placement.natural prepared.E.program in
  let with_wp =
    Pi_uarch.Sweep.run_study ~base:config.E.machine ~warmup_blocks:prepared.E.warmup_blocks
      ~benchmark:"252.eon" prepared.E.trace placement
  in
  let without_wp =
    Pi_uarch.Sweep.run_study
      ~base:(Pi_uarch.Machine.without_wrong_path config.E.machine)
      ~warmup_blocks:prepared.E.warmup_blocks ~benchmark:"252.eon" prepared.E.trace placement
  in
  Printf.printf
    "wrong-path effects on 252.eon perfect-extrapolation error: %.2f%% with, %.2f%% without\n"
    with_wp.Pi_uarch.Sweep.perfect_error_percent
    without_wp.Pi_uarch.Sweep.perfect_error_percent;
  (* 2. Median-of-5 protocol vs a single noisy run: residual noise around
     the per-layout exact CPI. *)
  let perl = Spec.find "400.perlbench" in
  let prepared = E.prepare ~config perl in
  let spread protocol =
    let residuals =
      Array.init 24 (fun i ->
          let counts = E.exact_counts prepared ~seed:(i + 1) in
          let exact = Pi_uarch.Counters.ideal counts in
          let m =
            if protocol then Pi_uarch.Counters.measure ~seed:(1000 + i) counts
            else Pi_uarch.Counters.measure_single_run ~seed:(1000 + i) counts
          in
          m.Pi_uarch.Counters.cpi -. exact.Pi_uarch.Counters.cpi)
    in
    Pi_stats.Descriptive.stddev residuals
  in
  Printf.printf
    "measurement noise on perlbench CPI: median-of-5 sd %.5f vs single-run sd %.5f\n"
    (spread true) (spread false);
  (* 3. Heap randomization is what elicits cache-miss variance (calculix). *)
  let ccx = Spec.find "454.calculix" in
  let r2_of heap_random =
    let cfg = { config with E.heap_random } in
    let d = E.run ~config:cfg ccx ~n_layouts:(min 30 n_layouts) in
    Pi_stats.Correlation.r_squared (E.l1d_mpkis d) (E.cpis d)
  in
  Printf.printf "calculix r^2(CPI, L1D misses): randomized heap %.3f vs bump allocator %.3f\n"
    (r2_of true) (r2_of false);
  (* 4. ITTAGE vs BTB for indirect branches (perlbench dispatch loop). *)
  let prepared = E.prepare ~config perl in
  let placement = Pi_layout.Placement.make prepared.E.program ~seed:1 in
  let indirect_misses make_indirect =
    let cfg = Pi_uarch.Machine.with_indirect config.E.machine ~name:"x" make_indirect in
    let c = Pi_uarch.Pipeline.run ~warmup_blocks:prepared.E.warmup_blocks cfg prepared.E.trace placement in
    c.Pi_uarch.Pipeline.indirect_mispredicts
  in
  Printf.printf "perlbench indirect mispredicts: BTB %d vs ITTAGE %d\n"
    (indirect_misses (fun () -> Pi_uarch.Indirect.btb ()))
    (indirect_misses (fun () -> Pi_uarch.Indirect.ittage ()));
  (* 5. A trace cache mutes the L1I interferometry signal (gcc). *)
  let gcc = Spec.find "403.gcc" in
  let prepared_gcc = E.prepare ~config gcc in
  let l1i_sd machine =
    let plan = Pi_uarch.Replay.compile machine prepared_gcc.E.trace in
    let values =
      Array.init 15 (fun i ->
          let placement = Pi_layout.Placement.make prepared_gcc.E.program ~seed:(i + 1) in
          let c = Pi_uarch.Replay.run ~warmup_blocks:prepared_gcc.E.warmup_blocks plan placement in
          Pi_uarch.Pipeline.l1i_mpki c)
    in
    Pi_stats.Descriptive.stddev values
  in
  Printf.printf "gcc L1I MPKI spread over layouts: %.4f without trace cache, %.4f with\n"
    (l1i_sd config.E.machine)
    (l1i_sd (Pi_uarch.Machine.with_trace_cache config.E.machine));
  (* 6. Stride prefetcher collapses streaming L2 demand misses (bwaves). *)
  let bwaves = Spec.find "410.bwaves" in
  let prepared_bw = E.prepare ~config bwaves in
  let placement_bw = Pi_layout.Placement.make prepared_bw.E.program ~seed:1 in
  let l2_mpki machine =
    Pi_uarch.Pipeline.l2_mpki
      (Pi_uarch.Pipeline.run ~warmup_blocks:prepared_bw.E.warmup_blocks machine
         prepared_bw.E.trace placement_bw)
  in
  Printf.printf "bwaves L2 demand MPKI: %.2f without prefetcher, %.2f with\n"
    (l2_mpki config.E.machine)
    (l2_mpki (Pi_uarch.Machine.with_data_prefetcher config.E.machine));
  (* 7. Profile-guided placement sits at the favourable edge of the random
     layout distribution (the paper's Section 2.2 counterfactual). *)
  let optimized_code = Pi_layout.Profile_layout.layout prepared_gcc.E.trace in
  let optimized_placement =
    {
      Pi_layout.Placement.seed = -1;
      code = optimized_code;
      data = Pi_layout.Data_layout.bump prepared_gcc.E.program;
    }
  in
  let gcc_plan = Pi_uarch.Replay.compile config.E.machine prepared_gcc.E.trace in
  let cpi_of placement =
    Pi_uarch.Pipeline.cpi
      (Pi_uarch.Replay.run ~warmup_blocks:prepared_gcc.E.warmup_blocks gcc_plan placement)
  in
  let random_cpis =
    Array.init 20 (fun i -> cpi_of (Pi_layout.Placement.make prepared_gcc.E.program ~seed:(i + 1)))
  in
  let optimized_cpi = cpi_of optimized_placement in
  let better = Array.length (Array.of_list (List.filter (fun c -> c > optimized_cpi) (Array.to_list random_cpis))) in
  Printf.printf
    "gcc profile-guided layout CPI %.4f beats %d of 20 random layouts (random mean %.4f)\n"
    optimized_cpi better
    (Pi_stats.Descriptive.mean random_cpis);
  (* 8. Bootstrap vs parametric intervals for the perlbench model. *)
  let d = dataset perl in
  let m = model perl in
  let slope_bs, intercept_bs =
    Pi_stats.Bootstrap.regression_intervals ~seed:7 (E.mpkis d) (E.cpis d)
  in
  Printf.printf
    "perlbench intercept: parametric 95%% PI [%.3f, %.3f], bootstrap CI [%.3f, %.3f] (slope bootstrap [%.4f, %.4f])\n"
    m.Model.perfect_prediction.Linreg.lower m.Model.perfect_prediction.Linreg.upper
    intercept_bs.Pi_stats.Bootstrap.lower intercept_bs.Pi_stats.Bootstrap.upper
    slope_bs.Pi_stats.Bootstrap.lower slope_bs.Pi_stats.Bootstrap.upper;
  (* 9. ASLR (Section 5.5): the paper pins address-space randomization so
     every placement is exactly reproducible from its PRNG key. Enabling
     our seeded ASLR model shows what it adds: extra data-placement
     variance on top of the allocator's. *)
  let ccx_prepared =
    E.prepare ~config:{ config with E.scale = 3 * scale; budget_blocks = 700_000; heap_random = true } ccx
  in
  let ccx_plan = Pi_uarch.Replay.compile config.E.machine ccx_prepared.E.trace in
  let cache_r2 ~aslr =
    let n = min 20 n_layouts in
    let l1ds = Array.make n 0.0 and cpis = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let placement =
        Pi_layout.Placement.make ~heap_random:true ~aslr ccx_prepared.E.program ~seed:(i + 1)
      in
      let c = Pi_uarch.Replay.run ~warmup_blocks:ccx_prepared.E.warmup_blocks ccx_plan placement in
      l1ds.(i) <- Pi_uarch.Pipeline.l1d_mpki c;
      cpis.(i) <- Pi_uarch.Pipeline.cpi c
    done;
    (Pi_stats.Correlation.r_squared l1ds cpis, Pi_stats.Descriptive.stddev cpis)
  in
  let r2_off, sd_off = cache_r2 ~aslr:false in
  let r2_on, sd_on = cache_r2 ~aslr:true in
  Printf.printf
    "calculix ASLR off (paper's setup): r^2(CPI,L1D) %.3f, CPI sd %.4f; ASLR on: %.3f, %.4f\n"
    r2_off sd_off r2_on sd_on;
  Printf.printf
    "  (ASLR adds placement variance beyond the allocator's control; the paper pins it\n     \   so each executable's addresses are fully determined by the PRNG key)\n";
  (* 10. Cache interferometry (the paper's future work): hypothetical cache
     geometries for the Figure-3 benchmark. *)
  let ccx_cfg = { config with E.heap_random = true; scale = 3 * scale; budget_blocks = 700_000 } in
  let ccx_ds = E.run ~config:ccx_cfg ccx ~n_layouts:(min 30 n_layouts) in
  let mm = Interferometry.Cache_model.fit ccx_ds in
  print_endline Interferometry.Cache_model.header;
  List.iter
    (fun e -> print_endline (Interferometry.Cache_model.row e))
    (Interferometry.Cache_model.evaluate ccx_ds mm)

let micro () =
  section "Bechamel micro-benchmarks" "throughput of the core components";
  let open Bechamel in
  let trace =
    let p = (Spec.find "400.perlbench").Bench_def.build ~scale:2 in
    Pi_layout.Run_limiter.trace p ~budget_blocks:20_000
  in
  let placement = Pi_layout.Placement.natural trace.Pi_isa.Trace.program in
  let predictor_test name make =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Pi_pin.Bp_sim.run trace placement.Pi_layout.Placement.code [ make ])))
  in
  let tests =
    [
      predictor_test "pin:bimodal" (fun () -> Pi_uarch.Bimodal.create ~entries_log2:12);
      predictor_test "pin:gshare" (fun () ->
          Pi_uarch.Gshare.create ~entries_log2:14 ~history_bits:12);
      predictor_test "pin:hybrid" Pi_uarch.Hybrid.xeon_like;
      predictor_test "pin:ltage" (fun () -> Pi_uarch.Ltage.create ());
      Test.make ~name:"pipeline:run"
        (Staged.stage (fun () ->
             ignore (Pi_uarch.Machine.run Pi_uarch.Machine.xeon_e5440 trace placement)));
      Test.make ~name:"pipeline:legacy"
        (Staged.stage (fun () ->
             ignore (Pi_uarch.Pipeline.run_unoptimized Pi_uarch.Machine.xeon_e5440 trace placement)));
      Test.make ~name:"pipeline:compile"
        (Staged.stage (fun () ->
             ignore (Pi_uarch.Replay.compile Pi_uarch.Machine.xeon_e5440 trace)));
      (let plan = Pi_uarch.Replay.compile Pi_uarch.Machine.xeon_e5440 trace in
       Test.make ~name:"pipeline:replay"
         (Staged.stage (fun () -> ignore (Pi_uarch.Replay.run plan placement))));
      Test.make ~name:"layout:link"
        (Staged.stage (fun () ->
             ignore (Pi_layout.Code_layout.randomized trace.Pi_isa.Trace.program ~seed:7)));
      Test.make ~name:"stats:linreg-fit"
        (let xs = Array.init 200 (fun i -> float_of_int i) in
         let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
         Staged.stage (fun () -> ignore (Linreg.fit xs ys)));
      Test.make ~name:"stats:t-quantile"
        (Staged.stage (fun () ->
             ignore (Pi_stats.Distributions.Student_t.quantile ~df:98.0 0.975)));
    ]
  in
  let grouped = Test.make_grouped ~name:"interferometry" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Bechamel.Toolkit.Instance.monotonic_clock in
  let results = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols instance results in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) analyzed [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ estimate ] -> Printf.printf "%-36s %14.1f ns/run\n" name estimate
      | Some _ | None -> Printf.printf "%-36s (no estimate)\n" name)
    (List.sort compare rows)

let all_experiments =
  [
    ("campaign", campaign);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("significance", significance_experiment);
    ("table1", table1);
    ("fig7", fig7);
    ("fig8", fig8);
    ("headline", headline);
    ("samples", samples);
    ("machines", machines);
    ("simpoints", simpoints);
    ("ablations", ablations);
  ]

(* Observability artifacts: spans cover every experiment (and, through the
   library instrumentation, every prepare/replay/fit inside them); the
   trace and a final metrics scrape are written next to the figures. *)
let trace_out = Option.value ~default:"BENCH_trace.json" (Sys.getenv_opt "PI_TRACE_OUT")
let metrics_out =
  Option.value ~default:"BENCH_metrics.prom" (Sys.getenv_opt "PI_METRICS_OUT")

let run_experiment name f = Pi_obs.Span.with_ ~name ~cat:"bench" f

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  if trace_out <> "-" then Pi_obs.Span.set_enabled true;
  Printf.printf
    "Program Interferometry reproduction — %d reorderings/benchmark, scale %d, seed %d\n"
    n_layouts scale master_seed;
  Pi_obs.Log.info "knobs: %s PI_JOBS=%s PI_CACHE_DIR=%s"
    (Interferometry.Knobs.describe
       [ ("PI_LAYOUTS", n_layouts); ("PI_SCALE", scale); ("PI_SEED", master_seed) ])
    (match Sys.getenv_opt "PI_JOBS" with
    | Some _ -> string_of_int (env_int "PI_JOBS" (Pi_campaign.Scheduler.default_jobs ()))
    | None -> Printf.sprintf "%d(auto)" (Pi_campaign.Scheduler.default_jobs ()))
    (Option.value ~default:"(none)" (Sys.getenv_opt "PI_CACHE_DIR"));
  let t0 = Pi_obs.Clock.now () in
  (match requested with
  | [] -> List.iter (fun (name, f) -> run_experiment name f) all_experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> run_experiment name f
          | None when name = "micro" -> run_experiment "micro" micro
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s micro\n" name
                (String.concat " " (List.map fst all_experiments)))
        names);
  Printf.printf "\ntotal time: %.1fs\n" (Pi_obs.Clock.now () -. t0);
  if trace_out <> "-" then begin
    Pi_obs.Span.save ~path:trace_out;
    Pi_obs.Log.info "trace: %s (load in Perfetto, see docs/OBSERVABILITY.md)" trace_out
  end;
  if metrics_out <> "-" then begin
    Pi_obs.Metrics.save ~path:metrics_out;
    Pi_obs.Log.info "metrics: %s" metrics_out
  end
