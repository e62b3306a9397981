(* Command-line front end, 22 subcommands:

     interferometry list
     interferometry trace   <bench>
     interferometry phases  <bench>                  (SimPoint-style phase analysis)
     interferometry measure <bench> --layouts 50 [--heap-random] [--seed N]
     interferometry model   <bench> --layouts 50
     interferometry blame   <bench> --layouts 50
     interferometry predict <bench> --layouts 30
     interferometry sweep   <bench> [--axis predictor|cache] [--jobs N] [--check]
     interferometry cache   <bench> --layouts 25     (cache interferometry)
     interferometry report  <bench> -o study.md      (full Markdown report)
     interferometry export  <bench> runs.csv         (CSV persistence)
     interferometry refit   <bench> runs.csv
     interferometry campaign --suite 2006 --jobs 4   (parallel suite campaign)
     interferometry campaign-worker                  (internal: campaign --workers)
     interferometry bundle verify|replay|diff DIR    (content-addressed run bundles)
     interferometry stats                            (metrics scrape pretty-print)
     interferometry history                          (run-history ledger)
     interferometry compare BEFORE AFTER             (perf-regression gate)
     interferometry serve                            (the daemon)
     interferometry submit|status|result             (its client)

   `measure`, `sweep`, `campaign` and `serve` also accept --metrics-out FILE
   and --trace-out FILE.json (Prometheus scrape / Chrome trace, see
   docs/OBSERVABILITY.md). Run `dune exec bin/interferometry_cli.exe -- --help`
   for details. *)

open Cmdliner
module E = Interferometry.Experiment
module Linreg = Pi_stats.Linreg
module Metrics = Pi_obs.Metrics

(* --metrics-out / --trace-out: shared observability flags. Tracing is
   enabled up front (spans are off by default and cost one atomic load);
   both artifacts are dumped when the wrapped command body returns,
   including the failure paths that end in a nonzero exit. *)

let metrics_out_term =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a metrics scrape to $(docv) on exit: Prometheus text \
                 exposition format, or its JSON twin when $(docv) ends in \
                 $(b,.json).")

let trace_out_term =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE.json"
           ~doc:"Enable stage tracing and write the spans as Chrome \
                 trace-event JSON (loadable in Perfetto) on exit.")

let with_obs ~metrics_out ~trace_out f =
  if Option.is_some trace_out then Pi_obs.Span.set_enabled true;
  let result = f () in
  Option.iter (fun path -> Pi_obs.Span.save ~path) trace_out;
  Option.iter (fun path -> Metrics.save ~path) metrics_out;
  result

(* The one flag-range check: [--name] below [min] exits 2. *)
let check_at_least ~cmd name min = function
  | Some v when v < min ->
      Printf.eprintf "%s: --%s must be >= %d (got %d)\n" cmd name min v;
      exit 2
  | _ -> ()

let bundle_term =
  Arg.(value & opt (some string) None
       & info [ "bundle" ] ~docv:"DIR"
           ~doc:"Emit a content-addressed run bundle under $(docv): a \
                 canonical-JSON manifest plus SHA-256-pinned inputs and \
                 output CSVs. Check it later with $(b,interferometry bundle \
                 verify|diff); $(b,bundle replay) re-runs a campaign's.")

let bench_arg =
  let parse name =
    match Pi_workloads.Spec.find name with
    | bench -> Ok bench
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown benchmark %S; try `interferometry list`" name))
  in
  let print ppf (b : Pi_workloads.Bench.t) = Format.fprintf ppf "%s" b.name in
  Arg.conv (parse, print)

let bench_pos =
  Arg.(required & pos 0 (some bench_arg) None & info [] ~docv:"BENCHMARK")

let layouts_term =
  Arg.(value & opt int 50 & info [ "layouts"; "n" ] ~docv:"N" ~doc:"Number of code reorderings.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Master PRNG seed.")

let scale_term =
  Arg.(value & opt int 8 & info [ "scale" ] ~docv:"K" ~doc:"Workload scale (trip multiplier).")

let heap_random_term =
  Arg.(value & flag & info [ "heap-random" ] ~doc:"Randomize heap placement (DieHard-style).")

(* The bench/layouts/seed/scale/heap-random plumbing the dataset commands
   share. It yields a thunk, so a command can switch tracing on before it
   measures. *)
let dataset_term =
  let dataset bench layouts seed scale heap_random () =
    E.run ~config:(E.make_config ~seed ~scale ~heap_random ()) bench ~n_layouts:layouts
  in
  Term.(const dataset $ bench_pos $ layouts_term $ seed_term $ scale_term $ heap_random_term)

let list_cmd =
  let run () =
    Printf.printf "%-16s %-14s %-5s %s\n" "name" "suite" "sig?" "description";
    List.iter
      (fun (b : Pi_workloads.Bench.t) ->
        Printf.printf "%-16s %-14s %-5s %s\n" b.name
          (Pi_workloads.Bench.suite_name b.suite)
          (if b.expect_significant then "yes" else "no")
          b.description)
      (Pi_workloads.Spec.simulation_suite ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark stand-ins.") Term.(const run $ const ())

let trace_cmd =
  let run bench seed scale =
    let prepared = E.prepare ~config:(E.make_config ~seed ~scale ()) bench in
    print_endline (Pi_isa.Program.static_stats prepared.E.program);
    print_endline (Pi_isa.Trace.summary prepared.E.trace);
    Printf.printf "warmup: %d blocks\n" prepared.E.warmup_blocks
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Build a benchmark and show its static program and trace statistics.")
    Term.(const run $ bench_pos $ seed_term $ scale_term)

let measure_cmd =
  let run dataset metrics_out trace_out =
    with_obs ~metrics_out ~trace_out @@ fun () ->
    let dataset = dataset () in
    Printf.printf "%-6s %10s %10s %10s %10s %10s\n" "seed" "CPI" "MPKI" "L1I" "L1D" "L2";
    Array.iter
      (fun (o : E.observation) ->
        let m = o.E.measurement in
        Printf.printf "%-6d %10.4f %10.3f %10.3f %10.3f %10.3f\n" o.E.layout_seed
          m.Pi_uarch.Counters.cpi m.Pi_uarch.Counters.mpki m.Pi_uarch.Counters.l1i_mpki
          m.Pi_uarch.Counters.l1d_mpki m.Pi_uarch.Counters.l2_mpki)
      dataset.E.observations;
    Printf.printf "\nCPI:  %s\n"
      (Format.asprintf "%a" Pi_stats.Descriptive.pp_summary
         (Pi_stats.Descriptive.summarize (E.cpis dataset)));
    Printf.printf "MPKI: %s\n"
      (Format.asprintf "%a" Pi_stats.Descriptive.pp_summary
         (Pi_stats.Descriptive.summarize (E.mpkis dataset)))
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Measure a benchmark over N reorderings (counter protocol).")
    Term.(const run $ dataset_term $ metrics_out_term $ trace_out_term)

let model_cmd =
  let run dataset =
    let dataset = dataset () in
    let verdict = Interferometry.Significance.test dataset in
    print_endline Interferometry.Significance.header;
    print_endline (Interferometry.Significance.row verdict);
    print_newline ();
    if verdict.Interferometry.Significance.significant then begin
      let model = Interferometry.Model.fit dataset in
      print_endline Interferometry.Model.table1_header;
      print_endline (Interferometry.Model.table1_row model);
      let points = Array.map2 (fun x y -> (x, y)) (E.mpkis dataset) (E.cpis dataset) in
      print_newline ();
      print_endline
        (Pi_plot.Scatter.render ~width:90 ~height:22
           ~title:
             (Format.asprintf "CPI vs MPKI: %a" Linreg.pp
                model.Interferometry.Model.regression)
           ~x_label:"MPKI" ~y_label:"CPI"
           ~line:(Pi_plot.Scatter.regression_line model.Interferometry.Model.regression)
           ~bands:
             [
               Pi_plot.Scatter.confidence_band model.Interferometry.Model.regression;
               Pi_plot.Scatter.prediction_band model.Interferometry.Model.regression;
             ]
           points)
    end
    else
      print_endline
        "no significant CPI~MPKI correlation: interferometry cannot model this benchmark"
  in
  Cmd.v
    (Cmd.info "model" ~doc:"Fit and display the CPI ~ MPKI regression model.")
    Term.(const run $ dataset_term)

let blame_cmd =
  let run dataset =
    let dataset = dataset () in
    let a = Interferometry.Blame.attribute dataset in
    print_endline Interferometry.Blame.header;
    print_endline (Interferometry.Blame.row a);
    Printf.printf "\ncombined model: %s\n"
      (Format.asprintf "%a" Pi_stats.Multireg.pp a.Interferometry.Blame.combined)
  in
  Cmd.v
    (Cmd.info "blame" ~doc:"Attribute CPI variance to microarchitectural events (r^2).")
    Term.(const run $ dataset_term)

let predict_cmd =
  let run bench layouts seed scale =
    let dataset = E.run ~config:(E.make_config ~seed ~scale ()) bench ~n_layouts:layouts in
    let model = Interferometry.Model.fit dataset in
    let rows = Interferometry.Predict.evaluate dataset model in
    print_endline Interferometry.Predict.header;
    List.iter (fun e -> print_endline (Interferometry.Predict.row e)) rows
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Estimate CPI of hypothetical predictors (GAs 2-16KB, L-TAGE, perfect).")
    Term.(const run $ bench_pos $ layouts_term $ seed_term $ scale_term)

let cache_cmd =
  let run bench layouts seed scale =
    (* Cache interferometry wants long runs and a randomized heap. *)
    let config =
      {
        (E.make_config ~seed ~scale:(3 * scale) ~heap_random:true ()) with
        E.budget_blocks = 700_000;
      }
    in
    let dataset = E.run ~config bench ~n_layouts:layouts in
    let model = Interferometry.Cache_model.fit dataset in
    Printf.printf "memory model: %s\n\n"
      (Format.asprintf "%a" Pi_stats.Multireg.pp model.Interferometry.Cache_model.regression);
    print_endline Interferometry.Cache_model.header;
    List.iter
      (fun e -> print_endline (Interferometry.Cache_model.row e))
      (Interferometry.Cache_model.evaluate dataset model)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Cache interferometry: estimate CPI of hypothetical cache geometries.")
    Term.(const run $ bench_pos $ layouts_term $ seed_term $ scale_term)

let export_cmd =
  let path_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE.csv") in
  let run dataset path =
    let dataset = dataset () in
    Interferometry.Dataset_io.save path dataset;
    Printf.printf "wrote %d observations to %s\n" (Array.length dataset.E.observations) path
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Measure a benchmark and export the observations to CSV.")
    Term.(const run $ dataset_term $ path_pos)

let refit_cmd =
  let path_pos = Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE.csv") in
  let run bench path seed scale heap_random =
    let config = E.make_config ~seed ~scale ~heap_random () in
    match Interferometry.Dataset_io.load_observations path with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" path e;
        exit 1
    | Ok observations ->
        let prepared = E.prepare ~config bench in
        let dataset = Interferometry.Dataset_io.reattach prepared observations in
        let model = Interferometry.Model.fit dataset in
        print_endline Interferometry.Model.table1_header;
        print_endline (Interferometry.Model.table1_row model)
  in
  Cmd.v
    (Cmd.info "refit" ~doc:"Refit the regression model from a previously exported CSV.")
    Term.(const run $ bench_pos $ path_pos $ seed_term $ scale_term $ heap_random_term)

let phases_cmd =
  let run bench seed scale =
    let config = E.make_config ~seed ~scale () in
    let prepared = E.prepare ~config bench in
    let trace = prepared.E.trace in
    let interval_blocks = max 1 (Pi_isa.Trace.blocks_executed trace / 12) in
    let ivs = Pi_isa.Phases.intervals trace ~interval_blocks in
    let sp = Pi_isa.Phases.choose ivs in
    Printf.printf "%d intervals of %d blocks, %d phases found\n\n"
      (Array.length ivs) interval_blocks
      (Array.length sp.Pi_isa.Phases.representatives);
    Printf.printf "phase timeline: %s\n\n"
      (String.concat ""
         (Array.to_list
            (Array.map (fun c -> String.make 1 (Char.chr (Char.code 'A' + (c mod 26))))
               sp.Pi_isa.Phases.assignment)));
    let placement = Pi_layout.Placement.make prepared.E.program ~seed:1 in
    let metric t ~warmup_blocks =
      Pi_uarch.Pipeline.cpi (Pi_uarch.Pipeline.run ~warmup_blocks config.E.machine t placement)
    in
    Printf.printf "%-8s %10s %10s %8s\n" "phase" "weight" "CPI" "interval";
    Array.iteri
      (fun i rep ->
        let iv = ivs.(rep) in
        let warmup = min (3 * interval_blocks) iv.Pi_isa.Phases.start_block in
        let sub =
          Pi_isa.Phases.slice trace
            ~start_block:(iv.Pi_isa.Phases.start_block - warmup)
            ~length:(iv.Pi_isa.Phases.length + warmup)
        in
        Printf.printf "%c        %10.3f %10.4f %8d\n"
          (Char.chr (Char.code 'A' + (i mod 26)))
          sp.Pi_isa.Phases.weights.(i)
          (metric sub ~warmup_blocks:warmup) rep)
      sp.Pi_isa.Phases.representatives;
    let full = metric trace ~warmup_blocks:prepared.E.warmup_blocks in
    let estimate =
      Pi_isa.Phases.estimate metric trace ~interval_blocks
        ~warmup_blocks:(3 * interval_blocks) ()
    in
    Printf.printf "\nfull CPI %.4f, simpoint estimate %.4f (%.2f%% error)\n" full estimate
      (100.0 *. Float.abs (estimate -. full) /. full)
  in
  Cmd.v
    (Cmd.info "phases" ~doc:"SimPoint-style phase analysis of a benchmark's trace.")
    Term.(const run $ bench_pos $ seed_term $ scale_term)

let report_cmd =
  let path_term =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.md"
           ~doc:"Write the Markdown report to a file instead of stdout.")
  in
  let run dataset path =
    let report = Interferometry.Report.generate (dataset ()) in
    match path with
    | Some path ->
        Interferometry.Report.save report ~path;
        Printf.printf "wrote %s\n" path
    | None -> print_string report.Interferometry.Report.markdown
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Generate a complete Markdown study report for one benchmark.")
    Term.(const run $ dataset_term $ path_term)

(* One axis's study, projected onto what [sweep] prints, records, bundles
   and checks; ['p] is the axis's grid point. *)
type 'p sweep_view = {
  axis_label : string;
  lanes : string;  (** the lane/shard/warmup line *)
  fit_lines : string list;  (** the fitted model and its prediction errors *)
  configs : int;  (** configurations swept, for configs/s *)
  r_squared : float;
  errors : (string * float) list;  (** the axis's prediction-error metrics *)
  points : 'p array;
  sources : Pi_uarch.Sweep.source array;
  replayed : int;
  rounds : int;
  max_abs_err : float;
  mean_abs_err : float;
  grid_seconds : float;
  model_seconds : float;
  csv_header : string;
  csv_row : 'p -> string;
  name_cpi : 'p -> string * float;
  identical : unit -> bool;  (** the sequential per-config study equals this one *)
  full : unit -> 'p array;  (** the unsteered fused study's points *)
}

let sweep_cmd =
  let jobs_term =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Shard the fused lanes over $(docv) domains (default 1: one \
                   fused pass on the calling domain). Results are bit-identical \
                   for any value.")
  in
  let check_term =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Also run the sequential per-config study of the selected \
                   axis and fail (exit 1) unless it matches the fused study \
                   bit for bit.")
  in
  let axis_term =
    Arg.(value & opt (enum [ ("predictor", `Predictor); ("cache", `Cache) ]) `Predictor
         & info [ "axis" ] ~docv:"AXIS"
             ~doc:"Sweep axis: $(b,predictor) (145 branch-predictor \
                   configurations, the Section-3 linearity study) or \
                   $(b,cache) (100 L1I/L2 geometry variants, the \
                   INTERPLAY-style degradation study).")
  in
  let history_term =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE.jsonl"
             ~doc:"Append a run-history record (study wall seconds, configs/s, \
                   fit quality) to $(docv) — the ledger $(b,interferometry \
                   history) and $(b,compare) read.")
  in
  let budget_term =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"N"
             ~doc:"Surrogate-steer the sweep: replay at most $(docv) grid lanes \
                   (a deterministic space-filling seed plus the lanes the model \
                   is least sure of) and fill the rest from the fitted \
                   surrogate. A budget covering the whole grid is bit-identical \
                   to the unsteered sweep.")
  in
  let max_err_term =
    Arg.(value & opt (some float) None
         & info [ "max-err" ] ~docv:"PCT"
             ~doc:"Surrogate-steer the sweep: keep replaying lanes until the \
                   model's CPI uncertainty is below $(docv) percent everywhere, \
                   then fill the remaining lanes from the surrogate.")
  in
  let run bench seed scale jobs axis check budget max_err history bundle metrics_out trace_out =
    with_obs ~metrics_out ~trace_out @@ fun () ->
    check_at_least ~cmd:"sweep" "jobs" 1 (Some jobs);
    let surrogate =
      match (budget, max_err) with
      | Some _, Some _ ->
          prerr_endline "sweep: --budget and --max-err are mutually exclusive";
          exit 2
      | Some b, None ->
          check_at_least ~cmd:"sweep" "budget" 1 budget;
          Some (Pi_uarch.Sweep.Budget b)
      | None, Some e ->
          if e <= 0.0 then begin
            Printf.eprintf "sweep: --max-err must be positive (got %g)\n" e;
            exit 2
          end;
          Some (Pi_uarch.Sweep.Max_err e)
      | None, None -> None
    in
    let config = E.make_config ~seed ~scale () in
    let prepared = E.prepare ~config bench in
    let placement = Pi_layout.Placement.natural prepared.E.program in
    let map_shards =
      if jobs > 1 then Some (Pi_campaign.Campaign.sweep_shard_map ~jobs ()) else None
    in
    let t0 = Unix.gettimeofday () in
    (* Print, record, bundle and check one axis's study. *)
    let report v =
      print_endline v.lanes;
      let n = Array.length v.points in
      if Option.is_some surrogate then begin
        Printf.printf
          "surrogate: %d/%d lanes replayed (%d pruned), %d rounds, holdout CPI err max \
           %.3f%% mean %.3f%%\n"
          v.replayed n (n - v.replayed) v.rounds v.max_abs_err v.mean_abs_err;
        Printf.printf "surrogate time: %.3fs replay, %.3fs model\n" v.grid_seconds
          v.model_seconds
      end;
      List.iter print_endline v.fit_lines;
      let elapsed = Unix.gettimeofday () -. t0 in
      let metrics =
        [
          ("wall_seconds", elapsed);
          ( "sweep_configs_per_sec",
            if elapsed > 0.0 then float_of_int v.configs /. elapsed else 0.0 );
          ("r_squared", v.r_squared);
        ]
        @ v.errors
        @
        if Option.is_some surrogate then
          [
            ("replayed_lanes", float_of_int v.replayed);
            ("surrogate_max_abs_err", v.max_abs_err);
            ("surrogate_mean_abs_err", v.mean_abs_err);
            ("replay_seconds", v.grid_seconds);
            ("model_seconds", v.model_seconds);
          ]
        else []
      in
      let bench_name = bench.Pi_workloads.Bench.name in
      let label = bench_name ^ "/" ^ v.axis_label in
      let digest = Pi_campaign.Obs_cache.config_digest config in
      Option.iter
        (fun path ->
          Pi_obs.History.append ~path
            (Pi_obs.History.make ~kind:"sweep" ~label ~config_digest:digest metrics);
          Printf.printf "history: %s\n" path)
        history;
      (* Sweep bundles pin the same inputs a campaign bundle does (config
         knobs + program/trace fingerprints) and one study CSV as output. *)
      Option.iter
        (fun dir ->
          let module B = Pi_campaign.Bundle in
          let module JT = Pi_obs.Json in
          let config_args = Pi_campaign.Coordinator.config_args ~quick:false config in
          let config_json =
            B.canonical_string
              (JT.Obj
                 [
                   ("config_args", JT.Obj config_args);
                   ("config_digest", JT.String digest);
                   ("axis", JT.String v.axis_label);
                   ("benches", JT.List [ JT.String bench_name ]);
                 ])
            ^ "\n"
          in
          let csv =
            String.concat "" (v.csv_header :: Array.to_list (Array.map v.csv_row v.points))
          in
          let bm =
            B.write ~dir ~kind:"sweep" ~label ~config_digest:digest ~config_args
              ~benches:[ bench_name ] ~n_layouts:1 ~workers:1 ~created_at:t0 ~metrics
              ~inputs:[ ("config.json", config_json); B.fingerprint prepared ]
              ~outputs:[ ("study.csv", csv) ]
              ()
          in
          Printf.printf "bundle: %s (%d pinned artifacts)\n" dir
            (List.length bm.B.artifacts))
        bundle;
      (* --check. Unsteered, [identical ()] runs the sequential per-config
         study and compares it with the fused one. Steered, every replayed
         lane must equal the full fused study's ([full ()]) bit for bit,
         and every predicted lane's CPI must be within the tolerance (the
         --max-err bound; 1% for --budget). *)
      if check then
        match surrogate with
        | None ->
            if v.identical () then
              print_endline "check: fused study identical to sequential study"
            else begin
              prerr_endline "FAIL: fused study differs from sequential study";
              exit 1
            end
        | Some steering ->
            let full = v.full () in
            let tol =
              match steering with
              | Pi_uarch.Sweep.Max_err e -> e
              | Pi_uarch.Sweep.Budget _ -> 1.0
            in
            let failures = ref 0 and pred_max = ref 0.0 in
            Array.iteri
              (fun i p ->
                let name, cpi = v.name_cpi p and _, full_cpi = v.name_cpi full.(i) in
                match v.sources.(i) with
                | Pi_uarch.Sweep.Replayed ->
                    if p <> full.(i) then begin
                      Printf.eprintf "FAIL: replayed lane %s differs from the full study\n"
                        name;
                      incr failures
                    end
                | Pi_uarch.Sweep.Predicted ->
                    let err = Float.abs (cpi -. full_cpi) /. full_cpi *. 100.0 in
                    pred_max := Float.max !pred_max err;
                    if err > tol then begin
                      Printf.eprintf "FAIL: predicted lane %s CPI off by %.3f%% (> %.3f%%)\n"
                        name err tol;
                      incr failures
                    end)
              v.points;
            if !failures = 0 then
              Printf.printf
                "check: replayed lanes bit-identical, predicted CPI within %.3f%% (max \
                 %.3f%%)\n"
                tol !pred_max
            else exit 1
    in
    let module S = Pi_uarch.Sweep in
    let warmup_blocks = prepared.E.warmup_blocks
    and benchmark = bench.Pi_workloads.Bench.name
    and trace = prepared.E.trace in
    let shards n = if n = 1 then "" else "s" in
    match axis with
    | `Predictor ->
        let run ?surrogate () =
          S.run_study ~warmup_blocks ~shards:jobs ?map_shards ?surrogate ~benchmark trace
            placement
        in
        let s = run ?surrogate () in
        report
          {
            axis_label = "predictor";
            lanes =
              Printf.sprintf "%d fused lanes + %d per-config, %d shard%s, %d warmup blocks"
                s.S.fused_lanes s.S.fallback_lanes s.S.shards (shards s.S.shards)
                s.S.warmup_blocks;
            fit_lines =
              [
                "regression over 145 imperfect configurations: "
                ^ Format.asprintf "%a" Linreg.pp s.S.regression;
                Printf.sprintf "perfect:  actual CPI %.4f, extrapolated %.4f (error %.2f%%)"
                  s.S.perfect_cpi s.S.predicted_perfect_cpi s.S.perfect_error_percent;
                Printf.sprintf
                  "L-TAGE:   actual CPI %.4f at %.3f MPKI, interpolated %.4f (error %.2f%%)"
                  s.S.ltage_point.S.cpi s.S.ltage_point.S.mpki s.S.predicted_ltage_cpi
                  s.S.ltage_error_percent;
              ];
            configs = s.S.fused_lanes + s.S.fallback_lanes;
            r_squared = s.S.regression.Linreg.r_squared;
            errors =
              [
                ("perfect_error_percent", s.S.perfect_error_percent);
                ("ltage_error_percent", s.S.ltage_error_percent);
              ];
            points = s.S.points;
            sources = s.S.sources;
            replayed = s.S.replayed_lanes;
            rounds = s.S.surrogate_rounds;
            max_abs_err = s.S.surrogate_max_abs_err;
            mean_abs_err = s.S.surrogate_mean_abs_err;
            grid_seconds = s.S.grid_seconds;
            model_seconds = s.S.model_seconds;
            csv_header = "config,mpki,cpi\n";
            csv_row =
              (fun p -> Printf.sprintf "%s,%.17g,%.17g\n" p.S.config_name p.S.mpki p.S.cpi);
            name_cpi = (fun p -> (p.S.config_name, p.S.cpi));
            identical =
              (fun () ->
                let sequential =
                  S.run_study ~warmup_blocks ~fused:false ~benchmark trace placement
                in
                s.S.points = sequential.S.points
                && s.S.perfect_cpi = sequential.S.perfect_cpi
                && s.S.ltage_point = sequential.S.ltage_point);
            full = (fun () -> (run ()).S.points);
          }
    | `Cache ->
        let run ?surrogate () =
          S.run_cache_study ~warmup_blocks ~shards:jobs ?map_shards ?surrogate ~benchmark
            trace placement
        in
        let s = run ?surrogate () in
        let seed_pt = s.S.seed_point in
        report
          {
            axis_label = "cache";
            lanes =
              Printf.sprintf "%d fused cache lanes, %d shard%s, %d warmup blocks"
                s.S.cache_fused_lanes s.S.cache_shards (shards s.S.cache_shards)
                s.S.cache_warmup_blocks;
            fit_lines =
              [
                "degradation model over 99 degraded geometries: "
                ^ Format.asprintf "%a" Pi_stats.Multireg.pp s.S.degradation;
                Printf.sprintf
                  "seed %s: actual CPI %.4f at %.3f L1I / %.3f L2 MPKI, predicted %.4f \
                   (error %.2f%%)"
                  seed_pt.S.geometry_name seed_pt.S.cache_cpi seed_pt.S.l1i_mpki
                  seed_pt.S.l2_mpki s.S.predicted_seed_cpi s.S.seed_error_percent;
              ];
            configs = s.S.cache_fused_lanes;
            r_squared = s.S.degradation.Pi_stats.Multireg.r_squared;
            errors = [ ("seed_error_percent", s.S.seed_error_percent) ];
            points = s.S.cache_points;
            sources = s.S.cache_sources;
            replayed = s.S.cache_replayed_lanes;
            rounds = s.S.cache_surrogate_rounds;
            max_abs_err = s.S.cache_surrogate_max_abs_err;
            mean_abs_err = s.S.cache_surrogate_mean_abs_err;
            grid_seconds = s.S.cache_grid_seconds;
            model_seconds = s.S.cache_model_seconds;
            csv_header = "geometry,l1i_mpki,l2_mpki,cpi\n";
            csv_row =
              (fun p ->
                Printf.sprintf "%s,%.17g,%.17g,%.17g\n" p.S.geometry_name p.S.l1i_mpki
                  p.S.l2_mpki p.S.cache_cpi);
            name_cpi = (fun p -> (p.S.geometry_name, p.S.cache_cpi));
            identical =
              (fun () ->
                let sequential =
                  S.run_cache_study ~warmup_blocks ~fused:false ~benchmark trace placement
                in
                s.S.cache_points = sequential.S.cache_points
                && s.S.seed_point = sequential.S.seed_point
                && s.S.predicted_seed_cpi = sequential.S.predicted_seed_cpi);
            full = (fun () -> (run ()).S.cache_points);
          }
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Fused configuration sweeps: the Section-3 predictor linearity study \
             (--axis predictor) or the cache-geometry degradation study (--axis cache).")
    Term.(const run $ bench_pos $ seed_term $ scale_term $ jobs_term $ axis_term $ check_term
          $ budget_term $ max_err_term $ history_term $ bundle_term $ metrics_out_term
          $ trace_out_term)

(* ---- the campaign runner `campaign` and `bundle replay` share ------ *)

let campaign_jobs_term =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains (default: the --workers count when that is 2 or \
                 more, else the recommended domain count).")

let workers_term =
  Arg.(value & opt (some int) None
       & info [ "workers" ] ~docv:"N"
           ~doc:"Shard observation jobs across $(docv) spawned worker \
                 processes (work-stealing over pipes; dead workers are \
                 respawned and their jobs re-dispatched). Results are \
                 bit-identical for any worker count. Default: in-process \
                 domains only.")

(* [run ~jobs ~observe] runs the campaign. --workers >= 2 moves observation
   jobs onto a pool of worker processes; one scheduler domain per worker
   keeps the pool saturated without oversubscribing it. --workers 1 is the
   in-process baseline that every other worker count must match bit for
   bit. Returns the result and the worker count its bundle records. *)
let run_campaign ~jobs ~workers ~config_args run =
  let workers = match workers with Some w when w >= 2 -> w | _ -> 1 in
  let coordinator =
    if workers >= 2 then Some (Pi_campaign.Coordinator.create ~workers ~config_args ())
    else None
  in
  let jobs = if jobs = None && workers >= 2 then Some workers else jobs in
  let observe = Option.map Pi_campaign.Coordinator.observe_hook coordinator in
  let result =
    Fun.protect
      ~finally:(fun () -> Option.iter Pi_campaign.Coordinator.shutdown coordinator)
      (fun () -> run ~jobs ~observe)
  in
  (result, workers)

(* Rebuild a recorded run (the [noun]: a campaign manifest or a bundle)
   from its config_args, through the decoder the campaign workers use too,
   so "same config_args" means "same digest" everywhere. Exits 2 when this
   build cannot reproduce the recorded config or names no such benchmark. *)
let rebuild_run ~cmd ~noun ~config_args ~config_digest bench_names =
  let config = Pi_campaign.Coordinator.config_of_args config_args in
  let digest = Pi_campaign.Obs_cache.config_digest config in
  if digest <> config_digest then begin
    Printf.eprintf
      "%s: config digest mismatch (%s %s, rebuilt %s): the %s's config_args do not \
       reproduce its config on this build\n"
      cmd noun config_digest digest noun;
    exit 2
  end;
  let find name =
    match Pi_workloads.Spec.find name with
    | bench -> bench
    | exception Not_found ->
        Printf.eprintf "%s: %s names unknown benchmark %S\n" cmd noun name;
        exit 2
  in
  (config, List.map find bench_names)

let campaign_cmd =
  let suite_term =
    Arg.(value & opt string "2006"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Benchmark population: $(b,2006) (the 23 SPEC CPU 2006 stand-ins), \
                   $(b,2000), or $(b,all) (the full registry).")
  in
  let benches_term =
    Arg.(value & opt_all bench_arg []
         & info [ "bench" ] ~docv:"BENCHMARK"
             ~doc:"Measure specific benchmark(s) instead of a suite; repeatable.")
  in
  let cache_dir_term =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Observation cache directory; completed (benchmark, config, seed) \
                   jobs found there are not recomputed.")
  in
  let events_term =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE.jsonl"
             ~doc:"Write JSONL progress events (job started/finished/cached, wall \
                   time, queue depth) to this file.")
  in
  let manifest_term =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"FILE.json"
             ~doc:"Write the run manifest here (default: \
                   $(b,manifest.json) under --cache-dir when one is given).")
  in
  let deadline_term =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Cooperative per-job wall-time limit; jobs that overrun it are \
                   marked failed in the manifest.")
  in
  let quick_term =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Use the quick test configuration (small traces).")
  in
  let campaign_scale_term =
    Arg.(value & opt (some int) None
         & info [ "scale" ] ~docv:"K" ~doc:"Workload scale (trip multiplier).")
  in
  let retries_term =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed job up to $(docv) times (exponential backoff with \
                   deterministic jitter) before marking it failed in the manifest.")
  in
  let backoff_term =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"SECONDS"
             ~doc:"Base of the exponential retry backoff: the k-th retry of a job \
                   sleeps about $(docv) * 2^k seconds first.")
  in
  let fault_term =
    Arg.(value & opt (some string) None
         & info [ "fault-inject" ] ~docv:"SPEC"
             ~doc:"Deterministic fault injection for resilience testing, e.g. \
                   $(b,rate=0.3,kind=exn,seed=7). Kinds: $(b,exn), $(b,delay), \
                   $(b,corrupt-cache) ('+'-separable); $(b,delay=SECS) fixes the \
                   sleep. Also read from $(b,PI_FAULT) when the flag is absent.")
  in
  let history_term =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE.jsonl"
             ~doc:"Append a run-history record (wall/cpu seconds, obs/sec, \
                   cache hit ratio, per-bench R-squared) to $(docv); defaults \
                   to $(b,history.jsonl) under --cache-dir when one is given. \
                   $(b,-) disables. Read it back with $(b,interferometry \
                   history) and gate regressions with $(b,interferometry \
                   compare).")
  in
  let resume_term =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"MANIFEST.json"
             ~doc:"Resume a prior campaign from its manifest (final or checkpoint): \
                   benchmarks, layout count and config are reloaded from it, the \
                   observation cache is probed, and only missing or failed \
                   (benchmark, seed) jobs are recomputed. Suite/bench/layout flags \
                   are ignored.")
  in
  let run suite benches jobs layouts seed scale heap_random quick cache_dir events_path
      manifest_path deadline retries backoff fault_spec history resume workers bundle
      metrics_out trace_out =
    check_at_least ~cmd:"campaign" "layouts" 1 (Some layouts);
    check_at_least ~cmd:"campaign" "jobs" 1 jobs;
    check_at_least ~cmd:"campaign" "workers" 1 workers;
    check_at_least ~cmd:"campaign" "retries" 0 (Some retries);
    if not (backoff >= 0.0) then begin
      Printf.eprintf "campaign: --backoff must be >= 0 (got %g)\n" backoff;
      exit 2
    end;
    let fault =
      let env =
        match Sys.getenv_opt "PI_FAULT" with
        | Some s when String.trim s <> "" -> Some s (* PI_FAULT= disables *)
        | _ -> None
      in
      match (fault_spec, env) with
      | None, None -> None
      | Some spec, _ | None, Some spec -> (
          match Pi_campaign.Fault.parse spec with
          | Ok f -> Some f
          | Error msg ->
              Printf.eprintf "campaign: bad fault spec %S: %s\n" spec msg;
              exit 2)
    in
    (* One code path executes both fresh and resumed campaigns: the
       manifest destination doubles as the checkpoint anchor, written
       before the first observation job so an interrupt is resumable. *)
    let execute ~config ~config_args ~label ~n_layouts ~cache_dir ~manifest_path benches =
      (* Dump metrics/trace before deciding the exit status: a campaign
         that fails some jobs must still leave its artifacts behind. *)
      let ok =
        with_obs ~metrics_out ~trace_out @@ fun () ->
        let events =
          match events_path with
          | Some path -> Pi_campaign.Telemetry.to_file path
          | None -> Pi_campaign.Telemetry.null
        in
        let result, workers =
          Fun.protect
            ~finally:(fun () -> Pi_campaign.Telemetry.close events)
            (fun () ->
              run_campaign ~jobs ~workers ~config_args (fun ~jobs ~observe ->
                  Pi_campaign.Campaign.run ~config ?jobs ?cache_dir ~events ?deadline
                    ~retries ~backoff ?fault ?checkpoint_path:manifest_path ~config_args
                    ?label ?observe ~n_layouts benches))
        in
        Option.iter
          (fun dir ->
            let bm = Pi_campaign.Bundle.of_campaign ~dir ~workers result in
            Printf.printf "bundle: %s (%d pinned artifacts)\n" dir
              (List.length bm.Pi_campaign.Bundle.artifacts))
          bundle;
        print_string (Pi_campaign.Manifest.summary_table result.Pi_campaign.Campaign.manifest);
        Option.iter
          (fun path ->
            Pi_campaign.Manifest.save result.Pi_campaign.Campaign.manifest ~path;
            Printf.printf "manifest: %s\n" path)
          manifest_path;
        (* The run-history ledger is appended even when jobs failed: the
           sentinel should see failed_jobs grow, not a gap. *)
        (let history_path =
           match history with
           | Some "-" -> None
           | Some path -> Some path
           | None -> Option.map (fun dir -> Filename.concat dir "history.jsonl") cache_dir
         in
         Option.iter
           (fun path ->
             let m = result.Pi_campaign.Campaign.manifest in
             Pi_obs.History.append ~path
               (Pi_obs.History.make ~kind:"campaign" ~label:m.Pi_campaign.Manifest.label
                  ~config_digest:m.Pi_campaign.Manifest.config_digest
                  (Pi_campaign.Manifest.history_metrics m));
             Printf.printf "history: %s\n" path)
           history_path);
        Option.iter (fun path -> Printf.printf "events: %s\n" path) events_path;
        Pi_campaign.Campaign.succeeded result
      in
      if not ok then begin
        Printf.eprintf "campaign finished with failed jobs (see manifest)\n";
        exit 3
      end
    in
    match resume with
    | Some resume_path -> (
        match Pi_campaign.Manifest.load ~path:resume_path with
        | Error msg ->
            Printf.eprintf "campaign: cannot resume: %s\n" msg;
            exit 2
        | Ok m ->
            let args = m.Pi_campaign.Manifest.config_args in
            let config, benches =
              rebuild_run ~cmd:"campaign" ~noun:"manifest" ~config_args:args
                ~config_digest:m.Pi_campaign.Manifest.config_digest
                (List.map
                   (fun (b : Pi_campaign.Manifest.bench_entry) -> b.Pi_campaign.Manifest.bench)
                   m.Pi_campaign.Manifest.benches)
            in
            let cache_dir =
              match (cache_dir, m.Pi_campaign.Manifest.cache_dir) with
              | Some dir, _ -> Some dir
              | None, Some dir -> Some dir
              | None, None ->
                  Printf.eprintf
                    "campaign: manifest records no cache directory — no observations \
                     were persisted, nothing to resume\n";
                  exit 2
            in
            let manifest_path =
              Some (match manifest_path with Some p -> p | None -> resume_path)
            in
            execute ~config ~config_args:args ~label:(Some m.Pi_campaign.Manifest.label)
              ~n_layouts:m.Pi_campaign.Manifest.n_layouts ~cache_dir ~manifest_path
              benches)
    | None -> (
        let benches =
          match (benches, suite) with
          | _ :: _, _ -> benches
          | [], "2006" -> Pi_workloads.Spec.all_2006 ()
          | [], "2000" ->
              List.filter
                (fun (b : Pi_workloads.Bench.t) -> b.suite = Pi_workloads.Bench.Cpu2000)
                (Pi_workloads.Spec.everything ())
          | [], "all" -> Pi_workloads.Spec.everything ()
          | [], other ->
              Printf.eprintf "campaign: unknown suite %S (try 2006, 2000 or all)\n" other;
              exit 2
        in
        let config = E.make_config ~quick ~seed ?scale ~heap_random () in
        (* Everything --resume needs to rebuild this config, recorded
           verbatim in the manifest. *)
        let config_args = Pi_campaign.Coordinator.config_args ~quick config in
        let manifest_path =
          match (manifest_path, cache_dir) with
          | Some path, _ -> Some path
          | None, Some dir -> Some (Filename.concat dir "manifest.json")
          | None, None -> None
        in
        execute ~config ~config_args ~label:None ~n_layouts:layouts ~cache_dir
          ~manifest_path benches)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a parallel interferometry campaign over a benchmark suite."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Measures every benchmark of the selected suite over N reorderings using \
              a pool of worker domains. Completed observations are cached on disk \
              (--cache-dir) keyed by (benchmark, config, seed) as they finish, so \
              re-runs, layout-count growth and interrupted campaigns only simulate \
              missing seeds. Progress is emitted as JSONL events (--events) and the \
              manifest (a checkpoint written up front, finalized at the end) records \
              per-benchmark fits, failures and retry counts. Campaign results are \
              bit-identical for any --jobs value, cache state, or interrupt/resume \
              history. Failed jobs are retried with exponential backoff (--retries, \
              --backoff); --fault-inject exercises these paths deterministically. \
              Exit status is 3 when some jobs failed.";
         ])
    Term.(const run $ suite_term $ benches_term $ campaign_jobs_term $ layouts_term $ seed_term
          $ campaign_scale_term $ heap_random_term $ quick_term $ cache_dir_term
          $ events_term $ manifest_term $ deadline_term $ retries_term $ backoff_term
          $ fault_term $ history_term $ resume_term $ workers_term $ bundle_term
          $ metrics_out_term $ trace_out_term)

let stats_cmd =
  let ident (s : Metrics.sample) =
    match s.Metrics.labels with
    | [] -> s.Metrics.name
    | labels ->
        Printf.sprintf "%s{%s}" s.Metrics.name
          (String.concat ","
             (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
  in
  let print_samples samples =
    List.iter
      (fun (s : Metrics.sample) ->
        match s.Metrics.value with
        | Metrics.Counter n -> Printf.printf "%-48s %d\n" (ident s) n
        | Metrics.Gauge v -> Printf.printf "%-48s %g\n" (ident s) v
        | Metrics.Histogram h ->
            let q p = Metrics.quantile h p in
            Printf.printf "%-48s count %d  sum %.4fs  p50 %.4fs  p90 %.4fs  p99 %.4fs\n"
              (ident s) h.Metrics.count h.Metrics.sum (q 0.5) (q 0.9) (q 0.99))
      samples
  in
  let run bench layouts seed scale url state_dir =
    match (url, state_dir) with
    | None, None ->
        Pi_obs.Span.set_enabled true;
        let config = E.make_config ~quick:true ~seed ~scale () in
        let _ = E.run ~config bench ~n_layouts:layouts in
        Printf.printf "metrics after a quick %s run (%d layouts, scale %d):\n\n"
          bench.Pi_workloads.Bench.name layouts scale;
        print_samples (Metrics.scrape ());
        Printf.printf "\n%d spans recorded (rerun with --trace-out to keep them)\n"
          (List.length (Pi_obs.Span.events ()))
    | url, state_dir -> (
        let conn =
          match url with
          | Some u -> (
              let bad () =
                Printf.eprintf "stats: bad --url %S (want HOST:PORT or PORT)\n" u;
                exit 2
              in
              match String.rindex_opt u ':' with
              | Some i -> (
                  let host = String.sub u 0 i in
                  let host = if host = "" then "127.0.0.1" else host in
                  match
                    int_of_string_opt (String.sub u (i + 1) (String.length u - i - 1))
                  with
                  | Some port -> { Pi_serve.Client.host; port }
                  | None -> bad ())
              | None -> (
                  match int_of_string_opt u with
                  | Some port -> { Pi_serve.Client.host = "127.0.0.1"; port }
                  | None -> bad ()))
          | None -> (
              match
                Pi_serve.Client.resolve ~state_dir:(Option.get state_dir) ()
              with
              | Ok conn -> conn
              | Error msg ->
                  Printf.eprintf "stats: %s\n" msg;
                  exit 2)
        in
        match Pi_serve.Client.metrics conn with
        | Error msg ->
            Printf.eprintf "stats: %s\n" msg;
            exit 2
        | Ok doc -> (
            match Metrics.of_json doc with
            | Error msg ->
                Printf.eprintf "stats: malformed /metrics.json: %s\n" msg;
                exit 2
            | Ok samples ->
                Printf.printf "live metrics from %s:%d:\n\n" conn.Pi_serve.Client.host
                  conn.Pi_serve.Client.port;
                print_samples samples))
  in
  let bench_term =
    Arg.(
      value
      & opt bench_arg (Pi_workloads.Spec.find "400.perlbench")
      & info [ "bench" ] ~docv:"BENCHMARK" ~doc:"Benchmark to exercise.")
  in
  let stats_layouts_term =
    Arg.(value & opt int 8 & info [ "layouts"; "n" ] ~docv:"N"
           ~doc:"Layouts measured before the scrape.")
  in
  let stats_scale_term =
    Arg.(value & opt int 2 & info [ "scale" ] ~docv:"K" ~doc:"Workload scale.")
  in
  let url_term =
    Arg.(value & opt (some string) None
         & info [ "url" ] ~docv:"HOST:PORT"
             ~doc:"Scrape a running daemon's $(b,/metrics.json) instead of \
                   running anything locally.")
  in
  let stats_state_dir_term =
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Discover the daemon through $(b,serve.json) in $(docv) \
                   (alternative to --url).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Pretty-print a metrics scrape — a local exercise run, or a live daemon's."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "By default runs one small quick-config measurement so every \
              layer's instruments have data, then prints each registered \
              metric: counters and gauges by value, histograms with count, sum \
              and estimated p50/p90/p99 quantiles. With $(b,--url) (or \
              $(b,--state-dir) for serve.json discovery) it scrapes a running \
              daemon's /metrics.json instead and prints the same view of the \
              live registry. See docs/OBSERVABILITY.md for the metric \
              catalogue.";
         ])
    Term.(const run $ bench_term $ stats_layouts_term $ seed_term $ stats_scale_term
          $ url_term $ stats_state_dir_term)

(* ---- the run-history ledger and the perf-regression sentinel ------ *)

module History = Pi_obs.History

let read_ledger ~warn path =
  let replay = History.read ~path in
  if warn && replay.History.invalid_lines > 0 then
    Printf.eprintf "%s: skipped %d corrupt line(s)\n" path replay.History.invalid_lines;
  if warn && replay.History.torn_tail then
    Printf.eprintf "%s: torn final record (interrupted append) ignored\n" path;
  replay

let history_cmd =
  let run ledger kind label last metric =
    let replay = read_ledger ~warn:true ledger in
    (* Indexes are positions in the full ledger, so a filtered listing still
       shows the @N a `compare LEDGER@N` operand needs. *)
    let rows =
      List.mapi (fun i r -> (i, r)) replay.History.records
      |> List.filter (fun (_, (r : History.record)) ->
             (match kind with None -> true | Some k -> r.History.kind = k)
             && match label with None -> true | Some l -> r.History.label = l)
    in
    let rows =
      let n = List.length rows in
      if last > 0 && n > last then List.filteri (fun i _ -> i >= n - last) rows
      else rows
    in
    if rows = [] then print_endline "no matching history records"
    else
      List.iter
        (fun (i, (r : History.record)) ->
          let tm = Unix.gmtime r.History.ts in
          let shown =
            match metric with
            | Some m -> (
                match List.assoc_opt m r.History.metrics with
                | Some v -> Printf.sprintf "%s=%s" m (Metrics.float_repr v)
                | None -> m ^ "=absent")
            | None ->
                let parts =
                  List.map
                    (fun (k, v) -> Printf.sprintf "%s=%s" k (Metrics.float_repr v))
                    r.History.metrics
                in
                let shown = List.filteri (fun i _ -> i < 4) parts in
                let extra = List.length parts - List.length shown in
                String.concat " " shown
                ^ (if extra > 0 then Printf.sprintf " (+%d more)" extra else "")
          in
          let digest = r.History.config_digest in
          let digest7 = String.sub digest 0 (min 7 (String.length digest)) in
          Printf.printf "@%-3d %04d-%02d-%02dT%02d:%02d:%02dZ %-8s %-22s %-7s %s\n" i
            (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec r.History.kind
            r.History.label digest7 shown)
        rows
  in
  let ledger_term =
    Arg.(value & opt string "history.jsonl"
         & info [ "ledger" ] ~docv:"FILE.jsonl"
             ~doc:"Run-history ledger to read (campaign runs default to \
                   $(b,history.jsonl) under their cache directory).")
  in
  let kind_term =
    Arg.(value & opt (some string) None
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Only records of this kind ($(b,campaign), $(b,sweep), $(b,perf)).")
  in
  let label_term =
    Arg.(value & opt (some string) None
         & info [ "label" ] ~docv:"LABEL" ~doc:"Only records with this label.")
  in
  let last_term =
    Arg.(value & opt int 0
         & info [ "last" ] ~docv:"N" ~doc:"Only the most recent $(docv) matches.")
  in
  let metric_term =
    Arg.(value & opt (some string) None
         & info [ "metric" ] ~docv:"NAME"
             ~doc:"Show only this metric's value per record.")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"List the run-history ledger campaign/sweep/perf runs append to."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each line is one digest-framed record: index (the $(b,@N) \
              operand $(b,interferometry compare) accepts), UTC timestamp, \
              kind, label, config digest prefix and the leading metrics. \
              Corrupt lines are skipped with a warning — history records are \
              independent observations, unlike the serve WAL. See \
              docs/PERF.md.";
         ])
    Term.(const run $ ledger_term $ kind_term $ label_term $ last_term $ metric_term)

let tolerance_term =
  Arg.(value & opt (some float) None
       & info [ "tolerance" ] ~docv:"PCT"
           ~doc:"Override the higher-is-better gates' tolerance percent \
                 (default: 50 for throughput/speedup, 5 for R-squared; \
                 $(b,failed_jobs) always gates at 0).")

(* The regression gate `compare` and `bundle diff` share: diff two metric
   bags under the threshold rules, print the REGRESSION/ok table under
   [title], exit 1 on any regression and 2 when the two sides (as [names]
   names them) share no metric. *)
let gate ~cmd ~title ~names:(before_name, after_name) ~tolerance before after =
  let deltas = History.compare_metrics ~rules:(History.rules ?tolerance ()) ~before ~after () in
  if deltas = [] then begin
    Printf.eprintf "%s: %s and %s share no metrics\n" cmd before_name after_name;
    exit 2
  end;
  print_endline title;
  List.iter
    (fun (d : History.delta) ->
      let gate =
        match d.History.rule with
        | Some r ->
            Printf.sprintf "  [%s, tol %g%%]"
              (match r.History.direction with
              | History.Higher_better -> "higher is better"
              | History.Lower_better -> "lower is better")
              r.History.tol_percent
        | None -> ""
      in
      Printf.printf "%-10s %-28s %14s -> %14s  %+8.2f%%%s\n"
        (if d.History.regression then "REGRESSION" else "ok")
        d.History.metric
        (Metrics.float_repr d.History.before)
        (Metrics.float_repr d.History.after)
        d.History.delta_percent gate)
    deltas;
  let regressed = History.regressions deltas in
  if regressed <> [] then begin
    Printf.eprintf "%s: %d metric(s) regressed\n" cmd (List.length regressed);
    exit 1
  end
  else print_endline "no regressions"

let compare_cmd =
  (* One comparison side: HISTORY.jsonl[@N] (Nth record, default the last,
     negative from the end) or any flat-JSON benchmark artifact
     (BENCH_*.json, manifest.json) whose numeric fields become the metric
     bag. *)
  let load_side operand =
    let path, sel =
      match String.rindex_opt operand '@' with
      | Some i -> (
          let p = String.sub operand 0 i in
          let s = String.sub operand (i + 1) (String.length operand - i - 1) in
          match int_of_string_opt s with
          | Some n when p <> "" -> (p, Some n)
          | _ -> (operand, None))
      | None -> (operand, None)
    in
    if Filename.check_suffix path ".jsonl" then begin
      if not (Sys.file_exists path) then Error (path ^ ": no such ledger")
      else
        let replay = read_ledger ~warn:true path in
        let records = Array.of_list replay.History.records in
        let n = Array.length records in
        if n = 0 then Error (path ^ ": no valid history records")
        else
          let idx =
            match sel with None -> n - 1 | Some i when i < 0 -> n + i | Some i -> i
          in
          if idx < 0 || idx >= n then
            Error (Printf.sprintf "%s: record %d out of range (0..%d)" path idx (n - 1))
          else
            let r = records.(idx) in
            Ok
              ( Printf.sprintf "%s@%d (%s %s)" path idx r.History.kind r.History.label,
                r.History.metrics )
    end
    else if sel <> None then
      Error (Printf.sprintf "%s: @N selection only applies to .jsonl ledgers" operand)
    else
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error msg -> Error msg
      | contents -> (
          let module J = Pi_obs.Json in
          match J.parse contents with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok doc ->
              (* Flatten nested objects with dotted keys; inside lists only
                 objects self-named by a "bench" field (manifest entries)
                 are descended into. *)
              let rec flatten prefix j acc =
                let key k = if prefix = "" then k else prefix ^ "." ^ k in
                match j with
                | J.Int i -> (prefix, float_of_int i) :: acc
                | J.Float f -> (prefix, f) :: acc
                | J.Obj fields ->
                    List.fold_left
                      (fun acc (k, v) -> flatten (key k) v acc)
                      acc fields
                | J.List items ->
                    List.fold_left
                      (fun acc item ->
                        match J.member "bench" item with
                        | J.String name -> flatten (key name) item acc
                        | _ -> acc)
                      acc items
                | J.String _ | J.Bool _ | J.Null -> acc
              in
              let metrics = List.rev (flatten "" doc []) in
              if metrics = [] then Error (path ^ ": no numeric fields to compare")
              else Ok (path, metrics))
  in
  let run before after tolerance =
    match (load_side before, load_side after) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "compare: %s\n" msg;
        exit 2
    | Ok (before_label, before), Ok (after_label, after) ->
        gate ~cmd:"compare"
          ~title:(Printf.sprintf "compare %s -> %s" before_label after_label)
          ~names:(before_label, after_label) ~tolerance before after
  in
  let before_term =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BEFORE"
             ~doc:"Baseline: $(b,LEDGER.jsonl)[@N] or a flat JSON artifact \
                   ($(b,BENCH_*.json), $(b,manifest.json)).")
  in
  let after_term =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"AFTER" ~doc:"Candidate, same forms as $(docv,BEFORE).")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two runs' metrics and exit non-zero on regression."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Compares the metrics the two operands share, applying per-suffix \
              threshold rules (_per_sec and speedup higher-better within \
              tolerance, r_squared within 5%, failed_jobs must not grow). \
              Operands are history-ledger records ($(b,history.jsonl@-2) is \
              the second-newest) or benchmark JSON artifacts. Exit status: 0 \
              clean, 1 regression, 2 usage or unreadable operand. $(b,make \
              check) runs this sentinel over two fresh quick campaigns.";
         ])
    Term.(const run $ before_term $ after_term $ tolerance_term)

(* ---- content-addressed run bundles -------------------------------- *)

let bundle_cmd =
  let module B = Pi_campaign.Bundle in
  let dir_pos n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc) in
  let print_problems (report : B.report) =
    List.iter
      (fun (p : B.problem) -> Printf.eprintf "  %s: %s\n" p.B.path p.B.reason)
      report.B.problems
  in
  let verify_cmd =
    let run dir =
      match B.verify ~dir with
      | Error msg ->
          Printf.eprintf "bundle verify: %s\n" msg;
          exit 2
      | Ok (m, report) ->
          if B.ok report then
            Printf.printf "bundle %s: %s %s ok — %d files verified, %d artifacts pinned\n"
              dir m.B.kind m.B.label report.B.checked (List.length m.B.artifacts)
          else begin
            Printf.eprintf "bundle verify: %s FAILED (%d problem(s))\n" dir
              (List.length report.B.problems);
            print_problems report;
            exit 1
          end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Re-hash every pinned artifact of a bundle against its manifest and \
               SHA256SUMS.txt; exit 1 on any mismatch.")
      Term.(const run $ dir_pos 0 "BUNDLE" "Bundle directory to verify.")
  in
  let replay_cmd =
    let out_term =
      Arg.(value & opt (some string) None
           & info [ "out" ] ~docv:"DIR"
               ~doc:"Where to materialize the replay bundle (default: \
                     $(b,BUNDLE.replay)).")
    in
    let run dir out jobs workers =
      check_at_least ~cmd:"bundle replay" "jobs" 1 jobs;
      check_at_least ~cmd:"bundle replay" "workers" 1 workers;
      (* Replay only a bundle that verifies: re-running from tampered
         pinned inputs would "reproduce" garbage. *)
      let m =
        match B.verify ~dir with
        | Error msg ->
            Printf.eprintf "bundle replay: %s\n" msg;
            exit 2
        | Ok (_, report) when not (B.ok report) ->
            Printf.eprintf "bundle replay: %s fails verification; refusing to replay\n" dir;
            print_problems report;
            exit 1
        | Ok (m, _) -> m
      in
      if m.B.kind <> "campaign" then begin
        Printf.eprintf "bundle replay: only campaign bundles can be replayed (this is %S)\n"
          m.B.kind;
        exit 2
      end;
      let config, benches =
        rebuild_run ~cmd:"bundle replay" ~noun:"bundle" ~config_args:m.B.config_args
          ~config_digest:m.B.config_digest m.B.benches
      in
      let out = match out with Some o -> o | None -> dir ^ ".replay" in
      (* No observation cache: a replay recomputes everything from the
         pinned inputs — that is the point. *)
      let result, workers =
        run_campaign ~jobs ~workers ~config_args:m.B.config_args (fun ~jobs ~observe ->
            Pi_campaign.Campaign.run ~config ?jobs ?observe ~config_args:m.B.config_args
              ~label:m.B.label ~n_layouts:m.B.n_layouts benches)
      in
      if not (Pi_campaign.Campaign.succeeded result) then begin
        Printf.eprintf "bundle replay: the re-run campaign had failed jobs\n";
        exit 1
      end;
      let rm = B.of_campaign ~dir:out ~workers result in
      let outputs (manifest : B.manifest) =
        List.filter (fun (a : B.artifact) -> a.B.role = B.Output) manifest.B.artifacts
      in
      let mismatches = ref 0 in
      List.iter
        (fun (a : B.artifact) ->
          match
            List.find_opt
              (fun (r : B.artifact) -> r.B.rel_path = a.B.rel_path)
              (outputs rm)
          with
          | None ->
              incr mismatches;
              Printf.eprintf "MISMATCH  %s: replay produced no such output\n" a.B.rel_path
          | Some r when r.B.sha256 <> a.B.sha256 || r.B.bytes <> a.B.bytes ->
              incr mismatches;
              Printf.eprintf "MISMATCH  %s: bundle %s (%d bytes), replay %s (%d bytes)\n"
                a.B.rel_path a.B.sha256 a.B.bytes r.B.sha256 r.B.bytes
          | Some _ -> Printf.printf "identical %s\n" a.B.rel_path)
        (outputs m);
      List.iter
        (fun (r : B.artifact) ->
          if
            not
              (List.exists (fun (a : B.artifact) -> a.B.rel_path = r.B.rel_path) (outputs m))
          then begin
            incr mismatches;
            Printf.eprintf "MISMATCH  %s: replay produced an extra output\n" r.B.rel_path
          end)
        (outputs rm);
      Printf.printf "replay bundle: %s\n" out;
      if !mismatches > 0 then begin
        Printf.eprintf "bundle replay: %d output(s) differ from the original run\n"
          !mismatches;
        exit 1
      end
      else
        Printf.printf "replay reproduced %d output(s) byte-for-byte\n"
          (List.length (outputs m))
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:"Re-run a campaign bundle from its pinned inputs and compare every \
               output byte-for-byte; exit 1 unless identical.")
      Term.(const run
            $ dir_pos 0 "BUNDLE" "Bundle directory to replay."
            $ out_term $ campaign_jobs_term $ workers_term)
  in
  let diff_cmd =
    let run before_dir after_dir tolerance =
      let load dir =
        match B.load ~dir with
        | Ok m -> m
        | Error msg ->
            Printf.eprintf "bundle diff: %s: %s\n" dir msg;
            exit 2
      in
      let before = load before_dir and after = load after_dir in
      gate ~cmd:"bundle diff"
        ~title:
          (Printf.sprintf "bundle diff %s (%s) -> %s (%s)" before_dir before.B.label after_dir
             after.B.label)
        ~names:(before_dir, after_dir) ~tolerance before.B.metrics after.B.metrics
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:"Compare two bundles' metric bags under the interferometry-compare \
               threshold rules; exit 1 on regression.")
      Term.(const run
            $ dir_pos 0 "BEFORE" "Baseline bundle directory."
            $ dir_pos 1 "AFTER" "Candidate bundle directory."
            $ tolerance_term)
  in
  Cmd.group
    (Cmd.info "bundle"
       ~doc:"Verify, replay and diff content-addressed run bundles."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "A run bundle (campaign/sweep $(b,--bundle DIR)) pins a run's inputs \
              and outputs by SHA-256 under a canonical-JSON manifest. $(b,verify) \
              re-hashes everything and fails on a single flipped byte; $(b,replay) \
              re-runs the campaign from the pinned inputs and accepts only \
              byte-identical outputs; $(b,diff) gates one bundle against another \
              with the same threshold rules as $(b,interferometry compare). See \
              docs/BUNDLES.md.";
         ])
    [ verify_cmd; replay_cmd; diff_cmd ]

let campaign_worker_cmd =
  (* Spawned by `campaign --workers N`; not for interactive use. *)
  Cmd.v
    (Cmd.info "campaign-worker"
       ~doc:"Internal: serve observation jobs over stdin/stdout frames for \
             $(b,campaign --workers). Spawned by the coordinator; reads \
             length-prefixed requests until EOF.")
    Term.(const (fun () -> Pi_campaign.Coordinator.worker_main ()) $ const ())

(* ---- the pi_serve daemon and its thin client ---------------------- *)

let state_dir_term =
  Arg.(value & opt string "_serve"
       & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"Daemon state directory: the WAL job ledger, the observation \
                 cache, persisted result documents and the serve.json port \
                 file all live here.")

let client_port_term =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Daemon port; defaults to what serve.json in the state \
                 directory records.")

let connect state_dir port =
  match Pi_serve.Client.resolve ?port ~state_dir () with
  | Ok conn -> conn
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let serve_cmd =
  let run state_dir port capacity workers scrape_interval no_trace_jobs trace_capacity
      metrics_out trace_out =
    with_obs ~metrics_out ~trace_out (fun () ->
        Pi_serve.Server.run
          {
            Pi_serve.Server.state_dir;
            port;
            queue_capacity = capacity;
            workers;
            scrape_interval;
            trace_jobs = not no_trace_jobs;
            trace_capacity;
          })
  in
  let scrape_interval_term =
    Arg.(value & opt float 1.0
         & info [ "scrape-interval" ] ~docv:"SECONDS"
             ~doc:"Flight-recorder cadence: the background loop folds a metrics \
                   scrape into the /api/timeseries ring buffers every $(docv) \
                   seconds; 0 disables the loop.")
  in
  let no_trace_jobs_term =
    Arg.(value & flag
         & info [ "no-trace-jobs" ]
             ~doc:"Disable per-job span traces (GET /api/jobs/ID/trace answers \
                   404).")
  in
  let trace_capacity_term =
    Arg.(value & opt int 32
         & info [ "trace-capacity" ] ~docv:"N"
             ~doc:"Completed-job traces kept in memory (LRU; older traces are \
                   evicted).")
  in
  let port_term =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (loopback only); 0 picks an ephemeral \
                   port, recorded in serve.json.")
  in
  let capacity_term =
    Arg.(value & opt int 64
         & info [ "queue-capacity" ] ~docv:"N"
             ~doc:"Admission bound: submissions beyond $(docv) queued jobs are \
                   rejected with 429.")
  in
  let workers_term =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N" ~doc:"Job worker threads.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the interferometry daemon (measure/predict/campaign over HTTP)."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Serves measurement, prediction and campaign jobs over HTTP/1.1 on \
              loopback. Every accepted submission is appended to a WAL-journaled \
              job ledger (fsynced before the acknowledgement) and observations \
              are persisted to the on-disk cache as they complete, so a daemon \
              killed at any point — SIGKILL included — recovers on restart by \
              replaying the ledger and resumes with exactly-once, bit-identical \
              results. SIGTERM drains gracefully: queued jobs finish, new \
              submissions get 503. See docs/SERVING.md.";
         ])
    Term.(const run $ state_dir_term $ port_term $ capacity_term $ workers_term
          $ scrape_interval_term $ no_trace_jobs_term $ trace_capacity_term
          $ metrics_out_term $ trace_out_term)

let submit_cmd =
  let run state_dir port client wait body =
    let conn = connect state_dir port in
    match Pi_serve.Client.submit ?client conn ~body with
    | Error msg ->
        Printf.eprintf "submit: %s\n" msg;
        exit 2
    | Ok ack -> (
        print_endline (Pi_obs.Json.to_string ack);
        if wait then
          let id =
            match Pi_obs.Json.member "id" ack with
            | Pi_obs.Json.String id -> id
            | _ ->
                Printf.eprintf "submit: acknowledgement carries no job id\n";
                exit 2
          in
          match Pi_serve.Client.wait_job conn ~id with
          | Ok doc -> print_string doc
          | Error msg ->
              Printf.eprintf "submit: %s\n" msg;
              exit 3)
  in
  let client_term =
    Arg.(value & opt (some string) None
         & info [ "client" ] ~docv:"NAME"
             ~doc:"Fairness key (the daemon round-robins across clients).")
  in
  let wait_term =
    Arg.(value & flag
         & info [ "wait" ]
             ~doc:"Block until the job finishes and print its result document.")
  in
  let body_term =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JSON"
             ~doc:"Submission body, e.g. \
                   '{\"kind\":\"measure\",\"bench\":\"429.mcf\",\"layouts\":12,\"quick\":true}'.")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a job to a running interferometry daemon.")
    Term.(const run $ state_dir_term $ client_port_term $ client_term $ wait_term
          $ body_term)

let job_id_term =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"JOB-ID" ~doc:"Job id from $(b,interferometry submit).")

(* `status` and `result`: print one daemon job's document. *)
let job_doc_cmd name ~doc fetch print =
  let run state_dir port id =
    match fetch (connect state_dir port) ~id with
    | Ok doc -> print doc
    | Error msg ->
        Printf.eprintf "%s: %s\n" name msg;
        exit 2
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ state_dir_term $ client_port_term $ job_id_term)

let status_cmd =
  job_doc_cmd "status" ~doc:"Print a daemon job's status document." Pi_serve.Client.status
    (fun doc -> print_endline (Pi_obs.Json.to_string doc))

let result_cmd =
  job_doc_cmd "result"
    ~doc:"Print a finished daemon job's result document (exact persisted bytes)."
    Pi_serve.Client.result print_string

let () =
  let doc = "Program interferometry: performance modelling by layout perturbation" in
  let info = Cmd.info "interferometry" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [
         list_cmd; trace_cmd; measure_cmd; model_cmd; blame_cmd; predict_cmd;
         sweep_cmd; cache_cmd; export_cmd; refit_cmd; report_cmd; phases_cmd;
         campaign_cmd; campaign_worker_cmd; bundle_cmd; stats_cmd;
         history_cmd; compare_cmd; serve_cmd; submit_cmd; status_cmd; result_cmd;
       ]))
