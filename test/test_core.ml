(* Tests for the interferometry core: experiments, models, blame,
   significance and predictor evaluation. Small configurations keep this
   fast while exercising the full path. *)

module E = Interferometry.Experiment
module Model = Interferometry.Model
module Blame = Interferometry.Blame
module Significance = Interferometry.Significance
module Predict = Interferometry.Predict
module Linreg = Pi_stats.Linreg
module Spec = Pi_workloads.Spec

let quick = E.quick_config

let cached : (string, E.dataset) Hashtbl.t = Hashtbl.create 8

let dataset ?(n_layouts = 25) name =
  let key = Printf.sprintf "%s/%d" name n_layouts in
  match Hashtbl.find_opt cached key with
  | Some d -> d
  | None ->
      let d = E.run ~config:quick (Spec.find name) ~n_layouts in
      Hashtbl.replace cached key d;
      d

(* ---------------- Experiment ---------------- *)

let test_observation_reproducible () =
  let prepared = E.prepare ~config:quick (Spec.find "400.perlbench") in
  let a = E.observe_seed prepared 7 in
  let b = E.observe_seed prepared 7 in
  Alcotest.(check (float 0.0)) "same cpi" a.E.measurement.Pi_uarch.Counters.cpi
    b.E.measurement.Pi_uarch.Counters.cpi;
  Alcotest.(check (float 0.0)) "same mpki" a.E.measurement.Pi_uarch.Counters.mpki
    b.E.measurement.Pi_uarch.Counters.mpki

let test_observation_seed_matters () =
  let prepared = E.prepare ~config:quick (Spec.find "400.perlbench") in
  let a = E.observe_seed prepared 1 and b = E.observe_seed prepared 2 in
  Alcotest.(check bool) "different layouts measure differently" true
    (a.E.measurement.Pi_uarch.Counters.cpi <> b.E.measurement.Pi_uarch.Counters.cpi)

let test_extend_preserves_prefix () =
  let d = dataset ~n_layouts:10 "456.hmmer" in
  let grown = E.extend d ~n_layouts:15 in
  Alcotest.(check int) "grown" 15 (Array.length grown.E.observations);
  for i = 0 to 9 do
    Alcotest.(check (float 0.0)) "prefix intact"
      d.E.observations.(i).E.measurement.Pi_uarch.Counters.cpi
      grown.E.observations.(i).E.measurement.Pi_uarch.Counters.cpi
  done;
  (* Extending to a smaller count is a no-op. *)
  let same = E.extend grown ~n_layouts:5 in
  Alcotest.(check int) "no shrink" 15 (Array.length same.E.observations)

(* The data layout built once by [prepare] must give exactly what a fresh
   per-seed [Placement.make] gives: same counts bit for bit, same
   measurement. *)
let test_shared_data_layout_identical () =
  let fields (c : Pi_uarch.Pipeline.counts) =
    Printf.sprintf "%h|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d" c.cycles c.instructions
      c.cond_branches c.cond_mispredicts c.indirect_branches c.indirect_mispredicts
      c.btb_misses c.l1i_accesses c.l1i_misses c.l1d_accesses c.l1d_misses c.l2_accesses
      c.l2_misses
  in
  let measurement (m : Pi_uarch.Counters.measurement) =
    Printf.sprintf "%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h" m.cpi m.mpki m.l1i_mpki m.l1d_mpki
      m.l2_mpki m.cycles m.instructions m.mispredicts m.l1i_misses m.l1d_misses m.l2_misses
  in
  List.iter
    (fun name ->
      let prepared = E.prepare ~config:quick (Spec.find name) in
      Alcotest.(check bool) (name ^ ": default config shares one data layout") true
        (Option.is_some prepared.E.data);
      Alcotest.(check bool) (name ^ ": and one data side") true
        (Option.is_some prepared.E.data_side);
      List.iter
        (fun seed ->
          let fresh =
            Pi_uarch.Replay.run ~warmup_blocks:prepared.E.warmup_blocks prepared.E.plan
              (Pi_layout.Placement.make prepared.E.program ~seed)
          in
          let label = Printf.sprintf "%s seed %d" name seed in
          Alcotest.(check string) (label ^ " counts") (fields fresh)
            (fields (E.exact_counts prepared ~seed));
          let expected =
            Pi_uarch.Counters.measure ~noise:quick.E.noise ~runs_per_group:quick.E.runs_per_group
              ~seed:((quick.E.master_seed * 1_000_003) + Hashtbl.hash (name, seed))
              fresh
          in
          Alcotest.(check string) (label ^ " measurement") (measurement expected)
            (measurement (E.observe_seed prepared seed).E.measurement))
        [ 0; 1; 2; 7; 33 ])
    [ "429.mcf"; "400.perlbench" ]

(* Heap randomization and ASLR make the data layout depend on the seed:
   nothing is shared, and each seed still gets its own layout. *)
let test_seeded_data_layout_varies () =
  List.iter
    (fun (label, config) ->
      let prepared = E.prepare ~config (Spec.find "429.mcf") in
      Alcotest.(check bool) (label ^ ": no shared data layout") true
        (Option.is_none prepared.E.data);
      Alcotest.(check bool) (label ^ ": no shared data side") true
        (Option.is_none prepared.E.data_side);
      (* Each seed's replay builds its own data side; it must match the
         legacy interpreter field for field. *)
      List.iter
        (fun seed ->
          let legacy =
            Pi_oracle.run_unoptimized ~warmup_blocks:prepared.E.warmup_blocks
              config.E.machine prepared.E.trace (E.placement prepared ~seed)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: per-seed data side == legacy" label seed)
            true
            (E.exact_counts prepared ~seed = legacy))
        [ 1; 2 ];
      let data seed = (E.placement prepared ~seed).Pi_layout.Placement.data in
      let a = data 1 and b = data 2 in
      Alcotest.(check bool) (label ^ ": data layouts differ across seeds") true
        (a.Pi_layout.Data_layout.heap_base <> b.Pi_layout.Data_layout.heap_base);
      let fresh =
        Pi_layout.Placement.make ~heap_random:config.E.heap_random ~aslr:config.E.aslr
          prepared.E.program ~seed:2
      in
      Alcotest.(check bool) (label ^ ": equals a fresh per-seed layout") true
        (fresh.Pi_layout.Placement.data.Pi_layout.Data_layout.heap_base
         = b.Pi_layout.Data_layout.heap_base
        && fresh.Pi_layout.Placement.data.Pi_layout.Data_layout.global_base
           = b.Pi_layout.Data_layout.global_base))
    [
      ("heap_random", { quick with E.heap_random = true });
      ("aslr", { quick with E.aslr = true });
    ]

let test_columns_consistent () =
  let d = dataset "456.hmmer" in
  Alcotest.(check int) "cpis" 25 (Array.length (E.cpis d));
  Alcotest.(check int) "mpkis" 25 (Array.length (E.mpkis d));
  Alcotest.(check int) "l1i" 25 (Array.length (E.l1i_mpkis d));
  Alcotest.(check int) "l1d" 25 (Array.length (E.l1d_mpkis d));
  Alcotest.(check int) "l2" 25 (Array.length (E.l2_mpkis d));
  Array.iter (fun v -> Alcotest.(check bool) "cpi positive" true (v > 0.0)) (E.cpis d)

let test_warmup_fraction_applied () =
  let prepared = E.prepare ~config:quick (Spec.find "456.hmmer") in
  let blocks = Pi_isa.Trace.blocks_executed prepared.E.trace in
  Alcotest.(check int) "quarter of the trace"
    (int_of_float (0.25 *. float_of_int blocks))
    prepared.E.warmup_blocks

(* ---------------- Model ---------------- *)

let test_model_fit_fields () =
  let d = dataset "400.perlbench" in
  let m = Model.fit d in
  Alcotest.(check string) "name" "400.perlbench" m.Model.benchmark;
  Alcotest.(check int) "n" 25 m.Model.n_layouts;
  Alcotest.(check bool) "positive slope on a branchy code" true
    (m.Model.regression.Linreg.slope > 0.0);
  Alcotest.(check bool) "perfect PI brackets intercept" true
    (m.Model.perfect_prediction.Linreg.lower <= m.Model.regression.Linreg.intercept
    && m.Model.regression.Linreg.intercept <= m.Model.perfect_prediction.Linreg.upper)

let test_model_improvement_math () =
  let d = dataset "400.perlbench" in
  let m = Model.fit d in
  let from_mpki = m.Model.mean_mpki in
  let full = Model.improvement_percent m ~from_mpki ~to_mpki:0.0 in
  let half = Model.improvement_percent m ~from_mpki ~to_mpki:(from_mpki /. 2.0) in
  Alcotest.(check (float 1e-9)) "halving gives half the gain" full (2.0 *. half);
  Alcotest.(check bool) "positive" true (full > 0.0)

let test_model_mpki_reduction () =
  let d = dataset "400.perlbench" in
  let m = Model.fit d in
  match Model.mpki_reduction_for_cpi_gain m ~at_mpki:m.Model.mean_mpki ~gain_percent:10.0 with
  | None -> Alcotest.fail "expected a reduction estimate"
  | Some r ->
      Alcotest.(check bool) "a 10% CPI gain needs a large MPKI cut" true (r > 10.0);
      (* Consistency: applying that reduction should produce ~10% gain. *)
      let to_mpki = m.Model.mean_mpki *. (1.0 -. (r /. 100.0)) in
      let gain = Model.improvement_percent m ~from_mpki:m.Model.mean_mpki ~to_mpki in
      Alcotest.(check (float 0.2)) "roundtrip" 10.0 gain

let test_model_intervals_vs_level () =
  let d = dataset "400.perlbench" in
  let m = Model.fit d in
  let pi95 = Model.predict_cpi ~level:0.95 m ~mpki:0.0 in
  let pi99 = Model.predict_cpi ~level:0.99 m ~mpki:0.0 in
  Alcotest.(check bool) "99% wider than 95%" true
    (pi99.Linreg.upper -. pi99.Linreg.lower > pi95.Linreg.upper -. pi95.Linreg.lower)

let test_table1_row_format () =
  let d = dataset "400.perlbench" in
  let row = Model.table1_row (Model.fit d) in
  Alcotest.(check bool) "mentions benchmark" true
    (String.length row > 20
    && String.sub row 0 13 = "400.perlbench")

(* ---------------- Blame ---------------- *)

let test_blame_r2_ranges () =
  let a = Blame.attribute (dataset "400.perlbench") in
  List.iter
    (fun v -> Alcotest.(check bool) "r2 in [0,1]" true (v >= 0.0 && v <= 1.0))
    [ a.Blame.r2_mpki; a.Blame.r2_l1i; a.Blame.r2_l2; Blame.combined_r2 a ]

let test_blame_combined_dominates () =
  (* OLS with more predictors cannot explain less variance (tiny ridge
     tolerance aside). *)
  let a = Blame.attribute (dataset "400.perlbench") in
  let best = Float.max a.Blame.r2_mpki (Float.max a.Blame.r2_l1i a.Blame.r2_l2) in
  Alcotest.(check bool) "combined >= best single" true (Blame.combined_r2 a >= best -. 1e-6)

let test_blame_branchy_benchmark_blames_branches () =
  let a = Blame.attribute (dataset "462.libquantum") in
  Alcotest.(check bool) "libquantum variance is branch-driven" true
    (a.Blame.r2_mpki > 0.5 && a.Blame.r2_mpki > a.Blame.r2_l2)

let test_blame_average () =
  let a = Blame.attribute (dataset "400.perlbench") in
  let b = Blame.attribute (dataset "462.libquantum") in
  let avg = Blame.average [ a; b ] in
  Alcotest.(check string) "label" "Average" avg.Blame.benchmark;
  Alcotest.(check (float 1e-9)) "mean of r2" ((a.Blame.r2_mpki +. b.Blame.r2_mpki) /. 2.0)
    avg.Blame.r2_mpki

(* ---------------- Significance ---------------- *)

let test_significance_branchy_vs_stream () =
  let yes = Significance.test (dataset "462.libquantum") in
  Alcotest.(check bool) "libquantum significant" true yes.Significance.significant;
  let no = Significance.test (dataset "470.lbm") in
  Alcotest.(check bool) "lbm not significant" false no.Significance.significant

let test_significance_adaptive_growth () =
  (* lbm never becomes significant: adaptive sampling must stop at the
     cap having grown the dataset. *)
  let verdict, d =
    Significance.adaptive ~initial:6 ~step:6 ~max_samples:18 ~config:quick
      (Spec.find "470.lbm")
  in
  Alcotest.(check bool) "capped" true (Array.length d.E.observations >= 18);
  Alcotest.(check int) "verdict reflects sample count" (Array.length d.E.observations)
    verdict.Significance.samples_used

let test_significance_adaptive_stops_early () =
  let verdict, d =
    Significance.adaptive ~initial:12 ~step:12 ~max_samples:36 ~config:quick
      (Spec.find "462.libquantum")
  in
  Alcotest.(check bool) "significant immediately" true verdict.Significance.significant;
  Alcotest.(check int) "no extra batches" 12 (Array.length d.E.observations)

(* ---------------- Predict ---------------- *)

let test_predict_rows () =
  let d = dataset ~n_layouts:12 "400.perlbench" in
  let m = Model.fit d in
  let rows = Predict.evaluate d m in
  Alcotest.(check int) "real + 5 candidates + perfect" 7 (List.length rows);
  let real = List.hd rows in
  Alcotest.(check bool) "first row is the observed machine" true real.Predict.observed;
  let perfect = List.nth rows 6 in
  Alcotest.(check (float 0.0)) "perfect at zero MPKI" 0.0 perfect.Predict.mean_mpki;
  List.iter
    (fun e ->
      Alcotest.(check bool) "interval brackets estimate" true
        (e.Predict.cpi.Linreg.lower <= e.Predict.cpi.Linreg.estimate
        && e.Predict.cpi.Linreg.estimate <= e.Predict.cpi.Linreg.upper))
    rows

let test_predict_ltage_beats_real () =
  let d = dataset ~n_layouts:12 "400.perlbench" in
  let m = Model.fit d in
  let rows = Predict.evaluate d m in
  let find name = List.find (fun e -> e.Predict.predictor = name) rows in
  let real = find "real (measured)" and ltage = find "L-TAGE" in
  Alcotest.(check bool) "L-TAGE fewer mispredictions" true
    (ltage.Predict.mean_mpki < real.Predict.mean_mpki);
  Alcotest.(check bool) "and lower predicted CPI" true
    (ltage.Predict.cpi.Linreg.estimate < real.Predict.cpi.Linreg.estimate)

let test_predict_gas_family_monotone () =
  let d = dataset ~n_layouts:12 "400.perlbench" in
  let m = Model.fit d in
  let rows = Predict.evaluate d m in
  let mpki name = (List.find (fun e -> e.Predict.predictor = name) rows).Predict.mean_mpki in
  Alcotest.(check bool) "16KB <= 2KB (monotone-ish budget scaling)" true
    (mpki "GAs-16KB" <= mpki "GAs-2KB")

let test_summarize_suite () =
  let d = dataset ~n_layouts:12 "400.perlbench" in
  let m = Model.fit d in
  let rows = Predict.evaluate d m in
  let s = Predict.summarize_suite [ ("400.perlbench", rows) ] in
  Alcotest.(check bool) "real cpi positive" true (s.Predict.real_cpi > 0.0);
  Alcotest.(check int) "candidate + perfect rows" 6 (List.length s.Predict.rows)

(* ---------------- Dataset_io ---------------- *)

let test_csv_round_trip_refit () =
  (* The campaign observation cache replays CSV rows in place of
     simulation, so export -> import -> refit must reproduce the model
     coefficients exactly (the 17-digit rows round-trip every float). *)
  let d = dataset "400.perlbench" in
  let original = Model.fit d in
  let path = Filename.temp_file "pi-roundtrip" ".csv" in
  Interferometry.Dataset_io.save path d;
  (match Interferometry.Dataset_io.load_observations path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok observations ->
      Alcotest.(check int) "row count" 25 (Array.length observations);
      let refit =
        Model.fit (Interferometry.Dataset_io.reattach d.E.prepared observations)
      in
      Alcotest.(check (float 1e-9)) "slope survives the round trip"
        original.Model.regression.Linreg.slope refit.Model.regression.Linreg.slope;
      Alcotest.(check (float 1e-9)) "intercept survives the round trip"
        original.Model.regression.Linreg.intercept refit.Model.regression.Linreg.intercept;
      Alcotest.(check (float 1e-9)) "r^2 survives the round trip"
        original.Model.regression.Linreg.r_squared refit.Model.regression.Linreg.r_squared;
      Array.iteri
        (fun i (o : E.observation) ->
          Alcotest.(check (float 0.0)) "cpi bit-identical"
            d.E.observations.(i).E.measurement.Pi_uarch.Counters.cpi
            o.E.measurement.Pi_uarch.Counters.cpi)
        observations);
  Sys.remove path

(* ---------------- Knobs (environment configuration) ---------------- *)

let test_knobs_parse_int () =
  let module K = Interferometry.Knobs in
  let check_case label ~min raw expect =
    let got = K.parse_int ~name:"PI_TEST" ~min ~default:7 raw in
    Alcotest.(check (option int)) label expect (Result.to_option got)
  in
  check_case "unset" ~min:1 None (Some 7);
  check_case "valid" ~min:1 (Some "12") (Some 12);
  check_case "whitespace tolerated" ~min:1 (Some " 3 ") (Some 3);
  check_case "zero below minimum 1" ~min:1 (Some "0") None;
  check_case "zero at minimum 0" ~min:0 (Some "0") (Some 0);
  check_case "negative rejected" ~min:0 (Some "-4") None;
  check_case "garbage rejected" ~min:1 (Some "fast") None;
  check_case "suffix rejected" ~min:1 (Some "2x") None;
  check_case "float rejected" ~min:1 (Some "2.5") None;
  (* The message must name the knob, so the refusal is actionable. *)
  match K.parse_int ~name:"PI_JOBS" ~min:1 ~default:9 (Some "-1") with
  | Error msg ->
      Alcotest.(check bool) "names knob" true
        (String.length msg >= 7 && String.sub msg 0 7 = "PI_JOBS")
  | Ok _ -> Alcotest.fail "expected a rejection"

let test_knobs_env_int () =
  let module K = Interferometry.Knobs in
  Unix.putenv "PI_KNOB_TEST" "11";
  Alcotest.(check int) "valid value" 11 (K.env_int "PI_KNOB_TEST" 5);
  Unix.putenv "PI_KNOB_TEST" "0";
  Alcotest.(check int) "minimum 0 admits 0" 0 (K.env_int ~min:0 "PI_KNOB_TEST" 5);
  Alcotest.(check int) "unset gives the default" 5 (K.env_int "PI_KNOB_TEST_UNSET" 5)

let test_knobs_describe () =
  let module K = Interferometry.Knobs in
  Alcotest.(check string) "render" "PI_SCALE=8 PI_SEED=1"
    (K.describe [ ("PI_SCALE", 8); ("PI_SEED", 1) ]);
  Alcotest.(check string) "empty" "" (K.describe [])

let suite =
  [
    ( "core.experiment",
      [
        Alcotest.test_case "observation reproducible" `Quick test_observation_reproducible;
        Alcotest.test_case "seed matters" `Quick test_observation_seed_matters;
        Alcotest.test_case "extend preserves prefix" `Quick test_extend_preserves_prefix;
        Alcotest.test_case "columns consistent" `Quick test_columns_consistent;
        Alcotest.test_case "warmup fraction" `Quick test_warmup_fraction_applied;
        Alcotest.test_case "shared data layout == fresh placement" `Quick
          test_shared_data_layout_identical;
        Alcotest.test_case "heap_random/aslr layouts vary by seed" `Quick
          test_seeded_data_layout_varies;
      ] );
    ( "core.model",
      [
        Alcotest.test_case "fit fields" `Quick test_model_fit_fields;
        Alcotest.test_case "improvement math" `Quick test_model_improvement_math;
        Alcotest.test_case "mpki reduction" `Quick test_model_mpki_reduction;
        Alcotest.test_case "interval levels" `Quick test_model_intervals_vs_level;
        Alcotest.test_case "table1 row" `Quick test_table1_row_format;
      ] );
    ( "core.blame",
      [
        Alcotest.test_case "r2 ranges" `Quick test_blame_r2_ranges;
        Alcotest.test_case "combined dominates" `Quick test_blame_combined_dominates;
        Alcotest.test_case "libquantum blames branches" `Quick
          test_blame_branchy_benchmark_blames_branches;
        Alcotest.test_case "average" `Quick test_blame_average;
      ] );
    ( "core.significance",
      [
        Alcotest.test_case "branchy vs stream" `Quick test_significance_branchy_vs_stream;
        Alcotest.test_case "adaptive growth" `Quick test_significance_adaptive_growth;
        Alcotest.test_case "adaptive early stop" `Quick test_significance_adaptive_stops_early;
      ] );
    ( "core.predict",
      [
        Alcotest.test_case "rows" `Quick test_predict_rows;
        Alcotest.test_case "ltage beats real" `Quick test_predict_ltage_beats_real;
        Alcotest.test_case "gas family monotone" `Quick test_predict_gas_family_monotone;
        Alcotest.test_case "summarize suite" `Quick test_summarize_suite;
      ] );
    ( "core.dataset_io",
      [
        Alcotest.test_case "CSV round-trip refit" `Quick test_csv_round_trip_refit;
      ] );
    ( "core.knobs",
      [
        Alcotest.test_case "parse_int" `Quick test_knobs_parse_int;
        Alcotest.test_case "env_int reads the environment" `Quick test_knobs_env_int;
        Alcotest.test_case "describe" `Quick test_knobs_describe;
      ] );
  ]
