module Linreg = Pi_stats.Linreg

type t = {
  benchmark : string;
  regression : Linreg.t;
  n_layouts : int;
  mean_mpki : float;
  mean_cpi : float;
  perfect_prediction : Linreg.interval;
}

let fit_observations ~bench (observations : Experiment.observation array) =
  let column f = Array.map (fun o -> f o.Experiment.measurement) observations in
  let xs = column (fun m -> m.Pi_uarch.Counters.mpki) in
  let ys = column (fun m -> m.Pi_uarch.Counters.cpi) in
  let regression = Linreg.fit xs ys in
  {
    benchmark = bench;
    regression;
    n_layouts = Array.length xs;
    mean_mpki = Pi_stats.Descriptive.mean xs;
    mean_cpi = Pi_stats.Descriptive.mean ys;
    perfect_prediction = Linreg.prediction_interval regression 0.0;
  }

let fit (dataset : Experiment.dataset) =
  let bench = dataset.Experiment.prepared.Experiment.bench.Pi_workloads.Bench.name in
  Pi_obs.Span.with_ ~name:"fit" ~args:[ ("bench", bench) ] (fun () ->
      fit_observations ~bench dataset.Experiment.observations)

let predict_cpi ?(level = 0.95) t ~mpki = Linreg.prediction_interval ~level t.regression mpki

let confidence_cpi ?(level = 0.95) t ~mpki = Linreg.confidence_interval ~level t.regression mpki

let improvement_percent t ~from_mpki ~to_mpki =
  let base = Linreg.predict t.regression from_mpki in
  let target = Linreg.predict t.regression to_mpki in
  if base = 0.0 then 0.0 else 100.0 *. (base -. target) /. base

let mpki_reduction_for_cpi_gain t ~at_mpki ~gain_percent =
  let slope = t.regression.Linreg.slope in
  if slope <= 0.0 then None
  else begin
    let base = Linreg.predict t.regression at_mpki in
    let delta_cpi = gain_percent /. 100.0 *. base in
    let delta_mpki = delta_cpi /. slope in
    if at_mpki <= 0.0 then None else Some (100.0 *. delta_mpki /. at_mpki)
  end

let table1_header =
  Printf.sprintf "%-16s %8s %12s %8s %8s" "Benchmark" "Slope" "y-intercept" "Low" "High"

let table1_row t =
  Printf.sprintf "%-16s %8.3f %12.3f %8.3f %8.3f" t.benchmark t.regression.Linreg.slope
    t.regression.Linreg.intercept t.perfect_prediction.Linreg.lower
    t.perfect_prediction.Linreg.upper
