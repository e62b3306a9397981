(* The repository benchmark runner: runs one workload for about --seconds
   and prints one JSON result line. run.py builds and invokes it; see
   NOTES.md for the workloads, metrics and layer mapping. *)

open Common

let workloads = [ "campaign-cold"; "sweep"; "sweep-steered"; "serve" ]

(* The per-layer metrics of a traced run, as BENCHMARK.json lists them.
   Every traced run prints all of them: a layer the workload does not
   exercise (see NOTES.md, "bypassed on") did no work, and reads 0. *)
let per_layer =
  [
    ("workloads.build_ms", "ms"); ("run_limiter.trace_ms", "ms"); ("replay.compile_ms", "ms");
    ("placement.make_ms", "ms"); ("replay.run_ms", "ms"); ("replay.blocks_per_s", "1/s");
    ("counters.measure_us", "us"); ("obs_cache.store_ms", "ms"); ("obs_cache.load_ms", "ms");
    ("model.fit_ms", "ms");
    ("sweep.grid_ms", "ms"); ("sweep.reference_ms", "ms"); ("sweep.cache_grid_ms", "ms");
    ("sweep.cache_fit_ms", "ms"); ("replay.lane_blocks_per_s", "1/s");
    ("sweep.fused_lanes", "count"); ("sweep.fallback_lanes", "count"); ("sweep.failed_pct", "%");
  ]
  @ List.concat_map
      (fun b ->
        [
          ("steer.rounds." ^ b, "count");
          ("steer.replayed_lanes." ^ b, "count");
          ("steer.study_s." ^ b, "s");
        ])
      Sweep_wl.steered_benches
  @ [
      ("steer.replay_s", "s"); ("steer.model_s", "s"); ("steer.full_study_ms", "ms");
      ("steer.speedup", "x"); ("steer.max_cpi_err_pct", "%");
      ("serve.measure_p50_ms", "ms"); ("serve.measure_p90_ms", "ms");
      ("serve.estimate_p50_ms", "ms"); ("serve.estimate_p90_ms", "ms");
      ("client.submit_ms.measure", "ms"); ("client.submit_ms.estimate", "ms");
      ("client.status_ms", "ms");
      ("client.polls_per_job.measure", "count"); ("client.polls_per_job.estimate", "count");
      ("client.result_ms", "ms");
      ("server.queue_ms.measure", "ms"); ("server.queue_ms.estimate", "ms");
      ("server.job_ms.measure", "ms"); ("server.job_ms.estimate", "ms");
      ("jobs.execute_ms.measure", "ms"); ("jobs.execute_ms.estimate", "ms");
      ("gc.minor_mb_per_op", "MB"); ("gc.major_collections_per_op", "count");
      ("unattributed_pct", "%"); ("trace.overhead_pct", "%");
    ]

let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let json_number v = Printf.sprintf "%.17g" v

(* The result line holds exactly the metrics of [names], in that order.
   A metric the workload did not report is 0 on a traced run (a bypassed
   layer) and a failed check on an untraced one; a metric with another
   unit than the list's, one not in the list, or a value that is not a
   finite number is a failed check too, and prints as 0. *)
let print_result (o : outcome) ~traced =
  let reported = if traced then o.metrics else ("setup_s", o.setup_s, "s") :: o.metrics in
  let names = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, _, _) ->
      check (List.mem_assoc name names) "metric %s is not in BENCHMARK.json" name)
    reported;
  let value (name, unit) =
    match List.find_opt (fun (n, _, _) -> n = name) reported with
    | None ->
        check traced "end-to-end metric %s was not measured" name;
        0.0
    | Some (_, v, u) ->
        check (u = unit) "metric %s is in %s, not %s" name u unit;
        check (Float.is_finite v) "metric %s is not finite" name;
        if Float.is_finite v then v else 0.0
  in
  let metrics = List.map (fun m -> (fst m, value m, snd m)) names in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!check_failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--cli", Arg.Set_string cli, "PATH the interferometry CLI executable (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("pbench: unknown workload " ^ !workload);
    exit 2
  end;
  (* SIGTERM/SIGINT unwind normally, so the serve workload's daemon is
     stopped by its finaliser. *)
  let interrupt _ = raise Sys.Break in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupt);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupt);
  let seed = abs !seed and seconds = !seconds and traced = !trace = 1 in
  let work = fresh_dir (Filename.concat "_perfbench" !workload) in
  let outcome =
    match !workload with
    | "campaign-cold" -> Campaign_wl.run ~work ~seed ~seconds ~traced
    | "sweep" -> Sweep_wl.run_sweep ~seed ~seconds ~traced
    | "sweep-steered" -> Sweep_wl.run_steered ~seed ~seconds ~traced
    | _ -> Serve_wl.run ~cli:!cli ~work ~seed ~seconds ~traced
  in
  rm_rf work;
  print_result outcome ~traced
