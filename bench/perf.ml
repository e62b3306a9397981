(* Perf microbenchmark entry point: `make perf` / `dune exec bench/perf.exe`.

   Knobs: PI_PERF_SCALE (default 4), PI_PERF_LAYOUTS (default 12),
   PI_PERF_BENCH (default 400.perlbench), PI_PERF_OUT (default
   BENCH_pipeline.json; "-" to skip the file), PI_SWEEP_SCALE (default 2 —
   the sweep benchmark is gated, so it runs at the scale whose fused/
   sequential ratio is most reproducible on a noisy box; independent of
   PI_PERF_SCALE), PI_SWEEP_OUT (default BENCH_sweep.json; "-" to skip the
   file), PI_SWEEP_GATE (minimum fused sweep speedup, default 0 = no gate;
   `make perf` passes 3), PI_CACHE_SWEEP_SCALE (default PI_SWEEP_SCALE),
   PI_CACHE_SWEEP_OUT (default BENCH_cache_sweep.json; "-" to skip),
   PI_CACHE_SWEEP_GATE (minimum fused cache-sweep speedup, default 0;
   `make perf` passes 3), PI_RECORDER_SCALE (default PI_SWEEP_SCALE),
   PI_RECORDER_OUT (default BENCH_recorder.json; "-" to skip),
   PI_RECORDER_GATE (maximum flight-recorder overhead percent, default 0
   = no gate; `make perf` passes 5), PI_SURROGATE_BENCH (default
   183.equake), PI_SURROGATE_SCALE (default PI_SWEEP_SCALE),
   PI_SURROGATE_OUT (default BENCH_surrogate.json; "-" to skip),
   PI_SURROGATE_GATE (minimum steered-sweep prune factor — full grid
   lanes over replayed lanes — default 0 = no prune gate; `make perf`
   passes 5; replayed-lane bit-identity and the 1% predicted-CPI
   tolerance are enforced regardless), PI_HISTORY_OUT (run-history
   ledger every result is appended to, default history.jsonl; "-" to
   skip — perf-smoke does) and PI_BUNDLE_OUT (a content-addressed run
   bundle pinning every BENCH_*.json artifact written this run, with the
   combined metric bag for `interferometry bundle diff`; default "-" =
   skip).

   Exits nonzero when the one-pass trace differs from the two-pass
   reference, replay counts diverge from the legacy path (on either
   leg: shared or heap-randomized data layouts), replay is
   slower than legacy, either fused sweep diverges from its sequential
   study, either fused speedup misses its gate, or the flight recorder's
   overhead exceeds its gate — so `make check` can use it as a regression
   smoke. *)

let () =
  (* Tracing stays on while timing: the published perf numbers must include
     the instrumentation overhead they are gating (docs/PERF.md). The
     recorder benchmark manages the flag itself (its "off" leg is the
     point of comparison). *)
  Pi_obs.Span.set_enabled true;
  let scale = Interferometry.Knobs.env_int "PI_PERF_SCALE" 4 in
  let sweep_scale = Interferometry.Knobs.env_int "PI_SWEEP_SCALE" 2 in
  let cache_sweep_scale = Interferometry.Knobs.env_int "PI_CACHE_SWEEP_SCALE" sweep_scale in
  let recorder_scale = Interferometry.Knobs.env_int "PI_RECORDER_SCALE" sweep_scale in
  let surrogate_scale = Interferometry.Knobs.env_int "PI_SURROGATE_SCALE" sweep_scale in
  let layouts = Interferometry.Knobs.env_int "PI_PERF_LAYOUTS" 12 in
  let bench =
    Option.value ~default:"400.perlbench" (Sys.getenv_opt "PI_PERF_BENCH")
  in
  let out = Option.value ~default:"BENCH_pipeline.json" (Sys.getenv_opt "PI_PERF_OUT") in
  let sweep_out =
    Option.value ~default:"BENCH_sweep.json" (Sys.getenv_opt "PI_SWEEP_OUT")
  in
  let cache_sweep_out =
    Option.value ~default:"BENCH_cache_sweep.json" (Sys.getenv_opt "PI_CACHE_SWEEP_OUT")
  in
  let recorder_out =
    Option.value ~default:"BENCH_recorder.json" (Sys.getenv_opt "PI_RECORDER_OUT")
  in
  let surrogate_bench =
    Option.value ~default:"183.equake" (Sys.getenv_opt "PI_SURROGATE_BENCH")
  in
  let surrogate_out =
    Option.value ~default:"BENCH_surrogate.json" (Sys.getenv_opt "PI_SURROGATE_OUT")
  in
  let history_out =
    Option.value ~default:"history.jsonl" (Sys.getenv_opt "PI_HISTORY_OUT")
  in
  let gate_of name =
    match Sys.getenv_opt name with
    | None | Some "" -> 0.0
    | Some s -> (
        match float_of_string_opt s with
        | Some g when g >= 0.0 -> g
        | _ ->
            Pi_obs.Log.warn "%s=%s is not a float; gate disabled" name s;
            0.0)
  in
  let sweep_gate = gate_of "PI_SWEEP_GATE" in
  let cache_sweep_gate = gate_of "PI_CACHE_SWEEP_GATE" in
  let recorder_gate = gate_of "PI_RECORDER_GATE" in
  let surrogate_gate = gate_of "PI_SURROGATE_GATE" in
  let r = Interferometry.Perf_bench.run ~bench ~scale ~layouts () in
  print_endline (Interferometry.Perf_bench.summary r);
  if out <> "-" then begin
    Interferometry.Perf_bench.write_json ~path:out r;
    Printf.printf "wrote %s\n" out
  end;
  let s = Interferometry.Perf_bench.run_sweep ~bench ~scale:sweep_scale () in
  print_endline (Interferometry.Perf_bench.sweep_summary s);
  if sweep_out <> "-" then begin
    Interferometry.Perf_bench.write_sweep_json ~path:sweep_out s;
    Printf.printf "wrote %s\n" sweep_out
  end;
  let c = Interferometry.Perf_bench.run_cache_sweep ~bench ~scale:cache_sweep_scale () in
  print_endline (Interferometry.Perf_bench.cache_sweep_summary c);
  if cache_sweep_out <> "-" then begin
    Interferometry.Perf_bench.write_cache_sweep_json ~path:cache_sweep_out c;
    Printf.printf "wrote %s\n" cache_sweep_out
  end;
  let rc = Interferometry.Perf_bench.run_recorder ~bench ~scale:recorder_scale () in
  print_endline (Interferometry.Perf_bench.recorder_summary rc);
  if recorder_out <> "-" then begin
    Interferometry.Perf_bench.write_recorder_json ~path:recorder_out rc;
    Printf.printf "wrote %s\n" recorder_out
  end;
  let su =
    Interferometry.Perf_bench.run_surrogate ~bench:surrogate_bench
      ~scale:surrogate_scale ()
  in
  print_endline (Interferometry.Perf_bench.surrogate_summary su);
  if surrogate_out <> "-" then begin
    Interferometry.Perf_bench.write_surrogate_json ~path:surrogate_out su;
    Printf.printf "wrote %s\n" surrogate_out
  end;
  (* Every result joins the run-history ledger before the gates fire: a
     failing run's numbers are exactly the ones worth keeping. *)
  if history_out <> "-" then begin
    let digest label a_bench a_scale =
      Digest.to_hex (Digest.string (Printf.sprintf "%s:%s:%d" label a_bench a_scale))
    in
    let append kind_label a_bench a_scale metrics =
      Pi_obs.History.append ~path:history_out
        (Pi_obs.History.make ~kind:"perf" ~label:kind_label
           ~config_digest:(digest kind_label a_bench a_scale) metrics)
    in
    append "pipeline" bench scale (Interferometry.Perf_bench.history_metrics r);
    append "sweep" bench sweep_scale (Interferometry.Perf_bench.sweep_history_metrics s);
    append "cache_sweep" bench cache_sweep_scale
      (Interferometry.Perf_bench.cache_sweep_history_metrics c);
    append "recorder" bench recorder_scale
      (Interferometry.Perf_bench.recorder_history_metrics rc);
    append "surrogate" surrogate_bench surrogate_scale
      (Interferometry.Perf_bench.surrogate_history_metrics su);
    Printf.printf "appended 5 records to %s\n" history_out
  end;
  (match Sys.getenv_opt "PI_BUNDLE_OUT" with
  | None | Some "" | Some "-" -> ()
  | Some dir ->
      (* Pin this run's JSON artifacts so two perf runs can be verified and
         diffed bundle-to-bundle; metric names are prefixed per benchmark
         so the four bags coexist in one manifest. *)
      let outputs =
        List.filter_map
          (fun path ->
            if path = "-" then None
            else
              Some
                ( Filename.basename path,
                  In_channel.with_open_bin path In_channel.input_all ))
          [ out; sweep_out; cache_sweep_out; recorder_out; surrogate_out ]
      in
      let prefix p metrics = List.map (fun (k, v) -> (p ^ "_" ^ k, v)) metrics in
      let metrics =
        prefix "pipeline" (Interferometry.Perf_bench.history_metrics r)
        @ prefix "sweep" (Interferometry.Perf_bench.sweep_history_metrics s)
        @ prefix "cache_sweep"
            (Interferometry.Perf_bench.cache_sweep_history_metrics c)
        @ prefix "recorder"
            (Interferometry.Perf_bench.recorder_history_metrics rc)
        @ prefix "surrogate"
            (Interferometry.Perf_bench.surrogate_history_metrics su)
      in
      let module J = Pi_campaign.Telemetry in
      let config_args =
        [
          ("bench", J.String bench);
          ("scale", J.Int scale);
          ("sweep_scale", J.Int sweep_scale);
          ("layouts", J.Int layouts);
        ]
      in
      let config_digest =
        Digest.to_hex
          (Digest.string (Pi_campaign.Bundle.canonical_string (J.Obj config_args)))
      in
      let manifest =
        Pi_campaign.Bundle.write ~dir ~kind:"perf" ~label:bench ~config_digest
          ~config_args ~benches:[ bench ] ~n_layouts:layouts ~workers:1
          ~created_at:(Unix.time ()) ~metrics ~inputs:[] ~outputs ()
      in
      Printf.printf "bundle: %s (%d pinned artifacts)\n" dir
        (List.length manifest.Pi_campaign.Bundle.artifacts));
  if not r.Interferometry.Perf_bench.trace_identical then begin
    prerr_endline "FAIL: one-pass Run_limiter.trace differs from the two-pass reference";
    exit 1
  end;
  if not r.Interferometry.Perf_bench.identical then begin
    prerr_endline "FAIL: replay counts differ from the legacy pipeline";
    exit 1
  end;
  if not r.Interferometry.Perf_bench.heap_random_identical then begin
    prerr_endline "FAIL: heap_random replay counts differ from the legacy pipeline";
    exit 1
  end;
  if r.Interferometry.Perf_bench.speedup < 1.0 then begin
    Printf.eprintf "FAIL: replay slower than legacy (%.2fx)\n"
      r.Interferometry.Perf_bench.speedup;
    exit 1
  end;
  if not s.Interferometry.Perf_bench.sweep_identical then begin
    prerr_endline "FAIL: fused sweep diverges from the sequential study";
    exit 1
  end;
  if s.Interferometry.Perf_bench.sweep_speedup < sweep_gate then begin
    Printf.eprintf "FAIL: fused sweep speedup %.2fx below gate %.2fx\n"
      s.Interferometry.Perf_bench.sweep_speedup sweep_gate;
    exit 1
  end;
  if not c.Interferometry.Perf_bench.cache_identical then begin
    prerr_endline "FAIL: fused cache sweep diverges from the sequential study";
    exit 1
  end;
  if c.Interferometry.Perf_bench.cache_speedup < cache_sweep_gate then begin
    Printf.eprintf "FAIL: fused cache sweep speedup %.2fx below gate %.2fx\n"
      c.Interferometry.Perf_bench.cache_speedup cache_sweep_gate;
    exit 1
  end;
  if not rc.Interferometry.Perf_bench.rec_identical then begin
    prerr_endline "FAIL: sweep grid changed with the flight recorder on";
    exit 1
  end;
  if
    recorder_gate > 0.0
    && rc.Interferometry.Perf_bench.rec_overhead_percent > recorder_gate
  then begin
    Printf.eprintf "FAIL: flight-recorder overhead %.2f%% above gate %.2f%%\n"
      rc.Interferometry.Perf_bench.rec_overhead_percent recorder_gate;
    exit 1
  end;
  match Interferometry.Perf_bench.surrogate_failures ~gate:surrogate_gate su with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "FAIL: steered sweep: %s\n") failures;
      exit 1
