(* Perf microbenchmark entry point: `make perf` / `dune exec bench/perf.exe`.
   Runs the five benchmarks of Perf_bench in order. For each it prints the
   summary, writes BENCH_<label>.json, appends the run-history record and
   adds the metrics to the bundle bag; then it reports every gate failure.

   Knobs, all optional:
     PI_PERF_SCALE    pipeline benchmark scale (default 4)
     PI_PERF_LAYOUTS  placements timed per pipeline path (default 12)
     PI_SWEEP_SCALE   scale of the four grid benchmarks (default 2: the
                      scale whose fused/sequential ratio is most
                      reproducible on a noisy box)
     PI_PERF_DIR      directory of the five BENCH_*.json documents
                      (default .)
     PI_PERF_GATES    1 turns the timing gates on (both fused speedups
                      >= 3x, recorder overhead <= 5%; `make perf`), 0 or
                      unset leaves them off; any other value exits 2
                      before anything runs
     PI_HISTORY_OUT   run-history ledger every result is appended to
                      (default history.jsonl; - skips)
     PI_BUNDLE_OUT    a content-addressed run bundle pinning the five
                      documents, with the combined metric bag for
                      `interferometry bundle diff` (default -: none)

   Always enforced: the one-pass trace equals the two-pass reference,
   replay counts equal the golden interpreter's on both data-layout legs,
   replay is faster than it, both fused studies equal their sequential
   studies, the grid is unchanged with the recorder on, and the steered
   sweep replays its lanes bit-identically, predicts the rest within 1%
   CPI and prunes the grid at least 5x. Any failure exits 1. *)

let () =
  let gates =
    match Sys.getenv_opt "PI_PERF_GATES" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s ->
        Printf.eprintf "PI_PERF_GATES=%S: expected 0 or 1\n" s;
        exit 2
  in
  (* Tracing stays on while timing: the published perf numbers must include
     the instrumentation overhead they are gating (docs/PERF.md). The
     recorder benchmark manages the flag itself (its "off" leg is the
     point of comparison). *)
  Pi_obs.Span.set_enabled true;
  let env_int = Interferometry.Knobs.env_int in
  let scale = env_int "PI_PERF_SCALE" 4 in
  let layouts = env_int "PI_PERF_LAYOUTS" 12 in
  let sweep_scale = env_int "PI_SWEEP_SCALE" 2 in
  let dir = Option.value ~default:"." (Sys.getenv_opt "PI_PERF_DIR") in
  let history_out = Option.value ~default:"history.jsonl" (Sys.getenv_opt "PI_HISTORY_OUT") in
  let bench = "400.perlbench" in
  let module P = Perf_bench in
  let benchmarks =
    [
      (fun () -> P.pipeline ~bench ~scale ~layouts);
      (fun () -> P.sweep ~gates ~bench ~scale:sweep_scale);
      (fun () -> P.cache_sweep ~gates ~bench ~scale:sweep_scale);
      (fun () -> P.recorder ~gates ~bench ~scale:sweep_scale);
      (fun () -> P.surrogate ~bench:"183.equake" ~scale:sweep_scale);
    ]
  in
  let path (r : P.report) = Filename.concat dir ("BENCH_" ^ r.P.label ^ ".json") in
  let reports =
    List.map
      (fun run ->
        let r = run () in
        print_endline r.P.summary;
        Pi_obs.Fs.write_file ~path:(path r) (Pi_obs.Json.to_string r.P.doc ^ "\n");
        Printf.printf "wrote %s\n" (path r);
        (* Every result joins the run-history ledger before the gates fire:
           a failing run's numbers are exactly the ones worth keeping. *)
        if history_out <> "-" then
          Pi_obs.History.append ~path:history_out
            (Pi_obs.History.make ~kind:"perf" ~label:r.P.label
               ~config_digest:
                 (Digest.to_hex
                    (Digest.string (Printf.sprintf "%s:%s:%d" r.P.label r.P.bench r.P.scale)))
               r.P.metrics);
        r)
      benchmarks
  in
  if history_out <> "-" then
    Printf.printf "appended %d records to %s\n" (List.length reports) history_out;
  (match Sys.getenv_opt "PI_BUNDLE_OUT" with
  | None | Some "" | Some "-" -> ()
  | Some bundle ->
      (* Pin this run's documents so two perf runs can be verified and
         diffed bundle-to-bundle; metric names are prefixed per benchmark
         so the five bags coexist in one manifest. *)
      let outputs =
        List.map
          (fun r ->
            (Filename.basename (path r), In_channel.with_open_bin (path r) In_channel.input_all))
          reports
      in
      let metrics =
        List.concat_map
          (fun r -> List.map (fun (k, v) -> (r.P.label ^ "_" ^ k, v)) r.P.metrics)
          reports
      in
      let module J = Pi_obs.Json in
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
        Pi_campaign.Bundle.write ~dir:bundle ~kind:"perf" ~label:bench ~config_digest
          ~config_args ~benches:[ bench ] ~n_layouts:layouts ~workers:1
          ~created_at:(Unix.time ()) ~metrics ~inputs:[] ~outputs ()
      in
      Printf.printf "bundle: %s (%d pinned artifacts)\n" bundle
        (List.length manifest.Pi_campaign.Bundle.artifacts));
  match List.concat_map (fun r -> r.P.failures) reports with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "FAIL: %s\n") failures;
      exit 1
