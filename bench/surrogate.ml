(* Surrogate-steered sweep gate: `make surrogate-smoke`.

   Runs only the steered-sweep benchmark — the full perf suite lives in
   bench/perf.exe — and enforces the same rules through the shared
   [Perf_bench.surrogate_failures]: replayed lanes bit-identical to the
   golden full fused study, every predicted lane within the CPI
   tolerance, and the prune factor at or above PI_SURROGATE_GATE.

   Knobs (as in bench/perf.ml): PI_SURROGATE_BENCH (default 183.equake),
   PI_SURROGATE_SCALE (default 1 — this is a smoke, not a timing),
   PI_SURROGATE_GATE (default 5), PI_SURROGATE_OUT (default "-" = no
   artifact; `make perf` owns BENCH_surrogate.json). *)

let () =
  Pi_obs.Span.set_enabled true;
  let bench =
    Option.value ~default:"183.equake" (Sys.getenv_opt "PI_SURROGATE_BENCH")
  in
  let scale = Interferometry.Knobs.env_int "PI_SURROGATE_SCALE" 1 in
  let out = Option.value ~default:"-" (Sys.getenv_opt "PI_SURROGATE_OUT") in
  let gate =
    match Sys.getenv_opt "PI_SURROGATE_GATE" with
    | None | Some "" -> 5.0
    | Some s -> (
        match float_of_string_opt s with
        | Some g when g >= 0.0 -> g
        | _ ->
            Pi_obs.Log.warn "PI_SURROGATE_GATE=%s is not a float; using 5" s;
            5.0)
  in
  let r = Interferometry.Perf_bench.run_surrogate ~bench ~scale () in
  print_endline (Interferometry.Perf_bench.surrogate_summary r);
  if out <> "-" then begin
    Interferometry.Perf_bench.(write_json ~path:out (surrogate_to_json r));
    Printf.printf "wrote %s\n" out
  end;
  match Interferometry.Perf_bench.surrogate_failures ~gate r with
  | [] -> print_endline "surrogate-smoke OK: steered sweep pruned, bounded, bit-identical where replayed"
  | failures ->
      List.iter (Printf.eprintf "FAIL: steered sweep: %s\n") failures;
      exit 1
