(* Tests for the pi_campaign subsystem: scheduler fan-out, --jobs plumbing,
   the parallel-equals-sequential determinism invariant, the on-disk
   observation cache, fault tolerance and the telemetry stream. Quick
   configurations and two benchmarks keep this fast. *)

module E = Interferometry.Experiment
module Campaign = Pi_campaign.Campaign
module Scheduler = Pi_campaign.Scheduler
module Obs_cache = Pi_campaign.Obs_cache
module Manifest = Pi_campaign.Manifest
module Telemetry = Pi_campaign.Telemetry
module Spec = Pi_workloads.Spec
module Bench = Pi_workloads.Bench

let quick = E.quick_config
let benches () = [ Spec.find "400.perlbench"; Spec.find "456.hmmer" ]

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let dataset_of (result : Campaign.result) name =
  match
    List.find_opt
      (fun (o : Campaign.bench_outcome) -> o.Campaign.bench.Bench.name = name)
      result.Campaign.outcomes
  with
  | Some { Campaign.dataset = Some d; _ } -> d
  | _ -> Alcotest.failf "no dataset for %s" name

(* ---------------- Scheduler ---------------- *)

let test_scheduler_order_independent () =
  let completions = Scheduler.map ~jobs:4 (fun i -> i * i) 40 in
  Alcotest.(check int) "all tasks" 40 (Array.length completions);
  Array.iteri
    (fun i (c : int Scheduler.completion) ->
      Alcotest.(check int) "slot matches index" i c.Scheduler.index;
      Alcotest.(check bool) "monotonic task window" true
        (c.Scheduler.finished >= c.Scheduler.started);
      Alcotest.(check (float 1e-6)) "elapsed is the window"
        (c.Scheduler.finished -. c.Scheduler.started)
        c.Scheduler.elapsed;
      match c.Scheduler.result with
      | Ok v -> Alcotest.(check int) "value in its own slot" (i * i) v
      | Error e -> Alcotest.failf "task %d failed: %s" i e.Scheduler.message)
    completions

let test_scheduler_failure_isolated () =
  let completions =
    Scheduler.map ~jobs:3 (fun i -> if i = 5 then failwith "boom" else i) 10
  in
  Array.iteri
    (fun i (c : int Scheduler.completion) ->
      match (i, c.Scheduler.result) with
      | 5, Error e ->
          Alcotest.(check bool) "error text recorded" true
            (String.length e.Scheduler.message > 0)
      | 5, Ok _ -> Alcotest.fail "task 5 should have failed"
      | _, Ok v -> Alcotest.(check int) "others unaffected" i v
      | _, Error e -> Alcotest.failf "task %d failed: %s" i e.Scheduler.message)
    completions

let test_scheduler_default_jobs () =
  Alcotest.(check bool) "at least one domain" true (Scheduler.default_jobs () >= 1)

(* ---------------- --jobs plumbing ---------------- *)

let test_jobs_plumbing () =
  (* The jobs knob must reach both the manifest and the scheduler; any
     worker count completes every (bench, seed) job exactly once. *)
  List.iter
    (fun jobs ->
      let r = Campaign.run ~config:quick ~jobs ~n_layouts:6 (benches ()) in
      let m = r.Campaign.manifest in
      Alcotest.(check int) "jobs recorded" jobs m.Manifest.jobs;
      Alcotest.(check int) "total jobs" 12 m.Manifest.total_jobs;
      Alcotest.(check int) "all computed" 12 m.Manifest.computed_jobs;
      Alcotest.(check int) "none failed" 0 m.Manifest.failed_jobs;
      Alcotest.(check int) "no cache, no probes" 0 m.Manifest.cache_misses;
      Alcotest.(check bool) "wall clock advanced" true (m.Manifest.wall_seconds > 0.0);
      List.iter
        (fun (b : Manifest.bench_entry) ->
          Alcotest.(check bool) "bench wall window positive" true (b.Manifest.wall_seconds > 0.0);
          Alcotest.(check bool) "bench cpu time positive" true (b.Manifest.cpu_seconds > 0.0);
          Alcotest.(check bool) "cpu is prepare + jobs" true
            (Float.abs
               (b.Manifest.cpu_seconds
               -. (b.Manifest.prepare_seconds +. b.Manifest.observe_seconds))
            < 1e-9))
        m.Manifest.benches;
      Alcotest.(check bool) "succeeded" true (Campaign.succeeded r);
      List.iter
        (fun b ->
          let d = dataset_of r b.Bench.name in
          Alcotest.(check int) "full dataset" 6 (Array.length d.E.observations))
        (benches ()))
    [ 1; 2; 5 ]

let test_determinism_parallel_vs_sequential () =
  (* The tentpole invariant: --jobs 4 and --jobs 1 produce bit-identical
     observation arrays (no RNG state is shared across domains). *)
  let sequential = Campaign.run ~config:quick ~jobs:1 ~n_layouts:8 (benches ()) in
  let parallel = Campaign.run ~config:quick ~jobs:4 ~n_layouts:8 (benches ()) in
  List.iter
    (fun b ->
      let ds = dataset_of sequential b.Bench.name
      and dp = dataset_of parallel b.Bench.name in
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " cpis identical") (E.cpis ds) (E.cpis dp);
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " mpkis identical") (E.mpkis ds) (E.mpkis dp);
      (* And identical to the plain sequential Experiment path. *)
      let direct = E.run ~config:quick b ~n_layouts:8 in
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " matches Experiment.run") (E.cpis direct) (E.cpis dp))
    (benches ())

(* ---------------- Observation cache ---------------- *)

let test_cache_hits_and_identity () =
  let dir = temp_dir "pi-campaign-cache" in
  let cold = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:8 (benches ()) in
  Alcotest.(check int) "cold run computes everything" 16
    cold.Campaign.manifest.Manifest.computed_jobs;
  Alcotest.(check int) "cold run probes all miss" 16
    cold.Campaign.manifest.Manifest.cache_misses;
  Alcotest.(check int) "cold run has no hits" 0 cold.Campaign.manifest.Manifest.cache_hits;
  let warm = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:8 (benches ()) in
  Alcotest.(check int) "warm run computes nothing" 0
    warm.Campaign.manifest.Manifest.computed_jobs;
  Alcotest.(check int) "warm run is all cache hits" 16
    warm.Campaign.manifest.Manifest.cached_jobs;
  Alcotest.(check int) "hit counter agrees" 16 warm.Campaign.manifest.Manifest.cache_hits;
  Alcotest.(check int) "no warm misses" 0 warm.Campaign.manifest.Manifest.cache_misses;
  (* extend-style growth: only the new seeds are computed. *)
  let grown = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:12 (benches ()) in
  Alcotest.(check int) "growth reuses the first 8 seeds" 16
    grown.Campaign.manifest.Manifest.cached_jobs;
  Alcotest.(check int) "growth computes only new seeds" 8
    grown.Campaign.manifest.Manifest.computed_jobs;
  (* Cached observations replay bit-identically (17-digit CSV round-trip). *)
  List.iter
    (fun b ->
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " cached == computed")
        (E.cpis (dataset_of cold b.Bench.name))
        (E.cpis (dataset_of warm b.Bench.name)))
    (benches ())

let test_cache_config_digest_rotates () =
  let base = Obs_cache.config_digest quick in
  Alcotest.(check bool) "digest is stable" true (base = Obs_cache.config_digest quick);
  let changed = Obs_cache.config_digest { quick with E.master_seed = 99 } in
  Alcotest.(check bool) "master seed rotates the digest" true (base <> changed);
  let heap = Obs_cache.config_digest { quick with E.heap_random = true } in
  Alcotest.(check bool) "heap mode rotates the digest" true (base <> heap)

let test_cache_entry_path_full_digest () =
  (* The addressing bugfix: entries file under the FULL config digest, so
     two configs can never truncate onto the same name. The legacy name is
     the 16-char prefix of the same digest. *)
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-path") in
  let digest = Obs_cache.config_digest quick in
  let path = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check string) "full-digest filename"
    (Printf.sprintf "456.hmmer.%s.csv" digest)
    (Filename.basename path);
  let legacy = Obs_cache.legacy_entry_path cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check string) "legacy name is the truncated digest"
    (Printf.sprintf "456.hmmer.%s.csv" (String.sub digest 0 16))
    (Filename.basename legacy);
  Alcotest.(check bool) "names are distinct" true (path <> legacy)

let test_cache_legacy_entry_migrates () =
  (* A cache written by the truncated-digest version keeps serving: load
     falls back to the legacy name, and the next store creates the entry
     under its full name from the legacy rows and retires the legacy file. *)
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-legacy") in
  let bench = Spec.find "456.hmmer" in
  let prepared = E.prepare ~config:quick bench in
  let obs = [| E.observe_seed prepared 1; E.observe_seed prepared 2 |] in
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick obs;
  let full = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  let legacy = Obs_cache.legacy_entry_path cache ~bench:"456.hmmer" ~config:quick in
  (* Forge the legacy layout: same rows, old truncated name only. *)
  Sys.rename full legacy;
  let loaded = Obs_cache.load cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check int) "legacy entry read through fallback" 2 (Array.length loaded);
  Alcotest.(check int) "legacy rows keyed by seed" 1 loaded.(0).E.layout_seed;
  (* A store migrates: full name exists, legacy name is gone. *)
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick
    [| E.observe_seed prepared 3 |];
  Alcotest.(check bool) "full-digest file written" true (Sys.file_exists full);
  Alcotest.(check bool) "legacy file retired" false (Sys.file_exists legacy);
  Alcotest.(check int) "merge kept legacy rows" 3
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick));
  (* When both names exist the full-digest entry wins. *)
  Out_channel.with_open_bin legacy (fun oc ->
      Out_channel.output_string oc "stale,legacy,garbage\n");
  Alcotest.(check int) "full name shadows legacy" 3
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick))

let test_cache_corrupt_entry_is_loud_miss () =
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-corrupt") in
  let counter = Pi_obs.Metrics.counter "pi_obs_obs_cache_corrupt_total" in
  let before = Pi_obs.Metrics.counter_value counter in
  let path = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "layout_seed,not,a,real,header\nnope\n");
  let loaded = Obs_cache.load cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check int) "corrupt entry reads as a miss" 0 (Array.length loaded);
  Alcotest.(check bool) "corruption is counted" true
    (Pi_obs.Metrics.counter_value counter > before)

(* ---------------- Fault tolerance ---------------- *)

let test_prepare_failure_is_partial () =
  let bomb =
    {
      Bench.name = "999.bomb";
      suite = Bench.Cpu2006;
      description = "always fails to build";
      expect_significant = false;
      build = (fun ~scale:_ -> failwith "kaboom");
    }
  in
  let r = Campaign.run ~config:quick ~jobs:2 ~n_layouts:5 [ Spec.find "456.hmmer"; bomb ] in
  Alcotest.(check bool) "partial failure reported" false (Campaign.succeeded r);
  Alcotest.(check int) "bomb's jobs all failed" 5 r.Campaign.manifest.Manifest.failed_jobs;
  Alcotest.(check int) "the healthy bench still completed" 5
    r.Campaign.manifest.Manifest.computed_jobs;
  let entry =
    List.find (fun (b : Manifest.bench_entry) -> b.Manifest.bench = "999.bomb")
      r.Campaign.manifest.Manifest.benches
  in
  (match entry.Manifest.prepare_error with
  | Some e ->
      Alcotest.(check bool) "error text recorded" true
        (String.length e > 0 && String.length (List.hd entry.Manifest.failures).Manifest.error > 0)
  | None -> Alcotest.fail "prepare_error missing");
  Alcotest.(check int) "healthy dataset intact" 5
    (Array.length (dataset_of r "456.hmmer").E.observations)

(* ---------------- Telemetry ---------------- *)

let test_telemetry_stream () =
  let path = Filename.temp_file "pi-events" ".jsonl" in
  let sink = Telemetry.to_file path in
  let r =
    Fun.protect
      ~finally:(fun () -> Telemetry.close sink)
      (fun () ->
        Campaign.run ~config:quick ~jobs:2 ~events:sink ~n_layouts:4
          [ Spec.find "456.hmmer" ])
  in
  Alcotest.(check bool) "campaign ok" true (Campaign.succeeded r);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  (* Every event line opens with {"event":"<name>", *)
  let count name =
    let prefix = Printf.sprintf {|{"event":"%s",|} name in
    List.length
      (List.filter
         (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
         lines)
  in
  Alcotest.(check bool) "has lines" true (List.length lines > 0);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check int) "one campaign_started" 1 (count "campaign_started");
  Alcotest.(check int) "one campaign_finished" 1 (count "campaign_finished");
  Alcotest.(check int) "a job_started per seed" 4 (count "job_started");
  Alcotest.(check int) "a job_finished per seed" 4 (count "job_finished")

let test_json_rendering () =
  let open Pi_obs.Json in
  Alcotest.(check string) "escaping"
    {|{"a":"x\"y\n","b":[1,true,null],"c":-2.5}|}
    (to_string
       (Obj
          [
            ("a", String "x\"y\n");
            ("b", List [ Int 1; Bool true; Null ]);
            ("c", Float (-2.5));
          ]))

let suite =
  [
    ( "campaign",
      [
        Alcotest.test_case "scheduler: slots independent of interleaving" `Quick
          test_scheduler_order_independent;
        Alcotest.test_case "scheduler: one failure does not kill the rest" `Quick
          test_scheduler_failure_isolated;
        Alcotest.test_case "scheduler: sensible default jobs" `Quick
          test_scheduler_default_jobs;
        Alcotest.test_case "--jobs plumbing reaches scheduler and manifest" `Quick
          test_jobs_plumbing;
        Alcotest.test_case "parallel == sequential (bit-identical)" `Quick
          test_determinism_parallel_vs_sequential;
        Alcotest.test_case "cache: rerun hits, growth computes only new seeds" `Quick
          test_cache_hits_and_identity;
        Alcotest.test_case "cache: config digest stability and rotation" `Quick
          test_cache_config_digest_rotates;
        Alcotest.test_case "cache: entries use the full config digest" `Quick
          test_cache_entry_path_full_digest;
        Alcotest.test_case "cache: legacy truncated-digest entries migrate" `Quick
          test_cache_legacy_entry_migrates;
        Alcotest.test_case "cache: corrupt entry is a loud miss" `Quick
          test_cache_corrupt_entry_is_loud_miss;
        Alcotest.test_case "fault tolerance: prepare failure is partial" `Quick
          test_prepare_failure_is_partial;
        Alcotest.test_case "telemetry: JSONL event stream" `Quick test_telemetry_stream;
        Alcotest.test_case "telemetry: JSON rendering" `Quick test_json_rendering;
      ] );
  ]
