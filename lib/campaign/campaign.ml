module E = Interferometry.Experiment
module Bench = Pi_workloads.Bench
module Linreg = Pi_stats.Linreg
module J = Pi_obs.Json
module Span = Pi_obs.Span

let m_cache_hits =
  Pi_obs.Metrics.counter ~help:"observation-cache probes answered from disk"
    "pi_obs_obs_cache_hits_total"

let m_cache_misses =
  Pi_obs.Metrics.counter ~help:"observation-cache probes that became compute jobs"
    "pi_obs_obs_cache_misses_total"

type bench_outcome = {
  bench : Bench.t;
  dataset : E.dataset option;
  entry : Manifest.bench_entry;
}

type result = { outcomes : bench_outcome list; manifest : Manifest.t }

let succeeded r = Manifest.complete r.manifest

let suite_label benches =
  let has suite = List.exists (fun (b : Bench.t) -> b.Bench.suite = suite) benches in
  match (has Bench.Cpu2006, has Bench.Cpu2000) with
  | true, true -> "all"
  | true, false -> "2006"
  | false, true -> "2000"
  | false, false -> "custom"

(* Domain-parallel shard map for {!Pi_uarch.Sweep.run_study}: each fused
   lane shard becomes one Scheduler task. Shards are pure compute over
   shared immutable plan/batch structures (no I/O, no shared mutable
   state), so no deadline or retry policy applies; a shard failure is a
   programming error and is re-raised. Results land in shard-index order,
   preserving the study's deterministic merge. *)
let sweep_shard_map ?jobs () : Pi_uarch.Sweep.shard_map =
 fun f n ->
  Scheduler.map ?jobs f n
  |> Array.map (fun (c : _ Scheduler.completion) ->
         match c.Scheduler.result with
         | Ok counts -> counts
         | Error e -> failwith (Printf.sprintf "sweep shard failed: %s" e.Scheduler.message))

let fit_of (dataset : E.dataset) =
  let bench = dataset.E.prepared.E.bench.Bench.name in
  match Interferometry.Model.fit_observations ~bench dataset.E.observations with
  | m ->
      let reg = m.Interferometry.Model.regression in
      Some
        {
          Manifest.r_squared = reg.Linreg.r_squared;
          slope = reg.Linreg.slope;
          intercept = reg.Linreg.intercept;
          mean_mpki = m.Interferometry.Model.mean_mpki;
          mean_cpi = m.Interferometry.Model.mean_cpi;
        }
  | exception _ -> None (* under 3 layouts or a degenerate x range: no model for this benchmark *)

let run ?(config = E.default_config) ?jobs ?cache_dir ?(events = Telemetry.null) ?deadline
    ?(retries = 0) ?(backoff = 0.05) ?fault ?checkpoint_path ?(config_args = []) ?label
    ?observe ~n_layouts benches =
  if n_layouts < 1 then invalid_arg "Campaign.run: n_layouts < 1";
  let jobs =
    match jobs with
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Campaign.run: jobs < 1"
    | None -> Scheduler.default_jobs ()
  in
  let label = match label with Some l -> l | None -> suite_label benches in
  Span.with_ ~name:"campaign" ~args:[ ("label", label) ] @@ fun () ->
  (* started_at is a wall-clock timestamp (it names a moment for humans);
     wall_seconds is a duration and comes from the monotonic clock. *)
  let started_at = Unix.gettimeofday () in
  let t0 = Pi_obs.Clock.now () in
  let digest = Obs_cache.config_digest config in
  let cache = Option.map (fun dir -> Obs_cache.create ~dir) cache_dir in
  let bench_arr = Array.of_list benches in
  let n_benches = Array.length bench_arr in
  let name i = bench_arr.(i).Bench.name in
  Telemetry.emit events ~event:"campaign_started"
    [
      ("label", J.String label);
      ("benches", J.Int n_benches);
      ("n_layouts", J.Int n_layouts);
      ("jobs", J.Int jobs);
      ("config_digest", J.String digest);
      ("total_jobs", J.Int (n_benches * n_layouts));
    ];

  (* Phase 1: build + trace every benchmark, in parallel. *)
  let prepared =
    Span.with_ ~name:"campaign.prepare" ~args:[ ("label", label) ]
    @@ fun () ->
    Scheduler.map ~jobs ?deadline ~retries ~backoff
      ~on_start:(fun i ~pending:_ ->
        Telemetry.emit events ~event:"prepare_started" [ ("bench", J.String (name i)) ])
      ~on_retry:(fun i ~attempt ~backoff e ~pending:_ ->
        Telemetry.emit events ~event:"prepare_retried"
          [
            ("bench", J.String (name i));
            ("attempt", J.Int attempt);
            ("backoff_secs", J.Float backoff);
            ("error", J.String e.Scheduler.message);
          ])
      ~on_finish:(fun c ~pending:_ ->
        match c.Scheduler.result with
        | Ok _ ->
            Telemetry.emit events ~event:"prepare_finished"
              [ ("bench", J.String (name c.Scheduler.index)); ("secs", J.Float c.Scheduler.elapsed) ]
        | Error e ->
            Telemetry.emit events ~event:"prepare_failed"
              [
                ("bench", J.String (name c.Scheduler.index));
                ("error", J.String e.Scheduler.message);
                ("secs", J.Float c.Scheduler.elapsed);
              ])
      (fun i -> E.prepare ~config bench_arr.(i))
      n_benches
  in

  (* Phase 2: probe the observation cache; hits never reach the queue. *)
  let cached_obs =
    Span.with_ ~name:"campaign.cache" ~args:[ ("label", label) ]
    @@ fun () ->
    Array.init n_benches (fun i ->
        match (cache, prepared.(i).Scheduler.result) with
        | Some cache, Ok _ ->
            let hits =
              Array.to_list (Obs_cache.load cache ~bench:(name i) ~config)
              |> List.filter (fun (o : E.observation) ->
                     o.E.layout_seed >= 1 && o.E.layout_seed <= n_layouts)
            in
            Pi_obs.Metrics.add m_cache_hits (List.length hits);
            Pi_obs.Metrics.add m_cache_misses (n_layouts - List.length hits);
            List.iter
              (fun (o : E.observation) ->
                Telemetry.emit events ~event:"job_cached"
                  [ ("bench", J.String (name i)); ("seed", J.Int o.E.layout_seed) ])
              hits;
            hits
        | _ -> [])
  in
  let cache_hits = List.length (List.concat (Array.to_list cached_obs)) in
  let cache_misses =
    if Option.is_none cache then 0
    else
      Array.to_list prepared
      |> List.mapi (fun i (c : _ Scheduler.completion) ->
             match c.Scheduler.result with
             | Ok _ -> n_layouts - List.length cached_obs.(i)
             | Error _ -> 0)
      |> List.fold_left ( + ) 0
  in

  (* Phase 3: one observation job per (benchmark, seed) not yet on disk.
     The cached-seed membership test is a bool array, not a list scan —
     planning stays O(n_layouts) per benchmark — and seeds are enumerated
     in ascending order, so job order (and hence every downstream
     artifact) is identical to the list-based plan. *)
  let job_specs =
    Array.concat
      (List.init n_benches (fun i ->
           match prepared.(i).Scheduler.result with
           | Error _ -> [||]
           | Ok _ ->
               let have = Array.make (n_layouts + 1) false in
               List.iter
                 (fun (o : E.observation) ->
                   if o.E.layout_seed >= 1 && o.E.layout_seed <= n_layouts then
                     have.(o.E.layout_seed) <- true)
                 cached_obs.(i);
               Array.of_list
                 (List.filter_map
                    (fun seed -> if have.(seed) then None else Some (i, seed))
                    (List.init n_layouts (fun s -> s + 1)))))
  in
  (* Checkpoint: before any observation job runs, persist a resume anchor
     recording the campaign's identity (benches, layouts, config digest,
     the caller's config_args, cache location). An interrupt at any later
     point leaves this manifest plus the incrementally-written observation
     cache — everything `campaign --resume` needs; the final manifest
     overwrites it. *)
  let checkpoint_entry i =
    let failures, prepare_error =
      match prepared.(i).Scheduler.result with
      | Ok _ -> ([], None)
      | Error e ->
          ( List.init n_layouts (fun s ->
                {
                  Manifest.seed = s + 1;
                  error = Printf.sprintf "prepare failed: %s" e.Scheduler.message;
                }),
            Some e.Scheduler.message )
    in
    {
      Manifest.bench = name i;
      suite = Bench.suite_name bench_arr.(i).Bench.suite;
      requested = n_layouts;
      computed = 0;
      cached = List.length cached_obs.(i);
      warmup_blocks =
        (match prepared.(i).Scheduler.result with
        | Ok p -> p.E.warmup_blocks
        | Error _ -> 0);
      retries = prepared.(i).Scheduler.attempts - 1;
      failures;
      prepare_seconds = prepared.(i).Scheduler.elapsed;
      observe_seconds = 0.0;
      wall_seconds = 0.0;
      cpu_seconds = prepared.(i).Scheduler.elapsed;
      prepare_error;
      fit = None;
    }
  in
  (match checkpoint_path with
  | None -> ()
  | Some path ->
      let entries = List.init n_benches checkpoint_entry in
      let sum f = List.fold_left (fun acc e -> acc + f e) 0 entries in
      Manifest.save
        {
          Manifest.label;
          n_layouts;
          jobs;
          config_digest = digest;
          cache_dir;
          config_args;
          checkpoint = true;
          started_at;
          wall_seconds = Pi_obs.Clock.now () -. t0;
          total_jobs = n_benches * n_layouts;
          computed_jobs = 0;
          cached_jobs = sum (fun e -> e.Manifest.cached);
          failed_jobs = sum (fun e -> List.length e.Manifest.failures);
          retried_jobs = sum (fun e -> e.Manifest.retries);
          cache_hits;
          cache_misses;
          benches = entries;
        }
        ~path;
      Telemetry.emit events ~event:"checkpoint_saved"
        [ ("path", J.String path); ("pending_jobs", J.Int (Array.length job_specs)) ]);
  let job_field idx =
    let bench_idx, seed = job_specs.(idx) in
    [ ("bench", J.String (name bench_idx)); ("seed", J.Int seed) ]
  in
  (* Attempt numbers for the fault-injection sites: a job's attempts run
     sequentially on one domain, so a plain array indexed by job is safe,
     and keying the fault draw by attempt makes injected faults transient
     under retry — exactly the failure mode the retry path exists for. *)
  let attempts_so_far = Array.make (Array.length job_specs) 0 in
  let completions =
    Span.with_ ~name:"campaign.observe" ~args:[ ("label", label) ]
    @@ fun () ->
    Scheduler.map ~jobs ?deadline ~retries ~backoff
      ~on_start:(fun i ~pending ->
        Telemetry.emit events ~event:"job_started" (job_field i @ [ ("queue_depth", J.Int pending) ]))
      ~on_retry:(fun i ~attempt ~backoff e ~pending:_ ->
        Telemetry.emit events ~event:"job_retried"
          (job_field i
          @ [
              ("attempt", J.Int attempt);
              ("backoff_secs", J.Float backoff);
              ("error", J.String e.Scheduler.message);
            ]))
      ~on_finish:(fun c ~pending ->
        (match c.Scheduler.result with
        | Ok _ ->
            Telemetry.emit events ~event:"job_finished"
              (job_field c.Scheduler.index
              @ [ ("secs", J.Float c.Scheduler.elapsed); ("queue_depth", J.Int pending) ])
        | Error e ->
            Telemetry.emit events ~event:"job_failed"
              (job_field c.Scheduler.index
              @ [
                  ("error", J.String e.Scheduler.message);
                  ("secs", J.Float c.Scheduler.elapsed);
                  ("queue_depth", J.Int pending);
                ]));
        (* Incremental checkpointing: every completed observation is
           appended to its entry and fsynced as it finishes. A crash loses
           at most the in-flight job (a torn row is dropped on the next
           load); everything already observed resumes as a cache hit. *)
        match (cache, c.Scheduler.result) with
        | Some cache, Ok obs ->
            let bench_idx, seed = job_specs.(c.Scheduler.index) in
            Obs_cache.store cache ~bench:(name bench_idx) ~config [| obs |];
            (match fault with
            | Some fault ->
                if
                  Fault.maybe_corrupt fault
                    ~site:(Printf.sprintf "store|%s|%d" (name bench_idx) seed)
                    (Obs_cache.entry_path cache ~bench:(name bench_idx) ~config)
                then
                  Telemetry.emit events ~event:"fault_corrupted_cache"
                    [ ("bench", J.String (name bench_idx)); ("seed", J.Int seed) ]
            | None -> ())
        | _ -> ())
      (fun i ->
        let bench_idx, seed = job_specs.(i) in
        match prepared.(bench_idx).Scheduler.result with
        | Ok prepared ->
            let attempt = attempts_so_far.(i) + 1 in
            attempts_so_far.(i) <- attempt;
            (match fault with
            | Some fault ->
                Fault.inject fault
                  ~site:(Printf.sprintf "job|%s|%d" (name bench_idx) seed)
                  ~attempt
            | None -> ());
            (* The observe hook is where --workers N plugs in: the
               coordinator runs the job on a worker process instead of
               this domain. Either path is a pure function of
               (benchmark, config, seed), so the assembly below cannot
               tell them apart — that is the bit-identity invariant. *)
            (match observe with
            | Some f -> f ~bench:(name bench_idx) ~prepared ~seed
            | None -> E.observe_seed prepared seed)
        | Error _ -> assert false (* unprepared benchmarks enqueue no jobs *))
      (Array.length job_specs)
  in

  (* The stores above appended rows in completion order, which --jobs N
     shuffles (as may an earlier campaign that crashed before this point);
     compaction restores each entry's canonical, seed-sorted bytes, and is
     a no-op when the rows already arrived in order. *)
  Option.iter
    (fun cache ->
      Array.iteri
        (fun i (p : _ Scheduler.completion) ->
          if Result.is_ok p.Scheduler.result then Obs_cache.compact cache ~bench:(name i) ~config)
        prepared)
    cache;

  (* Phase 4: assemble per-benchmark datasets by seed — completion order is
     irrelevant, which is what makes the parallel path bit-identical. *)
  let outcomes =
    Span.with_ ~name:"campaign.assemble" ~args:[ ("label", label) ]
    @@ fun () ->
    List.init n_benches (fun i ->
        let bench = bench_arr.(i) in
        let suite = Bench.suite_name bench.Bench.suite in
        match prepared.(i).Scheduler.result with
        | Error e ->
            let failures =
              List.init n_layouts (fun s ->
                  {
                    Manifest.seed = s + 1;
                    error = Printf.sprintf "prepare failed: %s" e.Scheduler.message;
                  })
            in
            {
              bench;
              dataset = None;
              entry =
                {
                  Manifest.bench = bench.Bench.name;
                  suite;
                  requested = n_layouts;
                  computed = 0;
                  cached = 0;
                  warmup_blocks = 0;
                  retries = prepared.(i).Scheduler.attempts - 1;
                  failures;
                  prepare_seconds = prepared.(i).Scheduler.elapsed;
                  observe_seconds = 0.0;
                  wall_seconds = prepared.(i).Scheduler.elapsed;
                  cpu_seconds = prepared.(i).Scheduler.elapsed;
                  prepare_error = Some e.Scheduler.message;
                  fit = None;
                };
            }
        | Ok prep ->
            let computed_ok = ref [] and failures = ref [] and observe_seconds = ref 0.0 in
            let bench_retries = ref (prepared.(i).Scheduler.attempts - 1) in
            (* This bench's activity window: from the start of its prepare
               task to the finish of its last observation job. Under
               parallelism the window (wall) is shorter than the summed
               task time (cpu); the ratio is this bench's effective
               parallelism in the manifest. *)
            let first_started = ref prepared.(i).Scheduler.started in
            let last_finished = ref prepared.(i).Scheduler.finished in
            Array.iter
              (fun (c : _ Scheduler.completion) ->
                let bench_idx, seed = job_specs.(c.Scheduler.index) in
                if bench_idx = i then begin
                  observe_seconds := !observe_seconds +. c.Scheduler.elapsed;
                  bench_retries := !bench_retries + c.Scheduler.attempts - 1;
                  first_started := Float.min !first_started c.Scheduler.started;
                  last_finished := Float.max !last_finished c.Scheduler.finished;
                  match c.Scheduler.result with
                  | Ok obs -> computed_ok := obs :: !computed_ok
                  | Error e ->
                      failures := { Manifest.seed; error = e.Scheduler.message } :: !failures
                end)
              completions;
            let observations =
              List.sort
                (fun (a : E.observation) b -> compare a.E.layout_seed b.E.layout_seed)
                (cached_obs.(i) @ !computed_ok)
              |> Array.of_list
            in
            (* Computed observations already reached the cache one by one
               from the observe phase's on_finish — crash-safe checkpointing
               made the end-of-campaign bulk store redundant. *)
            let dataset = Interferometry.Dataset_io.reattach prep observations in
            {
              bench;
              dataset = Some dataset;
              entry =
                {
                  Manifest.bench = bench.Bench.name;
                  suite;
                  requested = n_layouts;
                  computed = List.length !computed_ok;
                  cached = List.length cached_obs.(i);
                  warmup_blocks = prep.E.warmup_blocks;
                  retries = !bench_retries;
                  failures = List.sort compare !failures;
                  prepare_seconds = prepared.(i).Scheduler.elapsed;
                  observe_seconds = !observe_seconds;
                  wall_seconds = !last_finished -. !first_started;
                  cpu_seconds = prepared.(i).Scheduler.elapsed +. !observe_seconds;
                  prepare_error = None;
                  fit = fit_of dataset;
                };
            })
  in
  let sum f = List.fold_left (fun acc o -> acc + f o.entry) 0 outcomes in
  let manifest =
    {
      Manifest.label;
      n_layouts;
      jobs;
      config_digest = digest;
      cache_dir;
      config_args;
      checkpoint = false;
      started_at;
      wall_seconds = Pi_obs.Clock.now () -. t0;
      total_jobs = n_benches * n_layouts;
      computed_jobs = sum (fun e -> e.Manifest.computed);
      cached_jobs = sum (fun e -> e.Manifest.cached);
      failed_jobs = sum (fun e -> List.length e.Manifest.failures);
      retried_jobs = sum (fun e -> e.Manifest.retries);
      cache_hits;
      cache_misses;
      benches = List.map (fun o -> o.entry) outcomes;
    }
  in
  Telemetry.emit events ~event:"campaign_finished"
    [
      ("label", J.String label);
      ("computed", J.Int manifest.Manifest.computed_jobs);
      ("cached", J.Int manifest.Manifest.cached_jobs);
      ("failed", J.Int manifest.Manifest.failed_jobs);
      ("retries", J.Int manifest.Manifest.retried_jobs);
      ("wall_secs", J.Float manifest.Manifest.wall_seconds);
      ("complete", J.Bool (Manifest.complete manifest));
    ];
  { outcomes; manifest }
