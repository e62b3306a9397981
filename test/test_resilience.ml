(* Tests for the campaign resilience layer: deterministic fault injection,
   scheduler retry/backoff, crash-safe cache writes, checkpoint manifests
   and the resume path. The governing invariant throughout: faults,
   retries, interrupts and resumes must never change the science — every
   recovered campaign is bit-identical to an undisturbed one. *)

module E = Interferometry.Experiment
module Campaign = Pi_campaign.Campaign
module Scheduler = Pi_campaign.Scheduler
module Obs_cache = Pi_campaign.Obs_cache
module Manifest = Pi_campaign.Manifest
module Telemetry = Pi_campaign.Telemetry
module J = Pi_obs.Json
module Fault = Pi_campaign.Fault
module Spec = Pi_workloads.Spec
module Bench = Pi_workloads.Bench

let quick = E.quick_config
let benches () = [ Spec.find "400.perlbench"; Spec.find "456.hmmer" ]

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let contents =
        In_channel.with_open_bin (Filename.concat src name) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc contents))
    (Sys.readdir src)

let dataset_of (result : Campaign.result) name =
  match
    List.find_opt
      (fun (o : Campaign.bench_outcome) -> o.Campaign.bench.Bench.name = name)
      result.Campaign.outcomes
  with
  | Some { Campaign.dataset = Some d; _ } -> d
  | _ -> Alcotest.failf "no dataset for %s" name

let check_identical ~msg reference result =
  List.iter
    (fun b ->
      let dr = dataset_of reference b.Bench.name and dt = dataset_of result b.Bench.name in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "%s: %s cpis" msg b.Bench.name)
        (E.cpis dr) (E.cpis dt);
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "%s: %s mpkis" msg b.Bench.name)
        (E.mpkis dr) (E.mpkis dt))
    (benches ())

(* ---------------- Fault specs ---------------- *)

let test_fault_parse () =
  (match Fault.parse "rate=0.3,kind=exn+corrupt-cache,seed=7,delay=0.25" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok t ->
      Alcotest.(check (float 0.0)) "rate" 0.3 t.Fault.rate;
      Alcotest.(check int) "seed" 7 t.Fault.seed;
      Alcotest.(check (float 0.0)) "delay" 0.25 t.Fault.delay;
      Alcotest.(check (list string)) "kinds"
        [ "exn"; "corrupt-cache" ]
        (List.map Fault.kind_name t.Fault.kinds);
      (* describe is parseable and round-trips. *)
      Alcotest.(check bool) "describe round-trips" true (Fault.parse (Fault.describe t) = Ok t));
  (match Fault.parse "rate=1" with
  | Ok t -> Alcotest.(check (list string)) "default kind" [ "exn" ] (List.map Fault.kind_name t.Fault.kinds)
  | Error e -> Alcotest.failf "minimal spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error e -> Alcotest.(check bool) "error text" true (String.length e > 0))
    [ ""; "kind=exn"; "rate=1.5"; "rate=x"; "rate=0.5,kind=nope"; "rate=0.5,frobnicate=1"; "rate" ]

let test_fault_determinism () =
  let t = { Fault.rate = 0.5; kinds = [ Fault.Exn; Fault.Delay ]; seed = 3; delay = 0.0 } in
  (* Pure: the same (site, attempt) always draws the same fault. *)
  List.iter
    (fun site ->
      List.iter
        (fun attempt ->
          Alcotest.(check bool) "draw is pure" true
            (Fault.draw t ~site ~attempt = Fault.draw t ~site ~attempt))
        [ 1; 2; 3 ])
    [ "job|400.perlbench|1"; "job|456.hmmer|9"; "store|x|2" ];
  (* rate=0 never fires; rate=1 always fires. *)
  let never = { t with Fault.rate = 0.0 } and always = { t with Fault.rate = 1.0 } in
  for s = 1 to 50 do
    let site = Printf.sprintf "site|%d" s in
    Alcotest.(check bool) "rate=0 silent" true (Fault.draw never ~site ~attempt:1 = None);
    Alcotest.(check bool) "rate=1 fires" true (Fault.draw always ~site ~attempt:1 <> None)
  done;
  (* Attempt-keyed draws make faults transient: at rate 0.5 every one of
     these sites stops faulting within a few retries. *)
  let clears site =
    let rec go attempt = attempt <= 10 && (Fault.draw t ~site ~attempt = None || go (attempt + 1)) in
    go 1
  in
  for s = 1 to 20 do
    Alcotest.(check bool) "fault clears under retry" true (clears (Printf.sprintf "job|b|%d" s))
  done;
  (* hash_uniform: in [0, 1), seed- and key-sensitive. *)
  let u = Fault.hash_uniform ~seed:0 "k" in
  Alcotest.(check bool) "uniform in range" true (u >= 0.0 && u < 1.0);
  Alcotest.(check (float 0.0)) "uniform deterministic" u (Fault.hash_uniform ~seed:0 "k");
  Alcotest.(check bool) "seed matters" true (u <> Fault.hash_uniform ~seed:1 "k");
  Alcotest.(check bool) "key matters" true (u <> Fault.hash_uniform ~seed:0 "k2")

(* ---------------- Scheduler retries ---------------- *)

let test_scheduler_retries () =
  (* Tasks fail their first [i mod 3] attempts, then succeed: with
     retries=2 everything recovers, attempts are counted, and on_retry
     fires once per extra attempt. *)
  let n = 9 in
  let tries = Array.make n 0 in
  let retry_events = ref [] in
  let completions =
    Scheduler.map ~jobs:1 ~retries:2 ~backoff:0.0
      ~on_retry:(fun i ~attempt ~backoff e ~pending:_ ->
        Alcotest.(check bool) "backoff nonnegative" true (backoff >= 0.0);
        Alcotest.(check bool) "error text present" true (String.length e.Scheduler.message > 0);
        retry_events := (i, attempt) :: !retry_events)
      (fun i ->
        tries.(i) <- tries.(i) + 1;
        if tries.(i) <= i mod 3 then failwith "flaky" else i * 10)
      n
  in
  Array.iteri
    (fun i (c : int Scheduler.completion) ->
      Alcotest.(check int) "attempts spent" ((i mod 3) + 1) c.Scheduler.attempts;
      Alcotest.(check (float 1e-6)) "elapsed spans all attempts"
        (c.Scheduler.finished -. c.Scheduler.started)
        c.Scheduler.elapsed;
      match c.Scheduler.result with
      | Ok v -> Alcotest.(check int) "recovered value" (i * 10) v
      | Error e -> Alcotest.failf "task %d not recovered: %s" i e.Scheduler.message)
    completions;
  let expected_retries =
    List.init n (fun i -> i mod 3) |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "one on_retry per extra attempt" expected_retries
    (List.length !retry_events)

let test_scheduler_retries_exhausted () =
  let completions =
    Scheduler.map ~jobs:1 ~retries:2 ~backoff:0.0 (fun _ -> failwith "hopeless") 3
  in
  Array.iter
    (fun (c : unit Scheduler.completion) ->
      Alcotest.(check int) "all attempts spent" 3 c.Scheduler.attempts;
      match c.Scheduler.result with
      | Ok () -> Alcotest.fail "hopeless task succeeded"
      | Error e ->
          Alcotest.(check bool) "last error recorded" true
            (String.length e.Scheduler.message > 0))
    completions;
  (* Parameter validation. *)
  Alcotest.check_raises "negative retries rejected"
    (Invalid_argument "Scheduler.map: retries < 0") (fun () ->
      ignore (Scheduler.map ~retries:(-1) (fun i -> i) 1));
  Alcotest.check_raises "negative backoff rejected"
    (Invalid_argument "Scheduler.map: backoff < 0") (fun () ->
      ignore (Scheduler.map ~backoff:(-0.5) (fun i -> i) 1))

let test_scheduler_deadline_consistent () =
  (* The satellite fix: the elapsed time printed in the deadline error is
     the same single clock reading the deadline decision used. *)
  let completions =
    Scheduler.map ~jobs:1 ~deadline:0.001 (fun _ -> Unix.sleepf 0.01) 2
  in
  Array.iter
    (fun (c : unit Scheduler.completion) ->
      match c.Scheduler.result with
      | Ok () -> Alcotest.fail "deadline should have fired"
      | Error e ->
          Scanf.sscanf e.Scheduler.message "deadline exceeded: %fs > %fs limit"
            (fun reported limit ->
              Alcotest.(check (float 0.0)) "limit echoed" 0.001 limit;
              Alcotest.(check bool) "reported elapsed beats the limit" true
                (reported > limit);
              (* The message's elapsed is the task's own window, not some
                 later clock read: it can never exceed the completion's
                 recorded elapsed. *)
              Alcotest.(check bool) "reported <= completion elapsed" true
                (reported <= c.Scheduler.elapsed +. 1e-9)))
    completions

(* ---------------- Crash-safe cache writes ---------------- *)

let observations () =
  (E.run ~config:quick (Spec.find "456.hmmer") ~n_layouts:3).E.observations

let test_store_tmp_hygiene () =
  let dir = temp_dir "pi-resilience-tmp" in
  let cache = Obs_cache.create ~dir in
  let obs = observations () in
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick obs;
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick obs;
  let tmps d =
    Sys.readdir d |> Array.to_list |> List.filter (fun n -> Filename.check_suffix n ".tmp")
  in
  Alcotest.(check (list string)) "no temp files survive a store" [] (tmps dir);
  Alcotest.(check int) "entry loadable" 3
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick));
  (* Orphan reaping: a stale temp (crashed writer) is removed on create,
     a fresh one (live concurrent writer) is left alone. *)
  let write path = Out_channel.with_open_bin path (fun oc -> output_string oc "junk") in
  let stale = Filename.concat dir "dead.0.0.tmp" in
  let fresh = Filename.concat dir "live.1.0.tmp" in
  write stale;
  write fresh;
  let old = Unix.time () -. 3600.0 in
  Unix.utimes stale old old;
  ignore (Obs_cache.create ~dir);
  Alcotest.(check bool) "stale orphan reaped" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh temp spared" true (Sys.file_exists fresh);
  Alcotest.(check int) "entries untouched by reaping" 3
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick))

let test_sanitize_bench_name () =
  (* Registry names pass through byte-identical. *)
  List.iter
    (fun b ->
      Alcotest.(check string) "registry name unchanged" b.Bench.name
        (Obs_cache.sanitize_bench_name b.Bench.name))
    (Spec.everything ());
  Alcotest.(check string) "slash escaped" "..%2Fescape" (Obs_cache.sanitize_bench_name "../escape");
  Alcotest.(check string) "percent escaped (injective)" "a%252Fb"
    (Obs_cache.sanitize_bench_name "a%2Fb");
  Alcotest.(check bool) "no collision between raw and pre-escaped" true
    (Obs_cache.sanitize_bench_name "a/b" <> Obs_cache.sanitize_bench_name "a%2Fb");
  let dir = temp_dir "pi-resilience-sanitize" in
  let cache = Obs_cache.create ~dir in
  List.iter
    (fun hostile ->
      let path = Obs_cache.entry_path cache ~bench:hostile ~config:quick in
      Alcotest.(check string) "entry stays inside the cache root" dir (Filename.dirname path))
    [ "../../etc/passwd"; "a/b/c"; ".."; "nul\000byte" ];
  (* A hostile name is usable end to end, not just contained. *)
  let obs = observations () in
  Obs_cache.store cache ~bench:"../escape" ~config:quick obs;
  Alcotest.(check int) "hostile name stores and loads" 3
    (Array.length (Obs_cache.load cache ~bench:"../escape" ~config:quick))

let test_corrupt_entry_is_miss () =
  let dir = temp_dir "pi-resilience-corrupt" in
  let cold = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:5 (benches ()) in
  Alcotest.(check int) "cold run computed all" 10 cold.Campaign.manifest.Manifest.computed_jobs;
  (* Tear one entry the way a crashed non-atomic writer would. *)
  let cache = Obs_cache.create ~dir in
  let torn =
    { Fault.rate = 1.0; kinds = [ Fault.Corrupt_cache ]; seed = 0; delay = 0.0 }
  in
  Alcotest.(check bool) "corruption fired" true
    (Fault.maybe_corrupt torn ~site:"test"
       (Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick));
  Alcotest.(check int) "torn entry loads as a miss" 0
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick));
  (* The campaign recomputes the torn bench and heals the cache;
     observations are bit-identical to the undisturbed run. *)
  let healed = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:5 (benches ()) in
  Alcotest.(check int) "only the torn bench recomputed" 5
    healed.Campaign.manifest.Manifest.computed_jobs;
  Alcotest.(check int) "intact bench still cached" 5
    healed.Campaign.manifest.Manifest.cached_jobs;
  check_identical ~msg:"healed == cold" cold healed;
  let warm = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:5 (benches ()) in
  Alcotest.(check int) "cache healed" 10 warm.Campaign.manifest.Manifest.cached_jobs

(* ---------------- Append-log cache entries ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file ?(append = false) path text =
  let flags = if append then [ Open_append; Open_binary ] else [ Open_trunc; Open_creat; Open_binary ] in
  Out_channel.with_open_gen (Open_wronly :: flags) 0o644 path (fun oc ->
      Out_channel.output_string oc text)

let with_seed s (o : E.observation) = { o with E.layout_seed = s }

(* The bytes every entry had before entries became logs: the header, then
   one row per seed in ascending order. *)
let canonical observations =
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       (Interferometry.Dataset_io.header_line
       :: List.map Interferometry.Dataset_io.observation_to_row (Array.to_list observations)))

let corrupt_count () =
  Pi_obs.Metrics.counter_value (Pi_obs.Metrics.counter "pi_obs_obs_cache_corrupt_total")

let test_torn_tail_dropped_then_trimmed () =
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-torn") in
  let obs = observations () in
  let path = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick (Array.sub obs 0 2);
  (* A crash mid-append: part of the third row, no newline. *)
  let row = Interferometry.Dataset_io.observation_to_row obs.(2) in
  write_file ~append:true path (String.sub row 0 (String.length row - 7));
  let before = corrupt_count () in
  let loaded = Obs_cache.load cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check int) "complete rows load" 2 (Array.length loaded);
  Alcotest.(check int) "torn tail is not corruption" before (corrupt_count ());
  Alcotest.(check bool) "load leaves the file alone" true (Sys.file_exists path);
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| obs.(2) |];
  Alcotest.(check string) "store trimmed the fragment before appending" (canonical obs)
    (read_file path);
  Alcotest.(check int) "all rows load" 3
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick))

let test_corrupt_entry_moved_aside () =
  let dir = temp_dir "pi-cache-aside" in
  let cache = Obs_cache.create ~dir in
  let path = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  let obs = observations () in
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick obs;
  (* A bad row mid-file is corruption, not a torn tail. *)
  write_file ~append:true path "not,a,row\n";
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| with_seed 9 obs.(0) |];
  let before = corrupt_count () in
  Alcotest.(check int) "corrupt entry reads as a miss" 0
    (Array.length (Obs_cache.load cache ~bench:"456.hmmer" ~config:quick));
  Alcotest.(check int) "corruption counted once" (before + 1) (corrupt_count ());
  Alcotest.(check bool) "entry moved off its name" false (Sys.file_exists path);
  let aside =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> not (String.equal n (Filename.basename path)))
  in
  (match aside with
  | [ name ] ->
      Alcotest.(check bool) "aside name is neither .csv nor .tmp" true
        ((not (Filename.check_suffix name ".csv")) && not (Filename.check_suffix name ".tmp"))
  | names -> Alcotest.failf "expected one file aside, got [%s]" (String.concat "; " names));
  Alcotest.(check int) "stats skips the aside file" 0 (Obs_cache.stats cache).Obs_cache.entries;
  (* The next campaign starts the entry fresh and heals it. *)
  let healed = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:3 [ Spec.find "456.hmmer" ] in
  Alcotest.(check int) "every seed recomputed" 3 healed.Campaign.manifest.Manifest.computed_jobs;
  Alcotest.(check string) "healed entry is canonical" (canonical obs) (read_file path);
  let warm = Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~n_layouts:3 [ Spec.find "456.hmmer" ] in
  Alcotest.(check int) "healed entry serves every seed" 3
    warm.Campaign.manifest.Manifest.cached_jobs;
  Alcotest.(check int) "no further corruption" (before + 1) (corrupt_count ())

let test_concurrent_domains_lose_no_row () =
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-domains") in
  let o = (observations ()).(0) in
  let n = 60 in
  let writer parity =
    Domain.spawn (fun () ->
        for s = 1 to n do
          if s mod 2 = parity then Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| with_seed s o |]
        done)
  in
  let a = writer 0 and b = writer 1 in
  Domain.join a;
  Domain.join b;
  let loaded = Obs_cache.load cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check (list int)) "every seed from both domains" (List.init n (fun i -> i + 1))
    (Array.to_list (Array.map (fun (o : E.observation) -> o.E.layout_seed) loaded));
  Obs_cache.compact cache ~bench:"456.hmmer" ~config:quick;
  Alcotest.(check string) "compacted to the canonical bytes"
    (canonical (Array.init n (fun i -> with_seed (i + 1) o)))
    (read_file (Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick))

let test_duplicate_store_last_wins () =
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-dup") in
  let obs = observations () in
  let first = with_seed 1 obs.(1) and second = with_seed 1 obs.(2) in
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| first; obs.(0) |];
  Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| second |];
  let loaded = Obs_cache.load cache ~bench:"456.hmmer" ~config:quick in
  Alcotest.(check int) "one observation per seed" 1 (Array.length loaded);
  Alcotest.(check bool) "the last row for a seed wins" true (loaded.(0) = second);
  Obs_cache.compact cache ~bench:"456.hmmer" ~config:quick;
  Alcotest.(check string) "compaction keeps the winner only" (canonical [| second |])
    (read_file (Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick))

let test_compact_canonical_bytes () =
  (* Out-of-order appends compact to the canonical bytes; a canonical
     entry is left untouched (same inode, no rewrite). *)
  let cache = Obs_cache.create ~dir:(temp_dir "pi-cache-compact") in
  let obs = observations () in
  let path = Obs_cache.entry_path cache ~bench:"456.hmmer" ~config:quick in
  List.iter
    (fun i -> Obs_cache.store cache ~bench:"456.hmmer" ~config:quick [| obs.(i) |])
    [ 2; 0; 1 ];
  Alcotest.(check bool) "appended in arrival order" true (read_file path <> canonical obs);
  Obs_cache.compact cache ~bench:"456.hmmer" ~config:quick;
  Alcotest.(check string) "compacted" (canonical obs) (read_file path);
  let inode () = (Unix.stat path).Unix.st_ino in
  let before = inode () in
  Obs_cache.compact cache ~bench:"456.hmmer" ~config:quick;
  Alcotest.(check int) "canonical entry not rewritten" before (inode ());
  Obs_cache.compact cache ~bench:"absent" ~config:quick;
  Alcotest.(check bool) "compacting a missing entry creates nothing" false
    (Sys.file_exists (Obs_cache.entry_path cache ~bench:"absent" ~config:quick));
  (* End to end: whatever order --jobs 4 appended in, the finished entries
     are the --jobs 1 bytes, which are the canonical bytes. *)
  let run jobs =
    let dir = temp_dir (Printf.sprintf "pi-cache-jobs%d" jobs) in
    ignore (Campaign.run ~config:quick ~jobs ~cache_dir:dir ~n_layouts:8 (benches ()));
    Obs_cache.create ~dir
  in
  let one = run 1 and four = run 4 in
  List.iter
    (fun b ->
      let bench = b.Bench.name in
      let bytes c = read_file (Obs_cache.entry_path c ~bench ~config:quick) in
      Alcotest.(check string) (bench ^ ": --jobs 4 == --jobs 1") (bytes one) (bytes four);
      Alcotest.(check string) (bench ^ ": canonical format")
        (canonical (Obs_cache.load one ~bench ~config:quick))
        (bytes one))
    (benches ())

(* ---------------- Faulty campaigns ---------------- *)

let fault_exn rate seed = { Fault.rate; kinds = [ Fault.Exn ]; seed; delay = 0.0 }

let test_campaign_faults_with_retries () =
  let reference = Campaign.run ~config:quick ~jobs:2 ~n_layouts:6 (benches ()) in
  let faulty =
    Campaign.run ~config:quick ~jobs:2 ~retries:3 ~backoff:0.0
      ~fault:(fault_exn 0.3 1) ~n_layouts:6 (benches ())
  in
  Alcotest.(check bool) "faulty campaign still succeeds" true (Campaign.succeeded faulty);
  Alcotest.(check int) "no failed jobs" 0 faulty.Campaign.manifest.Manifest.failed_jobs;
  Alcotest.(check bool) "faults actually fired (retried_jobs > 0)" true
    (faulty.Campaign.manifest.Manifest.retried_jobs > 0);
  check_identical ~msg:"retried == undisturbed" reference faulty

let test_campaign_faults_without_retries () =
  let faulty =
    Campaign.run ~config:quick ~jobs:2 ~fault:(fault_exn 0.3 1) ~n_layouts:6 (benches ())
  in
  Alcotest.(check bool) "unretried faults fail the campaign" false
    (Campaign.succeeded faulty);
  Alcotest.(check bool) "failed jobs recorded" true
    (faulty.Campaign.manifest.Manifest.failed_jobs > 0);
  Alcotest.(check bool) "manifest not complete" false
    (Manifest.complete faulty.Campaign.manifest);
  (* The injected error is recognizable in the failure records. *)
  let some_injected =
    List.exists
      (fun (b : Manifest.bench_entry) ->
        List.exists
          (fun (f : Manifest.job_failure) ->
            let re = "injected fault" in
            let rec contains i =
              i + String.length re <= String.length f.Manifest.error
              && (String.sub f.Manifest.error i (String.length re) = re || contains (i + 1))
            in
            contains 0)
          b.Manifest.failures)
      faulty.Campaign.manifest.Manifest.benches
  in
  Alcotest.(check bool) "failure names the injected fault" true some_injected

(* ---------------- Checkpoint and resume ---------------- *)

let test_checkpoint_resume () =
  let reference = Campaign.run ~config:quick ~jobs:1 ~n_layouts:6 (benches ()) in
  let dir = temp_dir "pi-resilience-resume" in
  let ckpt = Filename.concat dir "manifest.json" in
  (* "Interrupt": injected faults without retries kill some jobs; the
     successful ones reach the cache incrementally, the checkpoint
     manifest reaches disk before any job runs. *)
  let interrupted =
    Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir ~checkpoint_path:ckpt
      ~config_args:[ ("quick", J.Bool true) ]
      ~fault:(fault_exn 0.4 2) ~n_layouts:6 (benches ())
  in
  let failed = interrupted.Campaign.manifest.Manifest.failed_jobs in
  Alcotest.(check bool) "some jobs were killed" true (failed > 0);
  Alcotest.(check bool) "some jobs survived" true (failed < 12);
  (* The checkpoint written at campaign start is loadable and marked. *)
  (match Manifest.load ~path:ckpt with
  | Error e -> Alcotest.failf "checkpoint unreadable: %s" e
  | Ok m ->
      Alcotest.(check bool) "checkpoint flagged" true m.Manifest.checkpoint;
      Alcotest.(check bool) "checkpoint is not complete" false (Manifest.complete m);
      Alcotest.(check int) "identity: total jobs" 12 m.Manifest.total_jobs;
      Alcotest.(check int) "identity: layouts" 6 m.Manifest.n_layouts;
      Alcotest.(check string) "identity: config digest"
        (Obs_cache.config_digest quick) m.Manifest.config_digest;
      Alcotest.(check (option string)) "identity: cache dir" (Some dir) m.Manifest.cache_dir;
      Alcotest.(check bool) "config_args preserved" true
        (List.assoc_opt "quick" m.Manifest.config_args = Some (J.Bool true));
      Alcotest.(check (list string)) "identity: benches"
        (List.map (fun b -> b.Bench.name) (benches ()))
        (List.map (fun (b : Manifest.bench_entry) -> b.Manifest.bench) m.Manifest.benches));
  (* Resume twice from copies of the interrupted cache, at different
     parallelism: only the missing jobs are recomputed, and both resumed
     datasets are bit-identical to the undisturbed reference. *)
  List.iter
    (fun jobs ->
      let dir2 = temp_dir "pi-resilience-resume-copy" in
      Unix.rmdir dir2;
      copy_dir dir dir2;
      let resumed =
        Campaign.run ~config:quick ~jobs ~cache_dir:dir2 ~n_layouts:6 (benches ())
      in
      let m = resumed.Campaign.manifest in
      Alcotest.(check int) "resume recomputes exactly the missing jobs" failed
        m.Manifest.computed_jobs;
      Alcotest.(check int) "resume reuses every survivor" (12 - failed)
        m.Manifest.cached_jobs;
      Alcotest.(check int) "computed + cached = total" 12
        (m.Manifest.computed_jobs + m.Manifest.cached_jobs);
      Alcotest.(check bool) "resumed run complete" true (Manifest.complete m);
      check_identical ~msg:(Printf.sprintf "resume --jobs %d == undisturbed" jobs)
        reference resumed)
    [ 1; 3 ]

(* ---------------- Manifest round-trip ---------------- *)

let test_manifest_roundtrip () =
  (* A manifest with everything populated: retries, failures, fits,
     config_args. Byte-for-byte JSON fixpoint through render -> parse ->
     of_json -> render. *)
  let faulty =
    Campaign.run ~config:quick ~jobs:2 ~retries:3 ~backoff:0.0 ~cache_dir:(temp_dir "pi-rt")
      ~config_args:[ ("quick", J.Bool true); ("seed", J.Int 1) ]
      ~fault:(fault_exn 0.3 1) ~n_layouts:4 (benches ())
  in
  let m = faulty.Campaign.manifest in
  let rendered = J.to_string (Manifest.to_json m) in
  (match J.parse rendered with
  | Error e -> Alcotest.failf "rendered manifest unparsable: %s" e
  | Ok j -> (
      match Manifest.of_json j with
      | Error e -> Alcotest.failf "parsed manifest rejected: %s" e
      | Ok m2 ->
          Alcotest.(check string) "render/parse fixpoint" rendered
            (J.to_string (Manifest.to_json m2))));
  (* save/load agree with to_json/of_json. *)
  let path = Filename.temp_file "pi-manifest" ".json" in
  Manifest.save m ~path;
  (match Manifest.load ~path with
  | Error e -> Alcotest.failf "saved manifest unloadable: %s" e
  | Ok m2 ->
      Alcotest.(check string) "save/load fixpoint" rendered
        (J.to_string (Manifest.to_json m2)));
  (* A pre-resilience manifest (no retries/checkpoint/config_args fields)
     still loads, with defaults. *)
  let legacy =
    {|{"label":"2006","n_layouts":2,"jobs":1,"config_digest":"abc","cache_dir":null,
       "started_at":1.5,"wall_seconds":2.5,"total_jobs":2,"computed_jobs":2,
       "cached_jobs":0,"failed_jobs":0,"cache_hits":0,"cache_misses":0,
       "benches":[]}|}
  in
  match J.parse legacy with
  | Error e -> Alcotest.failf "legacy json unparsable: %s" e
  | Ok j -> (
      match Manifest.of_json j with
      | Error e -> Alcotest.failf "legacy manifest rejected: %s" e
      | Ok m ->
          Alcotest.(check bool) "legacy is not a checkpoint" false m.Manifest.checkpoint;
          Alcotest.(check int) "legacy has no retries" 0 m.Manifest.retried_jobs;
          Alcotest.(check bool) "legacy complete" true (Manifest.complete m))

(* ---------------- JSON parser ---------------- *)

let test_telemetry_parse () =
  let open J in
  let ok s = match parse s with Ok j -> j | Error e -> Alcotest.failf "%S: %s" s e in
  Alcotest.(check bool) "object with every type" true
    (ok {| {"a": [1, -2.5, true, false, null, "x\n\"yA"], "b": {}} |}
    = Obj
        [
          ( "a",
            List [ Int 1; Float (-2.5); Bool true; Bool false; Null; String "x\n\"yA" ] );
          ("b", Obj []);
        ]);
  Alcotest.(check bool) "bare int" true (ok "7" = Int 7);
  Alcotest.(check bool) "fraction is float" true (ok "7.0" = Float 7.0);
  Alcotest.(check bool) "exponent is float" true (ok "1e3" = Float 1000.0);
  Alcotest.(check bool) "string escapes" true (ok {|"\t\\\/"|} = String "\t\\/");
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error e -> Alcotest.(check bool) "describes failure" true (String.length e > 0))
    [ ""; "{"; "[1,"; "tru"; {|{"a" 1}|}; "1 2"; {|"unterminated|}; "{\"a\":}" ];
  (* Everything the renderer emits parses back to itself. *)
  let v =
    Obj
      [
        ("s", String "q\"\\\n\t");
        ("l", List [ Int 0; Int (-3); Float 0.125; Bool true; Null ]);
        ("o", Obj [ ("nested", List [ Obj [] ]) ]);
      ]
  in
  Alcotest.(check bool) "render/parse inverse" true (parse (to_string v) = Ok v)

(* ---------------- Resilience telemetry ---------------- *)

let test_resilience_events () =
  let path = Filename.temp_file "pi-resilience-events" ".jsonl" in
  let dir = temp_dir "pi-resilience-events-cache" in
  let sink = Telemetry.to_file path in
  let r =
    Fun.protect
      ~finally:(fun () -> Telemetry.close sink)
      (fun () ->
        Campaign.run ~config:quick ~jobs:2 ~cache_dir:dir
          ~checkpoint_path:(Filename.concat dir "manifest.json") ~events:sink ~retries:3
          ~backoff:0.0 ~fault:(fault_exn 0.3 1) ~n_layouts:6 (benches ()))
  in
  Alcotest.(check bool) "campaign recovered" true (Campaign.succeeded r);
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let count name =
    let prefix = Printf.sprintf {|{"event":"%s",|} name in
    List.length
      (List.filter
         (fun l ->
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
         lines)
  in
  Alcotest.(check int) "one checkpoint_saved" 1 (count "checkpoint_saved");
  Alcotest.(check int) "job_retried matches the manifest" r.Campaign.manifest.Manifest.retried_jobs
    (count "job_retried");
  Alcotest.(check bool) "retries happened" true (count "job_retried" > 0);
  (* Every emitted line parses with the new reader. *)
  List.iter
    (fun l ->
      match J.parse l with
      | Ok (J.Obj _) -> ()
      | Ok _ -> Alcotest.failf "event line not an object: %s" l
      | Error e -> Alcotest.failf "event line unparsable (%s): %s" e l)
    lines

let suite =
  [
    ( "resilience",
      [
        Alcotest.test_case "fault: spec parse/describe" `Quick test_fault_parse;
        Alcotest.test_case "fault: deterministic, transient under retry" `Quick
          test_fault_determinism;
        Alcotest.test_case "scheduler: retries recover flaky tasks" `Quick
          test_scheduler_retries;
        Alcotest.test_case "scheduler: retries exhausted, params validated" `Quick
          test_scheduler_retries_exhausted;
        Alcotest.test_case "scheduler: deadline error reports its own clock" `Quick
          test_scheduler_deadline_consistent;
        Alcotest.test_case "cache: unique temps, fsync, orphan reaping" `Quick
          test_store_tmp_hygiene;
        Alcotest.test_case "cache: hostile bench names stay inside the root" `Quick
          test_sanitize_bench_name;
        Alcotest.test_case "cache: torn entry is a miss and heals" `Quick
          test_corrupt_entry_is_miss;
        Alcotest.test_case "cache: torn tail dropped on load, trimmed on store" `Quick
          test_torn_tail_dropped_then_trimmed;
        Alcotest.test_case "cache: corrupt entry moved aside, next campaign heals" `Quick
          test_corrupt_entry_moved_aside;
        Alcotest.test_case "cache: two domains appending lose no row" `Quick
          test_concurrent_domains_lose_no_row;
        Alcotest.test_case "cache: duplicate stores, the last row wins" `Quick
          test_duplicate_store_last_wins;
        Alcotest.test_case "cache: compaction restores the canonical bytes" `Quick
          test_compact_canonical_bytes;
        Alcotest.test_case "campaign: faults + retries == undisturbed run" `Quick
          test_campaign_faults_with_retries;
        Alcotest.test_case "campaign: unretried faults fail loudly" `Quick
          test_campaign_faults_without_retries;
        Alcotest.test_case "campaign: checkpoint + resume is bit-identical" `Quick
          test_checkpoint_resume;
        Alcotest.test_case "manifest: JSON round-trip and legacy load" `Quick
          test_manifest_roundtrip;
        Alcotest.test_case "telemetry: JSON parser" `Quick test_telemetry_parse;
        Alcotest.test_case "telemetry: resilience event stream" `Quick
          test_resilience_events;
      ] );
  ]
