(* Multi-process campaign coordinator: worker pool round trips, the
   bit-identity invariant against the in-process path, and worker-death
   recovery (SIGKILL → respawn → re-dispatch) with no result drift.

   These tests spawn the real CLI binary's hidden [campaign-worker]
   subcommand — the dune stanza depends on it, and the path is derived
   from the test runner's own location so cwd does not matter. *)

module J = Pi_obs.Json
module E = Interferometry.Experiment
module Campaign = Pi_campaign.Campaign
module Coordinator = Pi_campaign.Coordinator
module Metrics = Pi_obs.Metrics
module Spec = Pi_workloads.Spec
module Bench = Pi_workloads.Bench
module C = Pi_uarch.Counters

(* _build/default/test/test_main.exe -> _build/default/bin/interferometry_cli.exe *)
let cli_exe =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "interferometry_cli.exe"

let config_args = [ ("quick", J.Bool true) ]
let bench_name = "456.hmmer"

let with_pool ~workers f =
  let pool = Coordinator.create ~exe:cli_exe ~workers ~config_args () in
  Fun.protect ~finally:(fun () -> Coordinator.shutdown pool) (fun () -> f pool)

let check_measurement name (a : E.observation) (b : E.observation) =
  Alcotest.(check int) (name ^ " seed") a.E.layout_seed b.E.layout_seed;
  List.iter
    (fun (field, get) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s %s bit-identical" name field)
        (get a.E.measurement) (get b.E.measurement))
    [
      ("cpi", fun m -> m.C.cpi);
      ("mpki", fun m -> m.C.mpki);
      ("l1i_mpki", fun m -> m.C.l1i_mpki);
      ("l1d_mpki", fun m -> m.C.l1d_mpki);
      ("l2_mpki", fun m -> m.C.l2_mpki);
      ("cycles", fun m -> m.C.cycles);
      ("instructions", fun m -> m.C.instructions);
    ]

let test_pool_observe_bit_identical () =
  let config = Coordinator.config_of_args config_args in
  let prepared = E.prepare ~config (Spec.find bench_name) in
  with_pool ~workers:2 (fun pool ->
      Alcotest.(check int) "pool size" 2 (Coordinator.workers pool);
      Alcotest.(check int) "two live pids" 2 (List.length (Coordinator.pids pool));
      List.iter
        (fun seed ->
          let remote = Coordinator.observe pool ~bench:bench_name ~seed in
          let local = E.observe_seed prepared seed in
          check_measurement (Printf.sprintf "seed %d" seed) local remote)
        [ 1; 2; 3; 4 ])

let test_pool_job_failure_is_not_death () =
  (* An unknown benchmark fails the job on a healthy worker: Failure, not
     Worker_died, and the pool keeps serving real jobs afterwards. *)
  let config = Coordinator.config_of_args config_args in
  let prepared = E.prepare ~config (Spec.find bench_name) in
  with_pool ~workers:1 (fun pool ->
      (match Coordinator.observe pool ~bench:"no.such.bench" ~seed:1 with
      | exception Failure _ -> ()
      | exception Coordinator.Worker_died _ ->
          Alcotest.fail "job error misreported as worker death"
      | _ -> Alcotest.fail "unknown benchmark succeeded");
      let remote = Coordinator.observe pool ~bench:bench_name ~seed:1 in
      check_measurement "after failed job" (E.observe_seed prepared 1) remote)

let test_worker_death_respawn_redispatch () =
  let config = Coordinator.config_of_args config_args in
  let prepared = E.prepare ~config (Spec.find bench_name) in
  let deaths = Metrics.counter "pi_obs_coordinator_worker_deaths_total" in
  let redispatches = Metrics.counter "pi_obs_coordinator_redispatches_total" in
  let deaths0 = Metrics.counter_value deaths in
  let redispatches0 = Metrics.counter_value redispatches in
  with_pool ~workers:2 (fun pool ->
      let original = Coordinator.pids pool in
      (* SIGKILL both workers: every in-flight dispatch must detect the
         death, respawn into the slot, and re-run the job — transparently. *)
      List.iter (fun pid -> Unix.kill pid Sys.sigkill) original;
      List.iter
        (fun seed ->
          let remote = Coordinator.observe pool ~bench:bench_name ~seed in
          check_measurement
            (Printf.sprintf "post-kill seed %d" seed)
            (E.observe_seed prepared seed) remote)
        [ 1; 2; 3 ];
      let survivors = Coordinator.pids pool in
      Alcotest.(check int) "pool is back to strength" 2 (List.length survivors);
      List.iter
        (fun pid ->
          Alcotest.(check bool) "respawned pid is fresh" false
            (List.mem pid original))
        survivors);
  Alcotest.(check bool) "deaths counted" true
    (Metrics.counter_value deaths - deaths0 >= 2);
  Alcotest.(check bool) "re-dispatches counted" true
    (Metrics.counter_value redispatches - redispatches0 >= 2)

let test_campaign_distributed_bit_identical () =
  (* The acceptance invariant end to end: a campaign whose observation
     jobs run on worker processes — including one killed before the first
     dispatch — is bit-identical to the plain in-process campaign. *)
  let config = Coordinator.config_of_args config_args in
  let benches = [ Spec.find "400.perlbench"; Spec.find bench_name ] in
  let baseline = Campaign.run ~config ~jobs:1 ~n_layouts:6 benches in
  let distributed =
    with_pool ~workers:2 (fun pool ->
        (* Kill one worker up front: the campaign must ride the respawn. *)
        Unix.kill (List.hd (Coordinator.pids pool)) Sys.sigkill;
        Campaign.run ~config ~jobs:2
          ~observe:(Coordinator.observe_hook pool)
          ~n_layouts:6 benches)
  in
  Alcotest.(check bool) "distributed campaign succeeded" true
    (Campaign.succeeded distributed);
  List.iter
    (fun (b : Bench.t) ->
      let find (r : Campaign.result) =
        match
          List.find_opt
            (fun (o : Campaign.bench_outcome) -> o.Campaign.bench.Bench.name = b.Bench.name)
            r.Campaign.outcomes
        with
        | Some { Campaign.dataset = Some d; _ } -> d
        | _ -> Alcotest.failf "no dataset for %s" b.Bench.name
      in
      let db = find baseline and dd = find distributed in
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " cpis identical") (E.cpis db) (E.cpis dd);
      Alcotest.(check (array (float 0.0)))
        (b.Bench.name ^ " mpkis identical") (E.mpkis db) (E.mpkis dd))
    benches

let test_hello_handshake () =
  (* The worker re-derives the config from config_args and digest-checks
     it at handshake; non-default knobs must still shake hands cleanly. *)
  match
    Coordinator.create ~exe:cli_exe ~workers:1
      ~config_args:[ ("quick", J.Bool true); ("seed", J.Int 7) ]
      ()
  with
  | pool ->
      (* Sanity: an honest handshake with extra args still works. *)
      Coordinator.shutdown pool
  | exception Failure _ -> Alcotest.fail "honest handshake refused"

let test_config_of_args_roundtrip () =
  let args =
    [
      ("quick", J.Bool true);
      ("seed", J.Int 1234);
      ("scale", J.Int 2);
      ("heap_random", J.Bool true);
    ]
  in
  let config = Coordinator.config_of_args args in
  Alcotest.(check int) "seed decoded" 1234 config.E.master_seed;
  Alcotest.(check int) "scale decoded" 2 config.E.scale;
  Alcotest.(check bool) "heap_random decoded" true config.E.heap_random;
  (* Defaults: no args is the default config. *)
  let plain = Coordinator.config_of_args [] in
  Alcotest.(check string) "empty args is the default config"
    (Pi_campaign.Obs_cache.config_digest E.default_config)
    (Pi_campaign.Obs_cache.config_digest plain)

let suite =
  [
    ( "distributed",
      [
        Alcotest.test_case "config_of_args round trip" `Quick
          test_config_of_args_roundtrip;
        Alcotest.test_case "worker pool == in-process (bit-identical)" `Quick
          test_pool_observe_bit_identical;
        Alcotest.test_case "job failure on a healthy worker is not a death" `Quick
          test_pool_job_failure_is_not_death;
        Alcotest.test_case "SIGKILL: respawn + re-dispatch, identical results" `Quick
          test_worker_death_respawn_redispatch;
        Alcotest.test_case "distributed campaign rides a worker death" `Quick
          test_campaign_distributed_bit_identical;
        Alcotest.test_case "worker handshake accepts honest config args" `Quick
          test_hello_handshake;
      ] );
  ]
