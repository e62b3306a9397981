(* sweep and sweep-steered: the fused-sweep studies, on the placement the
   workload seed links.

   [sweep]: per benchmark, one full predictor study ([Sweep.run_study],
   fused) and one cache-geometry study ([Sweep.run_cache_study]); one op is
   one study. A cache study that raises (the [Matrix.cholesky] fit failure
   on several benchmarks) is a failed op.

   [sweep-steered]: per benchmark, one [Max_err 1%] surrogate-steered
   predictor study; one op is one steered study. *)

open Common
module E = Interferometry.Experiment
module S = Pi_uarch.Sweep

let sweep_benches =
  [ "400.perlbench"; "429.mcf"; "403.gcc"; "456.hmmer"; "470.lbm"; "183.equake" ]

let steered_benches = [ "400.perlbench"; "429.mcf"; "470.lbm"; "183.equake" ]
let max_err = 1.0

type subject = {
  name : string;
  prepared : E.prepared;
  placement : Pi_layout.Placement.t;
  blocks : float;  (** trace blocks one lane replays *)
}

(* Set-up: build, trace and compile every benchmark under the default
   config, and link the workload-seed placement. *)
let setup names ~seed =
  timed_setup (fun () ->
      Array.of_list
        (List.map
           (fun name ->
             let prepared = E.prepare (Pi_workloads.Spec.find name) in
             {
               name;
               prepared;
               placement = Pi_layout.Placement.make prepared.E.program ~seed;
               blocks = float_of_int (Pi_isa.Trace.blocks_executed prepared.E.trace);
             })
           names))

let study ?fused ?surrogate s =
  S.run_study ~plan:s.prepared.E.plan ~warmup_blocks:s.prepared.E.warmup_blocks ?fused
    ?surrogate ~benchmark:s.name s.prepared.E.trace s.placement

let cache_study s =
  S.run_cache_study ~plan:s.prepared.E.plan ~warmup_blocks:s.prepared.E.warmup_blocks
    ~benchmark:s.name s.prepared.E.trace s.placement

(* Everything a study computes, without the fields that say how it was
   computed (timings, fused/fallback split). *)
let study_result (st : S.study) =
  ( st.S.points,
    st.S.perfect_cpi,
    st.S.ltage_point,
    st.S.regression,
    st.S.predicted_perfect_cpi,
    st.S.predicted_ltage_cpi,
    st.S.warmup_blocks )

(* The degradation fit of [Sweep.run_cache_study], repeated through the
   public [Multireg.fit] on the grid's points: the cache_fit layer. *)
let cache_fit (points : S.cache_point array) ~(base : Pi_uarch.Pipeline.config) =
  let degraded =
    List.filter
      (fun p ->
        not (p.S.l1i_geometry = base.Pi_uarch.Pipeline.l1i
            && p.S.l2_geometry = base.Pi_uarch.Pipeline.l2))
      (Array.to_list points)
  in
  let xs = Array.of_list (List.map (fun p -> [| p.S.l1i_mpki; p.S.l2_mpki |]) degraded) in
  let ys = Array.of_list (List.map (fun p -> p.S.cache_cpi) degraded) in
  let _, dt = time (fun () -> try ignore (Pi_stats.Multireg.fit xs ys) with Failure _ -> ()) in
  dt

let run_sweep ~seed ~seconds ~traced =
  let subjects, prepare_s = setup sweep_benches ~seed in
  (* The fused grid batches are memoized for the life of the process: fill
     them once here, so the first cycle is not the only one paying, and
     count that one-time cost in set-up. *)
  let s = subjects.(0) in
  let (), warmup_s =
    time (fun () ->
        ignore (S.run_grid ~plan:s.prepared.E.plan ~warmup_blocks:s.prepared.E.warmup_blocks
                  s.prepared.E.trace s.placement);
        ignore (S.run_cache_grid ~plan:s.prepared.E.plan
                  ~warmup_blocks:s.prepared.E.warmup_blocks s.prepared.E.trace s.placement))
  in
  let setup_s = prepare_s +. warmup_s in
  let acc = Acc.create () in
  let attempted = ref 0 and failed = ref 0 in
  let ops = [| Ops.create (); Ops.create () |] in
  let cycle k =
    let arm = if traced && k mod 2 = 1 then 1 else 0 in
    Array.iter
      (fun s ->
        (* the predictor study *)
        let st, wall = time (fun () -> with_gc acc (fun () -> study s)) in
        incr attempted;
        Ops.add ops.(arm) (s.name ^ "/study") wall;
        Ops.succeeded ops.(arm);
        check
          (st.S.fused_lanes + st.S.fallback_lanes = Array.length st.S.points)
          "%s: %d fused + %d fallback lanes for %d points" s.name st.S.fused_lanes
          st.S.fallback_lanes (Array.length st.S.points);
        if arm = 1 then begin
          Acc.add acc "sweep.grid_ms" (st.S.grid_seconds *. 1000.0);
          Acc.add acc "sweep.reference_ms" ((wall -. st.S.grid_seconds) *. 1000.0);
          Acc.add acc "sweep.fused_lanes" (float_of_int st.S.fused_lanes);
          Acc.add acc "sweep.fallback_lanes" (float_of_int st.S.fallback_lanes);
          Acc.add acc "lane_blocks" (float_of_int st.S.fused_lanes *. s.blocks);
          Acc.add acc "fused_s" st.S.grid_seconds;
          Acc.add acc "wall_s" wall;
          Acc.add acc "attributed_s" wall
        end;
        (* the cache-geometry study *)
        let cs, wall =
          time (fun () ->
              with_gc acc (fun () ->
                  try Ok (cache_study s) with Sys.Break -> raise Sys.Break | e -> Error e))
        in
        incr attempted;
        Ops.add ops.(arm) (s.name ^ "/cache") wall;
        (match cs with
        | Ok cs ->
            Ops.succeeded ops.(arm);
            check
              (Array.length cs.S.cache_points = List.length (S.cache_configurations ()))
              "%s: cache study has %d points" s.name (Array.length cs.S.cache_points)
        | Error e ->
            incr failed;
            Printf.eprintf "sweep: %s cache study failed: %s\n%!" s.name
              (Printexc.to_string e));
        if arm = 1 then begin
          let base = s.prepared.E.config.E.machine in
          let points, grid_s =
            match cs with
            | Ok cs -> (cs.S.cache_points, cs.S.cache_grid_seconds)
            | Error _ ->
                (* no study record: time the grid through the public call *)
                let points, _, _, _, grid_s =
                  S.run_cache_grid ~plan:s.prepared.E.plan
                    ~warmup_blocks:s.prepared.E.warmup_blocks s.prepared.E.trace s.placement
                in
                (points, grid_s)
          in
          let fit_s = cache_fit points ~base in
          Acc.add acc "sweep.cache_grid_ms" (grid_s *. 1000.0);
          Acc.add acc "sweep.cache_fit_ms" (fit_s *. 1000.0);
          Acc.add acc "lane_blocks" (float_of_int (Array.length points) *. s.blocks);
          Acc.add acc "fused_s" grid_s;
          Acc.add acc "wall_s" wall;
          Acc.add acc "attributed_s" (grid_s +. fit_s)
        end)
      subjects
  in
  ignore (run_cycles ~seconds ~traced cycle);
  (* Output check: on one benchmark per run, the fused study equals the
     sequential per-config study. *)
  let s = subjects.(seed mod Array.length subjects) in
  check
    (study_result (study s) = study_result (study ~fused:false s))
    "%s: fused study differs from ~fused:false" s.name;
  let metrics =
    if not traced then
      [
        ("ops_per_s", Ops.rate ops.(0), "1/s");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
      ]
    else
      [
        ("sweep.grid_ms", Acc.mean acc "sweep.grid_ms", "ms");
        ("sweep.reference_ms", Acc.mean acc "sweep.reference_ms", "ms");
        ("sweep.cache_grid_ms", Acc.mean acc "sweep.cache_grid_ms", "ms");
        ("sweep.cache_fit_ms", Acc.mean acc "sweep.cache_fit_ms", "ms");
        ("replay.lane_blocks_per_s", Acc.sum acc "lane_blocks" /. Acc.sum acc "fused_s", "1/s");
        ("sweep.fused_lanes", Acc.mean acc "sweep.fused_lanes", "count");
        ("sweep.fallback_lanes", Acc.mean acc "sweep.fallback_lanes", "count");
        ( "sweep.failed_pct",
          float_of_int !failed /. float_of_int (max 1 !attempted) *. 100.0,
          "%" );
        ( "unattributed_pct",
          unattributed_pct ~wall:(Acc.sum acc "wall_s") ~attributed:(Acc.sum acc "attributed_s"),
          "%" );
        ( "trace.overhead_pct",
          overhead_pct ~untraced_rate:(Ops.rate ops.(0)) ~traced_rate:(Ops.rate ops.(1)),
          "%" );
      ]
      @ gc_layers acc ~ops:!attempted
  in
  { setup_s; attempted = !attempted; failed = !failed; metrics }

let run_steered ~seed ~seconds ~traced =
  let subjects, setup_s = setup steered_benches ~seed in
  (* The full fused study each steered one is checked against. *)
  let full = Array.map (fun s -> time (fun () -> study s)) subjects in
  let acc = Acc.create () in
  let attempted = ref 0 and failed = ref 0 in
  let ops = [| Ops.create (); Ops.create () |] in
  let ops_wall = ref 0.0 in
  let max_cpi_err = ref 0.0 in
  let cycle k =
    let arm = if traced && k mod 2 = 1 then 1 else 0 in
    Array.iteri
      (fun i s ->
        let reference, full_s = full.(i) in
        let st, wall =
          time (fun () -> with_gc acc (fun () -> study ~surrogate:(S.Max_err max_err) s))
        in
        incr attempted;
        Ops.add ops.(arm) s.name wall;
        ops_wall := !ops_wall +. wall;
        (* Output check: replayed lanes carry the full study's exact values,
           predicted lanes are within the steering tolerance. *)
        let ok = ref true in
        Array.iteri
          (fun j (p : S.point) ->
            let f = reference.S.points.(j) in
            match st.S.sources.(j) with
            | S.Replayed ->
                if p <> f then begin
                  ok := false;
                  check false "%s: replayed lane %s differs from the full study" s.name
                    p.S.config_name
                end
            | S.Predicted ->
                let err = Float.abs (p.S.cpi -. f.S.cpi) /. f.S.cpi *. 100.0 in
                max_cpi_err := Float.max !max_cpi_err err;
                if err > max_err then begin
                  ok := false;
                  check false "%s: predicted lane %s is %.4f%% off (> %.1f%%)" s.name
                    p.S.config_name err max_err
                end)
          st.S.points;
        if !ok then Ops.succeeded ops.(arm) else incr failed;
        if arm = 1 then begin
          Acc.add acc ("steer.rounds." ^ s.name) (float_of_int st.S.surrogate_rounds);
          Acc.add acc ("steer.replayed_lanes." ^ s.name) (float_of_int st.S.replayed_lanes);
          Acc.add acc ("steer.study_s." ^ s.name) wall;
          Acc.add acc "steer.replay_s" st.S.grid_seconds;
          Acc.add acc "steer.model_s" (wall -. st.S.grid_seconds);
          Acc.add acc "steer.full_study_ms" (full_s *. 1000.0);
          Acc.add acc "full_s" full_s;
          Acc.add acc "wall_s" wall
        end)
      subjects
  in
  let t0 = now () in
  ignore (run_cycles ~seconds ~traced cycle);
  let loop_s = now () -. t0 in
  let metrics =
    if not traced then
      [
        ("ops_per_s", Ops.rate ops.(0), "1/s");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
      ]
    else
      List.concat_map
        (fun name ->
          [
            ("steer.rounds." ^ name, Acc.mean acc ("steer.rounds." ^ name), "count");
            ("steer.replayed_lanes." ^ name, Acc.mean acc ("steer.replayed_lanes." ^ name), "count");
            ("steer.study_s." ^ name, Acc.mean acc ("steer.study_s." ^ name), "s");
          ])
        steered_benches
      @ [
          ("steer.replay_s", Acc.mean acc "steer.replay_s", "s");
          ("steer.model_s", Acc.mean acc "steer.model_s", "s");
          ("steer.full_study_ms", Acc.mean acc "steer.full_study_ms", "ms");
          ("steer.speedup", Acc.sum acc "full_s" /. Acc.sum acc "wall_s", "x");
          (* Deterministic for a placement, but it swings several-fold from
             one placement to the next, so it cannot carry a regression
             bound; NOTES.md has the figures. *)
          ("steer.max_cpi_err_pct", !max_cpi_err, "%");
          (* Replay and model split each op's wall time by construction, so
             what is left unattributed is the loop between the ops. *)
          ( "unattributed_pct",
            unattributed_pct ~wall:loop_s ~attributed:!ops_wall,
            "%" );
          ( "trace.overhead_pct",
            overhead_pct ~untraced_rate:(Ops.rate ops.(0)) ~traced_rate:(Ops.rate ops.(1)),
            "%" );
        ]
      @ gc_layers acc ~ops:!attempted
  in
  { setup_s; attempted = !attempted; failed = !failed; metrics }
