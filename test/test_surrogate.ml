(* The surrogate layer: exact recovery and round-trips on the pure
   Pi_stats.Surrogate pieces, determinism of the space-filling sampler,
   and the golden steering bounds — a surrogate-steered study must stay
   within 1% CPI of the full fused sweep on every predicted point, and a
   budget covering the whole grid must be bit-identical to the plain
   path. *)

module Surrogate = Pi_stats.Surrogate
module Sweep = Pi_uarch.Sweep
module Machine = Pi_uarch.Machine
module Placement = Pi_layout.Placement

let feps = 1e-9

(* ------------------------------------------------------------------ *)
(* Pure pieces. *)

let test_scaler_roundtrip () =
  let xs =
    [|
      [| 1.0; -3.0; 7.0; 4.0 |];
      [| 2.0; 5.0; 7.0; -1.0 |];
      [| 4.0; 0.5; 7.0; 0.0 |];
      [| -1.0; 2.0; 7.0; 12.0 |];
    |]
  in
  let s = Surrogate.scaler_fit xs in
  Array.iter
    (fun x ->
      let back = Surrogate.scaler_inverse s (Surrogate.scaler_transform s x) in
      Array.iteri
        (fun j v ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip col %d" j)
            true
            (Float.abs (back.(j) -. v) < 1e-9))
        x)
    xs;
  (* The constant column (index 2) standardizes to exactly 0 and inverts
     exactly. *)
  let z = Surrogate.scaler_transform s xs.(0) in
  Alcotest.(check (float feps)) "constant col -> 0" 0.0 z.(2);
  Alcotest.(check (float feps))
    "constant col back exactly" 7.0
    (Surrogate.scaler_inverse s z).(2)

let test_ridge_recovery () =
  (* Noise-free linear data: ridge with a tiny lambda must recover the
     generating coefficients almost exactly. *)
  let w_true = [| 2.0; -1.5; 0.25 |] and b_true = 4.0 in
  let xs =
    Array.init 40 (fun i ->
        let f = float_of_int i in
        [| sin f; cos (2.0 *. f); Float.rem f 5.0 |])
  in
  let ys =
    Array.map
      (fun x -> b_true +. (w_true.(0) *. x.(0)) +. (w_true.(1) *. x.(1)) +. (w_true.(2) *. x.(2)))
      xs
  in
  let r = Surrogate.ridge_fit ~lambda:1e-10 xs ys in
  Array.iteri
    (fun j w ->
      Alcotest.(check bool)
        (Printf.sprintf "weight %d" j)
        true
        (Float.abs (w -. w_true.(j)) < 1e-6))
    r.Surrogate.weights;
  Alcotest.(check bool) "bias" true (Float.abs (r.Surrogate.bias -. b_true) < 1e-6);
  Array.iter
    (fun x ->
      let y = b_true +. (w_true.(0) *. x.(0)) +. (w_true.(1) *. x.(1)) +. (w_true.(2) *. x.(2)) in
      Alcotest.(check bool) "predict" true (Float.abs (Surrogate.ridge_predict r x -. y) < 1e-6))
    xs

let test_ridge_condition_guard () =
  (* A perfectly collinear design is rank-deficient: the guard must
     escalate lambda instead of raising, and still fit the surface. *)
  let xs = Array.init 12 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  let ys = Array.map (fun x -> 1.0 +. x.(0) +. x.(1) |> fun v -> v) xs in
  let r = Surrogate.ridge_fit ~lambda:1e-12 xs ys in
  Alcotest.(check bool) "lambda escalated" true (r.Surrogate.lambda_used > 1e-12);
  (* Shrunk, not exact — but on the training manifold the fit must hold. *)
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "fit point %d" i)
        true
        (Float.abs (Surrogate.ridge_predict r x -. ys.(i)) < 0.15 *. (1.0 +. Float.abs ys.(i))))
    xs

let test_boost_reduces_residual () =
  (* A step function is invisible to ridge but trivial for stumps. *)
  let xs = Array.init 20 (fun i -> [| float_of_int i |]) in
  let ys = Array.map (fun x -> if x.(0) < 10.0 then 1.0 else 5.0) xs in
  let stumps = Surrogate.boost_fit ~rounds:16 xs ys in
  Alcotest.(check bool) "learned something" true (Array.length stumps > 0);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "step point %d" i)
        true
        (Float.abs (Surrogate.boost_predict stumps x -. ys.(i)) < 0.5))
    xs

let test_fit_predict_uncertainty () =
  let xs = Array.init 30 (fun i -> [| float_of_int i /. 3.0; float_of_int (i mod 7) |]) in
  let ys = Array.map (fun x -> 3.0 +. (0.5 *. x.(0)) -. (0.2 *. x.(1))) xs in
  let t = Surrogate.fit xs ys in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "interpolation %d" i)
        true
        (Float.abs (Surrogate.predict t x -. ys.(i)) < 0.05))
    xs;
  Array.iter
    (fun x -> Alcotest.(check bool) "uncertainty nonneg" true (Surrogate.uncertainty t x >= 0.0))
    xs;
  Alcotest.(check bool) "oof p90 nonneg" true (Surrogate.oof_p90 t >= 0.0)

let test_sampling_determinism () =
  let feats =
    Array.map
      (fun (name, _) -> Surrogate.predictor_features name)
      (Array.of_list (Sweep.configurations ()))
  in
  let a = Surrogate.sample_order ~anchors:[ 3; 11 ] feats in
  let b = Surrogate.sample_order ~anchors:[ 3; 11 ] feats in
  Alcotest.(check (array int)) "same order run to run" a b;
  Alcotest.(check int) "anchor first" 3 a.(0);
  Alcotest.(check int) "anchor second" 11 a.(1);
  (* A permutation: every index exactly once. *)
  let seen = Array.make (Array.length feats) false in
  Array.iter (fun i -> seen.(i) <- true) a;
  Alcotest.(check bool) "permutation" true (Array.for_all Fun.id seen)

let test_predictor_features () =
  let f = Surrogate.predictor_features "gshare-14/10" in
  Alcotest.(check int) "dim" (Surrogate.predictor_feature_dim) (Array.length f);
  Alcotest.(check (float feps)) "gshare one-hot" 1.0 f.(1);
  Alcotest.(check (float feps)) "entries" 14.0 f.(6);
  Alcotest.(check (float feps)) "history" 10.0 f.(7);
  (* Every grid name parses; junk does not. *)
  List.iter
    (fun (name, _) -> ignore (Surrogate.predictor_features name))
    (Sweep.configurations ());
  Alcotest.check_raises "junk rejected"
    (Invalid_argument "Surrogate.predictor_features: \"ltage-9\" is not a sweep-grid name")
    (fun () -> ignore (Surrogate.predictor_features "ltage-9"))

(* ------------------------------------------------------------------ *)
(* Golden steering bounds. *)

let traced name =
  let bench = Pi_workloads.Spec.find name in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  (p, Pi_layout.Run_limiter.trace p ~budget_blocks:8_000)

let grid_n = List.length (Sweep.configurations ())

let test_steered_error_bound () =
  (* Hard benches may honestly refuse to certify anything and replay the
     whole grid — the bound must hold wherever the model DID prune, and
     across the matrix it must prune somewhere. *)
  let total_pruned = ref 0 in
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      let plan = Pi_uarch.Replay.compile Machine.xeon_e5440 trace in
      List.iter
        (fun seed ->
          let placement = Placement.make p ~seed in
          let label = Printf.sprintf "%s/seed%d" bench_name seed in
          let full = Sweep.run_study ~plan ~benchmark:bench_name trace placement in
          let steered =
            Sweep.run_study ~plan ~surrogate:(Sweep.Max_err 1.0) ~benchmark:bench_name trace
              placement
          in
          total_pruned := !total_pruned + (grid_n - steered.Sweep.replayed_lanes);
          Array.iteri
            (fun i (p : Sweep.point) ->
              let f = full.Sweep.points.(i) in
              match steered.Sweep.sources.(i) with
              | Sweep.Replayed ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: replayed %s bit-identical" label p.Sweep.config_name)
                    true
                    (p.Sweep.cpi = f.Sweep.cpi && p.Sweep.mpki = f.Sweep.mpki)
              | Sweep.Predicted ->
                  let err = Float.abs (p.Sweep.cpi -. f.Sweep.cpi) /. f.Sweep.cpi *. 100.0 in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s CPI within 1%% (got %.3f%%)" label p.Sweep.config_name
                       err)
                    true (err <= 1.0))
            steered.Sweep.points)
        [ 1; 2 ])
    [ "400.perlbench"; "429.mcf"; "445.gobmk" ];
  Alcotest.(check bool) "pruned somewhere across the matrix" true (!total_pruned > 0)

(* The break-even rule: on 400.perlbench every unreplayed lane stays above
   the tolerance round after round, so rounds double and the study ends in
   a handful (5-lane rounds took 26-27). Where the model does learn
   (470.lbm: the count above tolerance falls by more than a round
   replays) or settles at once (183.equake), rounds and replayed lanes
   are those of fixed 5-lane rounds. *)
let test_steered_break_even () =
  let study bench_name seed =
    let p, trace = traced bench_name in
    let plan = Pi_uarch.Replay.compile Machine.xeon_e5440 trace in
    let placement = Placement.make p ~seed in
    ( Sweep.run_study ~plan ~benchmark:bench_name trace placement,
      Sweep.run_study ~plan ~surrogate:(Sweep.Max_err 1.0) ~benchmark:bench_name trace placement )
  in
  List.iter
    (fun seed ->
      let full, steered = study "400.perlbench" seed in
      let label = Printf.sprintf "400.perlbench/seed%d" seed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d rounds <= 6" label steered.Sweep.surrogate_rounds)
        true
        (steered.Sweep.surrogate_rounds <= 6);
      Alcotest.(check bool) (label ^ ": points equal the full study") true
        (steered.Sweep.points = full.Sweep.points))
    [ 1; 2 ];
  List.iter
    (fun (bench_name, rounds, replayed) ->
      let _, steered = study bench_name 1 in
      Alcotest.(check (pair int int))
        (bench_name ^ ": (rounds, replayed lanes)")
        (rounds, replayed)
        (steered.Sweep.surrogate_rounds, steered.Sweep.replayed_lanes))
    [ ("183.equake", 1, 19); ("470.lbm", 10, 64) ]

let test_full_budget_identity () =
  let p, trace = traced "429.mcf" in
  let plan = Pi_uarch.Replay.compile Machine.xeon_e5440 trace in
  let placement = Placement.make p ~seed:1 in
  let plain = Sweep.run_study ~plan ~benchmark:"429.mcf" trace placement in
  let steered =
    Sweep.run_study ~plan ~surrogate:(Sweep.Budget grid_n) ~benchmark:"429.mcf" trace placement
  in
  Alcotest.(check bool) "points bit-identical" true (plain.Sweep.points = steered.Sweep.points);
  Alcotest.(check bool)
    "regression bit-identical" true
    (plain.Sweep.regression = steered.Sweep.regression);
  Alcotest.(check int) "all lanes replayed" grid_n steered.Sweep.replayed_lanes;
  Alcotest.(check bool)
    "all tagged replayed" true
    (Array.for_all (fun s -> s = Sweep.Replayed) steered.Sweep.sources)

let test_steered_cache_axis () =
  let p, trace = traced "429.mcf" in
  let plan = Pi_uarch.Replay.compile Machine.xeon_e5440 trace in
  let placement = Placement.make p ~seed:1 in
  let full = Sweep.run_cache_study ~plan ~benchmark:"429.mcf" trace placement in
  let steered =
    Sweep.run_cache_study ~plan ~surrogate:(Sweep.Max_err 1.0) ~benchmark:"429.mcf" trace
      placement
  in
  Alcotest.(check bool)
    "pruned something" true
    (steered.Sweep.cache_replayed_lanes < Array.length full.Sweep.cache_points);
  (* The seed machine's lane is anchored: always replayed truth. *)
  Alcotest.(check bool)
    "seed lane replayed" true
    (steered.Sweep.seed_point = full.Sweep.seed_point);
  Array.iteri
    (fun i (pt : Sweep.cache_point) ->
      let f = full.Sweep.cache_points.(i) in
      match steered.Sweep.cache_sources.(i) with
      | Sweep.Replayed ->
          Alcotest.(check bool)
            (pt.Sweep.geometry_name ^ " bit-identical") true
            (pt.Sweep.cache_cpi = f.Sweep.cache_cpi)
      | Sweep.Predicted ->
          let err =
            Float.abs (pt.Sweep.cache_cpi -. f.Sweep.cache_cpi) /. f.Sweep.cache_cpi *. 100.0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s CPI within 1%% (got %.3f%%)" pt.Sweep.geometry_name err)
            true (err <= 1.0))
    steered.Sweep.cache_points

let suite =
  [
    ( "surrogate",
      [
        Alcotest.test_case "scaler round trip" `Quick test_scaler_roundtrip;
        Alcotest.test_case "ridge exact recovery" `Quick test_ridge_recovery;
        Alcotest.test_case "ridge condition guard" `Quick test_ridge_condition_guard;
        Alcotest.test_case "boosted stumps fit a step" `Quick test_boost_reduces_residual;
        Alcotest.test_case "fit/predict/uncertainty" `Quick test_fit_predict_uncertainty;
        Alcotest.test_case "sampling order deterministic" `Quick test_sampling_determinism;
        Alcotest.test_case "predictor features" `Quick test_predictor_features;
        Alcotest.test_case "steered study: 1% CPI bound (3 benches x 2 seeds)" `Slow
          test_steered_error_bound;
        Alcotest.test_case "full budget == plain fused study" `Quick test_full_budget_identity;
        Alcotest.test_case "steered cache axis: 1% CPI bound" `Slow test_steered_cache_axis;
        Alcotest.test_case "steered study: break-even rounds" `Quick test_steered_break_even;
      ] );
  ]
