(* Bit-identity of the surrogate and steering arithmetic.

   [Surrogate_oracle] keeps the kernels as they were before the sort-free,
   allocation-light rewrite; every output of the rewrite must equal them
   bit for bit (compared as hex floats, so -0.0 and NaN payloads count).
   The golden digests pin whole steered studies as computed before the
   rewrite, so any later drift in steering arithmetic fails loudly. *)

module S = Pi_stats.Surrogate
module O = Surrogate_oracle
module Sweep = Pi_uarch.Sweep
module Machine = Pi_uarch.Machine
module Placement = Pi_layout.Placement

let hex v = Printf.sprintf "%h" v
let hexes a = Array.to_list (Array.map hex a)

let grid_feats =
  Array.map (fun (name, _) -> S.predictor_features name) (Array.of_list (Sweep.configurations ()))

(* A deterministic target over the grid with a smooth trend, a capacity
   cliff and a family offset, plus hash-like jitter so no two rows tie. *)
let target i (f : float array) =
  (0.3 *. f.(6)) -. (0.05 *. f.(7)) +. (0.8 *. f.(0)) +. (0.4 *. f.(3))
  +. (if f.(6) > 12.0 then 0.5 else 0.0)
  +. (0.1 *. sin (float_of_int i *. 0.7))

(* [n] grid rows, space-filling as steering seeds them, in ascending
   grid order as steering trains on them. *)
let subset n =
  let rows = Array.sub (S.sample_order ~anchors:[ 0 ] grid_feats) 0 n in
  Array.sort compare rows;
  rows

let sizes = [ 2; 3; 4; 9; 17; 40; 145 ]

let test_fit_identity () =
  List.iter
    (fun n ->
      let rows = subset n in
      let xs = Array.map (fun i -> grid_feats.(i)) rows in
      let ys = Array.map (fun i -> target i grid_feats.(i)) rows in
      List.iter
        (fun folds ->
          let label what = Printf.sprintf "n=%d folds=%d: %s" n folds what in
          let t = S.fit ~folds xs ys and o = O.fit ~folds xs ys in
          Alcotest.(check (list string))
            (label "predictions")
            (hexes (Array.map (O.predict o) grid_feats))
            (hexes (Array.map (S.predict t) grid_feats));
          Alcotest.(check (list string))
            (label "uncertainties")
            (hexes (Array.map (O.uncertainty o) grid_feats))
            (hexes (Array.map (S.uncertainty t) grid_feats));
          Alcotest.(check (list string))
            (label "oof_residuals") (hexes (O.oof_residuals o)) (hexes (S.oof_residuals t));
          Alcotest.(check string) (label "oof_p90") (hex (O.oof_p90 o)) (hex (S.oof_p90 t)))
        [ 5; 16 ])
    sizes

let stump_text (s : S.stump) =
  Printf.sprintf "%d %h %h %h" s.S.feat s.S.thresh s.S.left s.S.right

let test_boost_identity () =
  List.iter
    (fun n ->
      let rows = subset n in
      (* A duplicated column ties every split gain with its twin: the
         lower feature index must win, as before. *)
      let xs = Array.map (fun i -> Array.append grid_feats.(i) [| grid_feats.(i).(6) |]) rows in
      let ys = Array.map (fun i -> target i grid_feats.(i)) rows in
      List.iter
        (fun rounds ->
          Alcotest.(check (list string))
            (Printf.sprintf "n=%d rounds=%d stumps" n rounds)
            (Array.to_list (Array.map stump_text (O.boost_fit ~rounds xs ys)))
            (Array.to_list (Array.map stump_text (S.boost_fit ~rounds xs ys))))
        [ 1; 24 ])
    sizes

let ridge_text (r : S.ridge) =
  String.concat " " (hexes r.S.weights) ^ Printf.sprintf " | %h %h" r.S.bias r.S.lambda_used

let test_ridge_identity () =
  (* Raw (unstandardized) grid features: wide value ranges and one-hot
     blocks that sum to the intercept. *)
  List.iter
    (fun n ->
      let rows = subset n in
      let xs = Array.map (fun i -> grid_feats.(i)) rows in
      let ys = Array.map (fun i -> target i grid_feats.(i)) rows in
      Alcotest.(check string)
        (Printf.sprintf "n=%d ridge" n)
        (ridge_text (O.ridge_fit xs ys))
        (ridge_text (S.ridge_fit xs ys)))
    sizes;
  (* The collinear case of the condition-guard test: escalation must land
     on the same lambda and the same weights. *)
  let xs = Array.init 12 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  let ys = Array.map (fun x -> 1.0 +. x.(0) +. x.(1)) xs in
  let o = O.ridge_fit ~lambda:1e-12 xs ys and r = S.ridge_fit ~lambda:1e-12 xs ys in
  Alcotest.(check bool) "collinear: lambda escalated" true (r.S.lambda_used > 1e-12);
  Alcotest.(check string) "collinear ridge" (ridge_text o) (ridge_text r)

let test_empty_inputs () =
  Alcotest.check_raises "ridge_fit on empty input" (Invalid_argument "Surrogate.ridge_fit: empty")
    (fun () -> ignore (S.ridge_fit [||] [||]));
  Alcotest.check_raises "boost_fit on empty input"
    (Invalid_argument "Surrogate.boost_fit: bad input") (fun () -> ignore (S.boost_fit [||] [||]))

let test_nearest_identity () =
  let sc = S.scaler_fit grid_feats in
  let zs = Array.map (S.scaler_transform sc) grid_feats in
  List.iter
    (fun n ->
      let ks = subset n in
      List.iter
        (fun k ->
          let dist = Array.make k 0.0 and idx = Array.make k 0 in
          Array.iteri
            (fun i z ->
              let got = S.nearest zs ks z ~dist ~idx in
              let want = O.nearest ~k zs ks z in
              Alcotest.(check (list string))
                (Printf.sprintf "n=%d k=%d query %d" n k i)
                (List.map (fun (d, j) -> Printf.sprintf "%h %d" d j) want)
                (List.init got (fun q -> Printf.sprintf "%h %d" dist.(q) idx.(q))))
            zs)
        [ 1; 4 ])
    sizes

(* ------------------------------------------------------------------ *)
(* Golden steered digests: MD5 of the hex-printed points, sources, rounds
   and holdout errors of steered studies, pinned from the kernels above
   before the rewrite (scale 1, 8000-block traces, placement seed 1, the
   Xeon machine). *)

let traced name =
  let bench = Pi_workloads.Spec.find name in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  (p, Pi_layout.Run_limiter.trace p ~budget_blocks:8_000)

let source_char = function Sweep.Replayed -> 'R' | Sweep.Predicted -> 'P'

let predictor_digest (s : Sweep.study) =
  let b = Buffer.create 8192 in
  Array.iteri
    (fun i (p : Sweep.point) ->
      Printf.bprintf b "%s %h %h %c\n" p.Sweep.config_name p.Sweep.mpki p.Sweep.cpi
        (source_char s.Sweep.sources.(i)))
    s.Sweep.points;
  Printf.bprintf b "rounds %d replayed %d max %h mean %h\n" s.Sweep.surrogate_rounds
    s.Sweep.replayed_lanes s.Sweep.surrogate_max_abs_err s.Sweep.surrogate_mean_abs_err;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cache_digest (s : Sweep.cache_study) =
  let b = Buffer.create 8192 in
  Array.iteri
    (fun i (p : Sweep.cache_point) ->
      Printf.bprintf b "%s %h %h %h %c\n" p.Sweep.geometry_name p.Sweep.l1i_mpki p.Sweep.l2_mpki
        p.Sweep.cache_cpi (source_char s.Sweep.cache_sources.(i)))
    s.Sweep.cache_points;
  Printf.bprintf b "rounds %d replayed %d max %h mean %h\n" s.Sweep.cache_surrogate_rounds
    s.Sweep.cache_replayed_lanes s.Sweep.cache_surrogate_max_abs_err
    s.Sweep.cache_surrogate_mean_abs_err;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (bench, steering, predictor digest, cache digest). 400.perlbench's
   [Max_err] pair was re-pinned when steering gained its break-even rule
   (a round that teaches nothing doubles the next one): that rule changes
   which of its lanes are replayed, and every newly replayed lane equals
   the full fused study bit for bit. *)
let golden =
  [
    ( "400.perlbench",
      Sweep.Max_err 1.0,
      "88c3d58dd759a8ad8ad2405863016c60",
      "b28abaa9fc126d704c1a3dc9f5d559e8" );
    ( "400.perlbench",
      Sweep.Budget 30,
      "02b2218b872fe07a71b75d5dd6013a27",
      "8a0e2ecf4affd45d64aa40c530ca34c0" );
    ( "183.equake",
      Sweep.Max_err 1.0,
      "67c8eb62ad11455a60e9a6a9008b6f5b",
      "f50442d6c20c14ac51c9e1c06ce7f5aa" );
    ( "183.equake",
      Sweep.Budget 30,
      "6b60d39c7b99f4c6a55c31937ac27968",
      "5427750d7b3a4daaadaa7bf388187855" );
  ]

let test_golden_digests () =
  List.iter
    (fun (bench, steering, want_pred, want_cache) ->
      let p, trace = traced bench in
      let plan = Pi_uarch.Replay.compile Machine.xeon_e5440 trace in
      let placement = Placement.make p ~seed:1 in
      let label =
        Printf.sprintf "%s %s" bench
          (match steering with
          | Sweep.Max_err e -> Printf.sprintf "max-err %g" e
          | Sweep.Budget b -> Printf.sprintf "budget %d" b)
      in
      Alcotest.(check string) (label ^ " predictor axis") want_pred
        (predictor_digest (Sweep.run_study ~plan ~surrogate:steering ~benchmark:bench trace placement));
      Alcotest.(check string) (label ^ " cache axis") want_cache
        (cache_digest
           (Sweep.run_cache_study ~plan ~surrogate:steering ~benchmark:bench trace placement)))
    golden

let suite =
  [
    ( "surrogate.identity",
      [
        Alcotest.test_case "fit == oracle (n x folds, hex)" `Quick test_fit_identity;
        Alcotest.test_case "boost_fit == oracle stumps" `Quick test_boost_identity;
        Alcotest.test_case "ridge_fit == oracle, escalation included" `Quick test_ridge_identity;
        Alcotest.test_case "empty input raises Invalid_argument" `Quick test_empty_inputs;
        Alcotest.test_case "nearest == oracle list sort" `Quick test_nearest_identity;
        Alcotest.test_case "golden steered study digests" `Quick test_golden_digests;
      ] );
  ]
