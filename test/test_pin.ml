(* Tests for the Pin-style branch-predictor tool, including the
   cross-validation against the timing pipeline: both walk the same dynamic
   branch stream at the same addresses, so a given predictor must score
   identical misprediction counts in both. *)

module Bp_sim = Pi_pin.Bp_sim
module Pipeline = Pi_uarch.Pipeline
module Machine = Pi_uarch.Machine
module Placement = Pi_layout.Placement

let prepared_example () =
  let bench = Pi_workloads.Spec.find "400.perlbench" in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  let trace = Pi_layout.Run_limiter.trace p ~budget_blocks:12_000 in
  (p, trace)

let test_pin_deterministic () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:4).Placement.code in
  let run () = Bp_sim.run trace code [ Pi_uarch.Hybrid.xeon_like ] in
  match (run (), run ()) with
  | [ a ], [ b ] ->
      Alcotest.(check int) "zero variance across runs" a.Bp_sim.mispredicted b.Bp_sim.mispredicted
  | _ -> Alcotest.fail "expected single results"

let test_pin_perfect_predictor () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:4).Placement.code in
  match Bp_sim.run trace code [ Pi_uarch.Perfect.perfect ] with
  | [ r ] ->
      Alcotest.(check int) "no mispredicts" 0 r.Bp_sim.mispredicted;
      Alcotest.(check bool) "counted branches" true (r.Bp_sim.branches > 100)
  | _ -> Alcotest.fail "expected one result"

let test_pin_multiple_predictors_one_pass () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:4).Placement.code in
  let results =
    Bp_sim.run trace code
      [
        (fun () -> Pi_uarch.Bimodal.create ~entries_log2:12);
        Pi_uarch.Hybrid.xeon_like;
        Pi_uarch.Perfect.perfect;
      ]
  in
  Alcotest.(check int) "three results" 3 (List.length results);
  let branches = List.map (fun r -> r.Bp_sim.branches) results in
  Alcotest.(check bool) "same stream for all" true
    (List.for_all (fun b -> b = List.hd branches) branches)

let test_pin_matches_pipeline () =
  (* The decisive consistency check: the pipeline's conditional-mispredict
     count and the Pin tool's count must agree exactly for the same
     predictor, trace and code layout (warmup 0, wrong-path effects do not
     influence direction prediction). *)
  let p, trace = prepared_example () in
  let placement = Placement.make p ~seed:9 in
  let pipeline_counts =
    Pipeline.run
      (Machine.with_predictor Machine.xeon_e5440 ~name:"x" Pi_uarch.Hybrid.xeon_like)
      trace placement
  in
  match Bp_sim.run trace placement.Placement.code [ Pi_uarch.Hybrid.xeon_like ] with
  | [ pin ] ->
      Alcotest.(check int) "identical mispredict counts"
        pipeline_counts.Pipeline.cond_mispredicts pin.Bp_sim.mispredicted
  | _ -> Alcotest.fail "expected one result"

let test_pin_layout_sensitivity () =
  let p, trace = prepared_example () in
  let mpki seed =
    let code = (Placement.make p ~seed).Placement.code in
    match Bp_sim.run trace code [ Pi_uarch.Hybrid.xeon_like ] with
    | [ r ] -> r.Bp_sim.mpki
    | _ -> assert false
  in
  let values = List.init 6 (fun i -> mpki (i + 1)) in
  let distinct = List.sort_uniq compare values in
  Alcotest.(check bool) "layout changes the MPKI" true (List.length distinct > 1)

let test_pin_warmup_reduces_counts () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:2).Placement.code in
  let full =
    match Bp_sim.run trace code [ Pi_uarch.Hybrid.xeon_like ] with
    | [ r ] -> r
    | _ -> assert false
  in
  let warm =
    match Bp_sim.run ~warmup_branches:2_000 trace code [ Pi_uarch.Hybrid.xeon_like ] with
    | [ r ] -> r
    | _ -> assert false
  in
  Alcotest.(check int) "branches reduced by warmup" (full.Bp_sim.branches - 2_000)
    warm.Bp_sim.branches

let test_per_branch_totals () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:3).Placement.code in
  let per = Bp_sim.per_branch_mispredicts trace code Pi_uarch.Hybrid.xeon_like in
  let total_exec = Array.fold_left (fun acc (e, _) -> acc + e) 0 per in
  let total_misp = Array.fold_left (fun acc (_, m) -> acc + m) 0 per in
  let summary =
    match Bp_sim.run trace code [ Pi_uarch.Hybrid.xeon_like ] with
    | [ r ] -> r
    | _ -> assert false
  in
  Alcotest.(check int) "executions sum" summary.Bp_sim.branches total_exec;
  Alcotest.(check int) "mispredicts sum" summary.Bp_sim.mispredicted total_misp;
  Array.iter
    (fun (e, m) -> Alcotest.(check bool) "mispredicts <= executions" true (m <= e))
    per

let predictors_under_test =
  [
    (fun () -> Pi_uarch.Bimodal.create ~entries_log2:12);
    (fun () -> Pi_uarch.Gshare.create ~entries_log2:12 ~history_bits:8);
    Pi_uarch.Hybrid.xeon_like;
  ]

let results_equal (a : Bp_sim.result list) (b : Bp_sim.result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Bp_sim.result) (y : Bp_sim.result) ->
         x.Bp_sim.predictor_name = y.Bp_sim.predictor_name
         && x.Bp_sim.branches = y.Bp_sim.branches
         && x.Bp_sim.mispredicted = y.Bp_sim.mispredicted
         && x.Bp_sim.instructions = y.Bp_sim.instructions
         && x.Bp_sim.mpki = y.Bp_sim.mpki)
       a b

let test_precompiled_stream_equivalence () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:6).Placement.code in
  let stream = Bp_sim.compile_stream trace in
  Alcotest.(check bool) "stream non-empty" true (Bp_sim.stream_length stream > 100);
  Alcotest.(check bool) "stream = per-call compile" true
    (results_equal
       (Bp_sim.run ~stream trace code predictors_under_test)
       (Bp_sim.run trace code predictors_under_test));
  (* Warmup must be applied at the same stream offsets either way. *)
  Alcotest.(check bool) "with warmup too" true
    (results_equal
       (Bp_sim.run ~warmup_branches:1_000 ~stream trace code predictors_under_test)
       (Bp_sim.run ~warmup_branches:1_000 trace code predictors_under_test))

let test_per_branch_stream_equivalence () =
  let p, trace = prepared_example () in
  let code = (Placement.make p ~seed:3).Placement.code in
  let stream = Bp_sim.compile_stream trace in
  Alcotest.(check bool) "per-branch profile unchanged by stream reuse" true
    (Bp_sim.per_branch_mispredicts ~stream trace code Pi_uarch.Hybrid.xeon_like
    = Bp_sim.per_branch_mispredicts trace code Pi_uarch.Hybrid.xeon_like)

let suite =
  [
    ( "pin.bp_sim",
      [
        Alcotest.test_case "deterministic" `Quick test_pin_deterministic;
        Alcotest.test_case "perfect predictor" `Quick test_pin_perfect_predictor;
        Alcotest.test_case "multi-predictor single pass" `Quick test_pin_multiple_predictors_one_pass;
        Alcotest.test_case "matches pipeline counts" `Quick test_pin_matches_pipeline;
        Alcotest.test_case "layout sensitivity" `Quick test_pin_layout_sensitivity;
        Alcotest.test_case "warmup window" `Quick test_pin_warmup_reduces_counts;
        Alcotest.test_case "per-branch totals" `Quick test_per_branch_totals;
        Alcotest.test_case "precompiled stream equivalence" `Quick
          test_precompiled_stream_equivalence;
        Alcotest.test_case "per-branch stream equivalence" `Quick
          test_per_branch_stream_equivalence;
      ] );
  ]
