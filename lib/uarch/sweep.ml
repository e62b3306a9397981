let build_configurations () =
  let configs = ref [] in
  let add name make = configs := (name, make) :: !configs in
  (* Bimodal: 9 sizes. *)
  List.iter
    (fun el -> add (Printf.sprintf "bimodal-%d" el) (fun () -> Bimodal.create ~entries_log2:el))
    [ 8; 9; 10; 11; 12; 13; 14; 15; 16 ];
  (* Gshare: sizes x even history lengths. *)
  List.iter
    (fun el ->
      List.iter
        (fun h ->
          if h <= el then
            add
              (Printf.sprintf "gshare-%d/%d" el h)
              (fun () -> Gshare.create ~entries_log2:el ~history_bits:h))
        [ 4; 6; 8; 10; 12 ])
    [ 10; 11; 12; 13; 14; 15; 16 ];
  (* Gshare: odd history lengths on a sparser size grid. *)
  List.iter
    (fun el ->
      List.iter
        (fun h ->
          if h <= el then
            add
              (Printf.sprintf "gshare-%d/%d" el h)
              (fun () -> Gshare.create ~entries_log2:el ~history_bits:h))
        [ 3; 5; 7; 9; 11; 13 ])
    [ 10; 12; 14; 16 ];
  (* GAs: sizes x even history lengths. *)
  List.iter
    (fun el ->
      List.iter
        (fun h ->
          if h < el then
            add
              (Printf.sprintf "gas-%d/%d" el h)
              (fun () -> Gas.create ~entries_log2:el ~history_bits:h))
        [ 2; 4; 6; 8; 10; 12 ])
    [ 10; 11; 12; 13; 14; 15; 16 ];
  (* GAs: odd history lengths on a sparser grid. *)
  List.iter
    (fun el ->
      List.iter
        (fun h ->
          if h < el then
            add
              (Printf.sprintf "gas-%d/%d" el h)
              (fun () -> Gas.create ~entries_log2:el ~history_bits:h))
        [ 3; 5; 7; 9; 11 ])
    [ 10; 12; 14; 16 ];
  (* Hybrids. *)
  List.iter
    (fun el ->
      List.iter
        (fun h ->
          if h < el then
            add
              (Printf.sprintf "hybrid-%d/%d" el h)
              (fun () ->
                Hybrid.create ~gas_entries_log2:el ~gas_history_bits:h
                  ~bimodal_entries_log2:(el - 1) ~chooser_entries_log2:(el - 1) ()))
        [ 6; 8; 10 ])
    [ 11; 12; 13; 14; 15; 16 ];
  (* Static predictors: the low end of the accuracy range. *)
  add "static-taken" Perfect.always_taken;
  add "static-not-taken" Perfect.always_not_taken;
  (* Fill to exactly 145 with corner-case geometries off the grids above. *)
  add "gshare-13/13" (fun () -> Gshare.create ~entries_log2:13 ~history_bits:13);
  add "gshare-11/11" (fun () -> Gshare.create ~entries_log2:11 ~history_bits:11);
  add "gas-11/9" (fun () -> Gas.create ~entries_log2:11 ~history_bits:9);
  add "gas-13/11" (fun () -> Gas.create ~entries_log2:13 ~history_bits:11);
  add "hybrid-16/12" (fun () ->
      Hybrid.create ~gas_entries_log2:16 ~gas_history_bits:12 ~bimodal_entries_log2:15
        ~chooser_entries_log2:15 ());
  let all = List.rev !configs in
  let count = List.length all in
  if count <> 145 then
    invalid_arg
      (Printf.sprintf
         "Sweep.configurations: the grid defines %d configurations, expected 145 (the paper's \
          Section 3 sweep); adjust the grid or the expected count together"
         count);
  all

(* The grid is immutable and each entry's [make] is a pure constructor, so
   one shared list serves every study (and every domain — it is forced once,
   before any shard workers start). *)
let configurations_memo = lazy (build_configurations ())
let configurations () = Lazy.force configurations_memo

(* The fused batch over the memoized grid is itself memoized: its packed
   table image and lane metadata depend only on [configurations ()], and
   [Replay.run_many] copies the table image per pass, so one batch serves
   every study. It stays lazy, forced by a study's first fused replay.
   Steering rounds and shards replay selections of it ([Replay.select]),
   which copy their lanes' tables from its image; every pass borrows the
   domain's pooled scratch, whose split-set strips stay allocated across
   studies. *)
let grid_batch_memo = lazy (Replay.batch_of (Array.of_list (configurations ())))

type point = { config_name : string; mpki : float; cpi : float }
type source = Replayed | Predicted
type steering = Budget of int | Max_err of float

type study = {
  benchmark : string;
  points : point array;
  perfect_cpi : float;
  ltage_point : point;
  regression : Pi_stats.Linreg.t;
  predicted_perfect_cpi : float;
  perfect_error_percent : float;
  predicted_ltage_cpi : float;
  ltage_error_percent : float;
  warmup_blocks : int;
  fused_lanes : int;
  fallback_lanes : int;
  shards : int;
  sources : source array;
  replayed_lanes : int;
  surrogate_rounds : int;
  surrogate_max_abs_err : float;
  surrogate_mean_abs_err : float;
  grid_seconds : float;
  model_seconds : float;
  lane_seconds : float;
}

type shard_map = (int -> Pipeline.counts array) -> int -> Pipeline.counts array array

(* ------------------------------------------------------------------ *)
(* Surrogate steering: replay a deterministic space-filling seed, fit one
   model per target metric, then iteratively replay only the lanes where
   the model is still uncertain. Axis-agnostic — both grids reduce to
   (feature vector, replay-a-subset) pairs. *)

let m_surrogate_fits =
  Pi_obs.Metrics.counter ~help:"surrogate model fits during steered sweeps"
    "pi_obs_surrogate_fits_total"

let m_surrogate_pruned =
  Pi_obs.Metrics.counter ~help:"grid lanes answered by the surrogate instead of a replay"
    "pi_obs_surrogate_replays_pruned_total"

let m_surrogate_max_err =
  Pi_obs.Metrics.gauge
    ~help:"max abs CPI error (percent) vs replayed holdouts in the last steered sweep"
    "pi_obs_surrogate_max_abs_err"

(* Targets are fit in log space so the model's absolute uncertainty reads
   directly as a relative bound on the linear-space value — the units of
   [Max_err] (after /100). *)
let log_eps = 1e-6
let to_log v = log (v +. log_eps)
let of_log v = Float.max 0.0 (exp v -. log_eps)

type steered = {
  st_values : float array array;  (* n x targets, linear space *)
  st_sources : source array;
  st_replayed : int;
  st_rounds : int;
  st_max_err : float;  (* percent, CPI target, over replayed holdouts *)
  st_mean_err : float;
}

(* [replay idxs] replays the given (ascending) config indices and returns
   [(index, target values)] for each; [steer] never asks for an index
   twice. [cpi_target] names the CPI column; every other target is a
   miss-rate regressor of the linear CPI map below.

   The model is two-stage, mirroring the paper's thesis that CPI is linear
   in a handful of miss rates: one log-space surrogate per miss-rate
   target, a linear CPI-on-miss-rates map over the replayed lanes, and a
   surrogate on that map's residual. Predictions add an inverse-distance
   correction from the residuals at the nearest replayed lanes, so the
   model interpolates the truth it has already paid for.

   Uncertainty is built from *held-out* fold residuals
   ({!Pi_stats.Surrogate.oof_residuals}) — the in-sample residuals of a
   ridge fit with more features than points are near zero even when the
   model is wrong between samples — combined as: local held-out error of
   the nearest replayed lanes, plus the local residual gradient times the
   distance to the nearest replayed lane, floored by the global held-out
   spread saturating with that distance. Miss-rate uncertainties convert
   to absolute units against the largest nearby truth (an underpredicted
   miss rate must not shrink its own error bar) and propagate through the
   linear map's coefficients. *)

(* Constants validated against full-grid truth on a 10-benchmark panel:
   [safety]/[floor_c] trade pruning for bound validity; [knn] is the
   correction neighborhood; [chunk] lanes replay in a round so the fused
   selections stay worth a pass of their own, doubling under [Max_err]
   whenever a refit certifies no lane it did not replay (the break-even
   rule: the model is not learning, so rounds stop paying a pass and a
   refit per 5 lanes). *)
let steer_safety = 1.5
let steer_floor_c = 1.0
let steer_knn = 4
let steer_chunk = 5

let steer ~steering ~feats ~anchors ~n_targets ~cpi_target ~replay n =
  let module S = Pi_stats.Surrogate in
  let order = S.sample_order ~anchors feats in
  let sc = S.scaler_fit feats in
  let zs = Array.map (S.scaler_transform sc) feats in
  let dist2 a b =
    let d = ref 0.0 in
    for j = 0 to Array.length a - 1 do
      let dd = a.(j) -. b.(j) in
      d := !d +. (dd *. dd)
    done;
    !d
  in
  let values = Array.make n [||] in
  let replayed = Array.make n false in
  let replayed_count = ref 0 in
  let do_replay idxs =
    let idxs = Array.copy idxs in
    Array.sort compare idxs;
    List.iter
      (fun (i, v) ->
        values.(i) <- v;
        if not replayed.(i) then begin
          replayed.(i) <- true;
          incr replayed_count
        end)
      (replay idxs)
  in
  (* The model needs two points to exist at all, so even [Budget 1] seeds
     with two replays. *)
  let budget = match steering with Budget b -> max 2 (min b n) | Max_err _ -> n in
  let tol = match steering with Max_err e -> e /. 100.0 | Budget _ -> 0.0 in
  let seed_n = min budget (max (min n 8) (n / 10)) in
  do_replay (Array.sub order 0 seed_n);
  let known () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if replayed.(i) then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  let miss_targets =
    Array.of_list (List.filter (fun t -> t <> cpi_target) (List.init n_targets Fun.id))
  in
  (* One full model build over the replayed lanes; returns
     [(predict, uncertainty)] over grid indices. *)
  let build () =
    let ks = known () in
    let nrep = Array.length ks in
    let xs = Array.map (fun i -> feats.(i)) ks in
    let folds = min nrep 16 in
    Pi_obs.Metrics.inc m_surrogate_fits;
    (* Stage 1: log-space surrogate per miss-rate target. *)
    let t_miss =
      Array.map
        (fun t -> S.fit ~folds xs (Array.map (fun i -> to_log values.(i).(t)) ks))
        miss_targets
    in
    (* Stage 2: linear CPI map over the replayed miss rates. *)
    let miss_row i = Array.map (fun t -> values.(i).(t)) miss_targets in
    let cpi_of i = values.(i).(cpi_target) in
    let map_coefs, map_predict =
      let rows = Array.map miss_row ks in
      let cpis = Array.map cpi_of ks in
      match Array.length miss_targets with
      | 1 -> (
          match Pi_stats.Linreg.fit (Array.map (fun r -> r.(0)) rows) cpis with
          | lr -> ([| lr.Pi_stats.Linreg.slope |], fun r -> Pi_stats.Linreg.predict lr r.(0))
          | exception _ ->
              let m = Array.fold_left ( +. ) 0.0 cpis /. float_of_int (max 1 nrep) in
              ([| 0.0 |], fun _ -> m))
      | _ -> (
          match Pi_stats.Multireg.fit rows cpis with
          | mr -> (mr.Pi_stats.Multireg.coefficients, Pi_stats.Multireg.predict mr)
          | exception _ ->
              let m = Array.fold_left ( +. ) 0.0 cpis /. float_of_int (max 1 nrep) in
              (Array.map (fun _ -> 0.0) miss_targets, fun _ -> m))
    in
    (* Stage 3: surrogate on the map's residual. *)
    let resid_c i = cpi_of i -. map_predict (miss_row i) in
    let t_res = S.fit ~folds xs (Array.map resid_c ks) in
    (* In-sample residuals drive the inverse-distance correction; held-out
       residuals drive the uncertainty. Indexed by grid index; lanes never
       replayed read 0. *)
    let n_miss = Array.length miss_targets in
    let ins_m = Array.init n_miss (fun _ -> Array.make n 0.0) in
    let ins_r = Array.make n 0.0 in
    let oof_m = Array.init n_miss (fun _ -> Array.make n 0.0) in
    let oof_r = Array.make n 0.0 in
    let oof_miss = Array.map S.oof_residuals t_miss in
    let oof_res = S.oof_residuals t_res in
    Array.iteri
      (fun row i ->
        for m = 0 to n_miss - 1 do
          ins_m.(m).(i) <- to_log values.(i).(miss_targets.(m)) -. S.predict t_miss.(m) feats.(i);
          oof_m.(m).(i) <- (if Array.length oof_miss.(m) > row then oof_miss.(m).(row) else 0.0)
        done;
        ins_r.(i) <- resid_c i -. S.predict t_res feats.(i);
        oof_r.(i) <- (if Array.length oof_res > row then oof_res.(row) else 0.0))
      ks;
    let std_of tbl =
      let vs = Array.map (fun i -> tbl.(i)) ks in
      let mu = Array.fold_left ( +. ) 0.0 vs /. float_of_int (max 1 nrep) in
      sqrt
        (Array.fold_left (fun a v -> a +. ((v -. mu) *. (v -. mu))) 0.0 vs
        /. float_of_int (max 1 nrep))
    in
    let p90_of tbl =
      let vs = Array.map (fun i -> Float.abs tbl.(i)) ks in
      Array.sort compare vs;
      if nrep = 0 then 0.0 else vs.(min (nrep - 1) (int_of_float (0.9 *. float_of_int (nrep - 1))))
    in
    let gstd_m = Array.map std_of oof_m and p90_m = Array.map p90_of oof_m in
    let gstd_r = std_of oof_r and p90_r = p90_of oof_r in
    (* The [near] nearest replayed lanes of the lane being predicted, in
       ascending (squared distance, index) order; every prediction refills
       these two buffers. *)
    let near_d2 = Array.make steer_knn 0.0 and near_j = Array.make steer_knn 0 in
    let idw near tbl =
      let ws = ref 0.0 and cs = ref 0.0 in
      for q = 0 to near - 1 do
        let w = 1.0 /. (near_d2.(q) +. 1e-2) in
        ws := !ws +. w;
        cs := !cs +. (w *. tbl.(near_j.(q)))
      done;
      if !ws > 0.0 then !cs /. !ws else 0.0
    in
    let local_grad near tbl =
      let g = ref 0.0 in
      for qa = 0 to near - 1 do
        let a = near_j.(qa) in
        for qb = 0 to near - 1 do
          let b = near_j.(qb) in
          if a < b then begin
            let d = sqrt (dist2 zs.(a) zs.(b)) in
            if d > 1e-9 then g := Float.max !g (Float.abs (tbl.(a) -. tbl.(b)) /. d)
          end
        done
      done;
      !g
    in
    let local_abs_max near tbl =
      let a = ref 0.0 in
      for q = 0 to min 3 near - 1 do
        a := Float.max !a (Float.abs tbl.(near_j.(q)))
      done;
      !a
    in
    let predict i =
      if replayed.(i) then (Array.copy values.(i), 0.0)
      else begin
        let near = S.nearest zs ks zs.(i) ~dist:near_d2 ~idx:near_j in
        let dnear = if near > 0 then sqrt near_d2.(0) else infinity in
        let floor_sat = Float.min 1.0 (dnear /. 1.5) in
        let out = Array.make n_targets 0.0 in
        let unc_sum = ref 0.0 in
        let miss_pred = Array.make (Array.length miss_targets) 0.0 in
        Array.iteri
          (fun m t ->
            let mp = of_log (S.predict t_miss.(m) feats.(i) +. idw near ins_m.(m)) in
            miss_pred.(m) <- mp;
            out.(t) <- mp;
            let unc_log =
              Float.max
                (steer_floor_c *. Float.max gstd_m.(m) p90_m.(m) *. floor_sat)
                ((local_grad near oof_m.(m) *. dnear *. 0.5) +. local_abs_max near oof_m.(m))
            in
            let scale = ref mp in
            for q = 0 to min 2 near - 1 do
              scale := Float.max !scale values.(near_j.(q)).(t)
            done;
            let unc_abs = !scale *. (exp (Float.min unc_log 2.0) -. 1.0) in
            unc_sum := !unc_sum +. (Float.abs map_coefs.(m) *. unc_abs))
          miss_targets;
        let cp =
          Float.max 0.0 (map_predict miss_pred +. S.predict t_res feats.(i) +. idw near ins_r)
        in
        out.(cpi_target) <- cp;
        let unc_r =
          Float.max
            (steer_floor_c *. Float.max gstd_r p90_r *. floor_sat)
            ((local_grad near oof_r *. dnear *. 0.5) +. local_abs_max near oof_r)
        in
        let unc = steer_safety *. (!unc_sum +. unc_r) /. Float.max 1e-9 cp in
        (out, unc)
      end
    in
    predict
  in
  let rounds = ref 0 in
  let err_sum = ref 0.0 and err_max = ref 0.0 and err_n = ref 0 in
  let finished = ref false in
  let predict = ref (build ()) in
  let chunk = ref steer_chunk and prev_above = ref None in
  while (not !finished) && !replayed_count < budget && !rounds < 64 do
    (* Every unreplayed lane scored once; a chosen lane's prediction is
       its holdout record. *)
    let scored =
      Array.of_seq
        (Seq.filter_map
           (fun i ->
             if replayed.(i) then None
             else
               let v, unc = !predict i in
               Some (i, v.(cpi_target), unc))
           (Seq.init n Fun.id))
    in
    (* Descending uncertainty, ties to the lowest index — deterministic. *)
    Array.sort (fun (i, _, u) (j, _, v) -> if v <> u then compare v u else compare i j) scored;
    (* The lanes above tolerance lead the order. *)
    let above = ref 0 in
    while !above < Array.length scored && (let _, _, u = scored.(!above) in u > tol) do
      incr above
    done;
    let above = !above in
    (* Break-even: when the count above tolerance fell by no more than the
       last round's chunk, the refit learned nothing beyond its own lanes,
       so this round is twice as large. A budget keeps its fixed rounds. *)
    (match (steering, !prev_above) with
    | Max_err _, Some prev when prev - above <= !chunk -> chunk := 2 * !chunk
    | _ -> ());
    prev_above := Some above;
    let cap = min (min !chunk (budget - !replayed_count)) (Array.length scored) in
    let chosen =
      match steering with
      | Budget _ -> Array.sub scored 0 cap
      | Max_err _ ->
          if above > 0 then Array.sub scored 0 (min cap above)
          else if !rounds = 0 then
            (* Nothing exceeds the tolerance on the seed fit alone: replay a
               small validation batch anyway, so the reported holdout error
               is measured rather than assumed. *)
            Array.sub scored 0 (min 3 cap)
          else [||]
    in
    if Array.length chosen = 0 then finished := true
    else begin
      do_replay (Array.map (fun (i, _, _) -> i) chosen);
      (* Holdout validation: predictions recorded before the replay
         revealed the truth, exactly what a trusted predicted point would
         have said. *)
      Array.iter
        (fun (i, pred, _) ->
          let actual = values.(i).(cpi_target) in
          if actual > 0.0 then begin
            let e = Float.abs (pred -. actual) /. actual *. 100.0 in
            err_sum := !err_sum +. e;
            err_max := Float.max !err_max e;
            incr err_n
          end)
        chosen;
      incr rounds;
      predict := build ()
    end
  done;
  let final = !predict in
  for i = 0 to n - 1 do
    if not replayed.(i) then values.(i) <- fst (final i)
  done;
  Pi_obs.Metrics.add m_surrogate_pruned (n - !replayed_count);
  Pi_obs.Metrics.set m_surrogate_max_err !err_max;
  {
    st_values = values;
    st_sources = Array.init n (fun i -> if replayed.(i) then Replayed else Predicted);
    st_replayed = !replayed_count;
    st_rounds = !rounds;
    st_max_err = !err_max;
    st_mean_err = (if !err_n = 0 then 0.0 else !err_sum /. float_of_int !err_n);
  }

(* A study's sequential replay of one configuration, and its fused replay
   of a batch. No sweep axis varies the L1D or the prefetcher, so the data
   side is simulated at most once per study, not once per lane, pass or
   selection (and not at all when the plan already holds one for this
   placement); swapping the predictor or the cache geometries never
   invalidates the compiled arrays, so the rebind is free and one compile
   serves the whole study. *)
let study_replay ~base plan ~warmup_blocks trace placement =
  let plan = match plan with Some p -> p | None -> Replay.compile base trace in
  let data_side = Replay.data_side plan placement.Pi_layout.Placement.data in
  ( (fun config ->
      Replay.run ~warmup_blocks ~data_side (Replay.with_config plan config) placement),
    fun batch -> Replay.run_many ~warmup_blocks ~data_side plan batch placement )

(* A study's grid values ([st_values], grid order), however obtained. *)
type lanes = {
  steered : steered;
  fused_n : int;
  fallback_n : int;
  shards_n : int;
  replay_s : float;  (* wall seconds replaying *)
  model_s : float;  (* steering wall seconds outside replay *)
}

(* The one lane driver of both axes. [simulate i] replays grid point [i]
   sequentially, [targets] reads a replay's target values and [batch]
   packs the whole grid. A replay of points [idxs] — the whole grid once
   when unsteered, each of [steer]'s requests when steered — selects their
   lanes from [batch], runs the selection's shards through [map_shards],
   merges lanes by caller index (independent of shard execution order) and
   replays the selection's fallback lanes sequentially; [fused:false]
   replays every point sequentially. A budget covering the whole grid IS
   the unsteered path, so it shortcuts to it, bit-identically by
   construction. [space ()] gives the steering features and anchors. *)
let drive ~simulate ~run_many ~targets ~batch ~shards ?map_shards ~fused ~space ~n_targets
    ~cpi_target steering n =
  let t_start = Pi_obs.Clock.now () in
  let seconds = ref 0.0 in
  let fused_n = ref 0 and fallback_n = ref 0 and shards_n = ref 0 in
  let replay idxs =
    let t0 = Pi_obs.Clock.now () in
    let out = ref [] in
    let emit i c = out := (i, targets c) :: !out in
    if not fused then begin
      Array.iter (fun i -> emit i (simulate i)) idxs;
      fallback_n := !fallback_n + Array.length idxs
    end
    else begin
      let batch = Replay.select (Lazy.force batch) idxs in
      let sub = Replay.shard batch ~shards in
      let n_shards = Array.length sub in
      shards_n := max !shards_n n_shards;
      let run_shard s = run_many sub.(s) in
      let shard_counts =
        match map_shards with
        | Some m when n_shards > 1 -> m run_shard n_shards
        | _ -> Array.init n_shards run_shard
      in
      Array.iteri
        (fun s counts -> Array.iteri (fun j c -> emit (Replay.batch_src sub.(s)).(j) c) counts)
        shard_counts;
      let fallback = Replay.batch_fallback batch in
      Array.iter (fun i -> emit i (simulate i)) fallback;
      fused_n := !fused_n + Replay.batch_lanes batch;
      fallback_n := !fallback_n + Array.length fallback
    end;
    seconds := !seconds +. (Pi_obs.Clock.now () -. t0);
    !out
  in
  let all () =
    let values = Array.make n [||] in
    List.iter (fun (i, v) -> values.(i) <- v) (replay (Array.init n Fun.id));
    ( { st_values = values; st_sources = Array.make n Replayed; st_replayed = n; st_rounds = 0;
        st_max_err = 0.0; st_mean_err = 0.0 },
      0.0 )
  in
  let steered, model_s =
    match steering with
    | Some (Budget b) when b >= n -> all ()
    | None -> all ()
    | Some steering ->
        let feats, anchors = space () in
        let st = steer ~steering ~feats ~anchors ~n_targets ~cpi_target ~replay n in
        (st, Pi_obs.Clock.now () -. t_start -. !seconds)
  in
  { steered; fused_n = !fused_n; fallback_n = !fallback_n; shards_n = !shards_n;
    replay_s = !seconds; model_s }

let grid_of points l = (points, l.fused_n, l.fallback_n, l.shards_n, l.replay_s)

(* The predictor axis: the 145-configuration grid through [drive], as
   points; [run_grid], the timing target of BENCH_sweep.json, is just this. *)
let predictor_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering trace
    placement =
  let replay, run_many = study_replay ~base plan ~warmup_blocks trace placement in
  let configs = Array.of_list (configurations ()) in
  let simulate i =
    let name, make = configs.(i) in
    replay (Machine.with_predictor base ~name make)
  in
  (* Anchor the seed on the static predictors: the extreme ends of the
     accuracy range, and the only fallback (kernel-less) lanes. *)
  let space () =
    ( Array.map (fun (name, _) -> Pi_stats.Surrogate.predictor_features name) configs,
      List.filter
        (fun i -> List.mem (fst configs.(i)) [ "static-taken"; "static-not-taken" ])
        (List.init (Array.length configs) Fun.id) )
  in
  let l =
    drive ~simulate ~run_many ~targets:(fun c -> [| Pipeline.mpki c; Pipeline.cpi c |])
      ~batch:grid_batch_memo ~shards ?map_shards ~fused ~space ~n_targets:2 ~cpi_target:1
      steering (Array.length configs)
  in
  let point i v = { config_name = fst configs.(i); mpki = v.(0); cpi = v.(1) } in
  (replay, Array.mapi point l.steered.st_values, l)

let run_grid ?(base = Machine.xeon_e5440) ?plan ?(warmup_blocks = 0) ?(shards = 1) ?map_shards
    ?(fused = true) trace placement =
  let _, points, l =
    predictor_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering:None trace
      placement
  in
  grid_of points l

let run_study ?(base = Machine.xeon_e5440) ?plan ?(warmup_blocks = 0) ?(shards = 1) ?map_shards
    ?(fused = true) ?surrogate ~benchmark trace placement =
  let replay, points, l =
    predictor_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering:surrogate
      trace placement
  in
  let reference name make =
    let config = Machine.with_predictor base ~name make in
    let config = if name = "perfect" then { config with Pipeline.perfect_btb = true } else config in
    let c = replay config in
    { config_name = name; mpki = Pipeline.mpki c; cpi = Pipeline.cpi c }
  in
  let perfect = reference "perfect" Perfect.perfect in
  let ltage_point = reference "L-TAGE" (fun () -> Ltage.create ()) in
  let regression =
    Pi_stats.Linreg.fit (Array.map (fun p -> p.mpki) points) (Array.map (fun p -> p.cpi) points)
  in
  let predicted_perfect_cpi = Pi_stats.Linreg.predict regression 0.0 in
  let predicted_ltage_cpi = Pi_stats.Linreg.predict regression ltage_point.mpki in
  let error_percent predicted actual =
    if actual = 0.0 then 0.0 else Float.abs (predicted -. actual) /. actual *. 100.0
  in
  let st = l.steered in
  {
    benchmark;
    points;
    perfect_cpi = perfect.cpi;
    ltage_point;
    regression;
    predicted_perfect_cpi;
    perfect_error_percent = error_percent predicted_perfect_cpi perfect.cpi;
    predicted_ltage_cpi;
    ltage_error_percent = error_percent predicted_ltage_cpi ltage_point.cpi;
    warmup_blocks;
    fused_lanes = l.fused_n;
    fallback_lanes = l.fallback_n;
    shards = l.shards_n;
    sources = st.st_sources;
    replayed_lanes = st.st_replayed;
    surrogate_rounds = st.st_rounds;
    surrogate_max_abs_err = st.st_max_err;
    surrogate_mean_abs_err = st.st_mean_err;
    grid_seconds = l.replay_s;
    model_seconds = l.model_s;
    lane_seconds = l.replay_s /. float_of_int (max 1 st.st_replayed);
  }

(* ------------------------------------------------------------------ *)
(* The cache-geometry axis (INTERPLAY's question): sweep way-disabled and
   resized variants of the seed L1I/L2 and fit CPI against the two cache
   MPKIs, interferometry-style, instead of training a model. *)

type cache_variant = Ways of int | Half | Double

let variant_label = function
  | Ways k -> Printf.sprintf "w%d" k
  | Half -> "half"
  | Double -> "double"

(* 10 variants per cache (w1..w8 way-disabling keeps the set count and
   shrinks capacity; half/double resize at the seed associativity, moving
   the set count) x both caches = the 100-point grid. The descriptor grid
   is symbolic — it assumes 8-way seed caches (both machines) and is
   validated against the actual seed geometries at materialization. *)
let build_cache_configurations () =
  let variants = [ Ways 1; Ways 2; Ways 3; Ways 4; Ways 5; Ways 6; Ways 7; Ways 8; Half; Double ] in
  let all =
    List.concat_map
      (fun vi ->
        List.map
          (fun vd ->
            (Printf.sprintf "l1i-%s+l2-%s" (variant_label vi) (variant_label vd), vi, vd))
          variants)
      variants
  in
  let count = List.length all in
  if count <> 100 then
    invalid_arg
      (Printf.sprintf
         "Sweep.cache_configurations: the grid defines %d configurations, expected 100 (10 L1I x \
          10 L2 variants); adjust the grid or the expected count together"
         count);
  all

(* Memoized like [configurations ()]: the symbolic grid is immutable, so
   one shared list serves every study and machine. *)
let cache_configurations_memo = lazy (build_cache_configurations ())
let cache_configurations () = Lazy.force cache_configurations_memo

let apply_cache_variant (g : Cache.geometry) v =
  match v with
  | Ways k ->
      if k > g.Cache.assoc then
        invalid_arg
          (Printf.sprintf
             "Sweep.cache_configurations: variant w%d needs %d ways but the seed geometry has %d \
              (way-disabling only removes ways)"
             k k g.Cache.assoc);
      let sets = Cache.geometry_sets g in
      { g with Cache.assoc = k; size_bytes = sets * k * g.Cache.line_bytes }
  | Half -> { g with Cache.size_bytes = g.Cache.size_bytes / 2 }
  | Double -> { g with Cache.size_bytes = g.Cache.size_bytes * 2 }

let materialize_cache_configurations ~l1i ~l2 =
  Array.of_list
    (List.map
       (fun (name, vi, vd) -> (name, apply_cache_variant l1i vi, apply_cache_variant l2 vd))
       (cache_configurations ()))

type cache_point = {
  geometry_name : string;
  l1i_geometry : Cache.geometry;
  l2_geometry : Cache.geometry;
  l1i_mpki : float;
  l2_mpki : float;
  cache_cpi : float;
}

type cache_study = {
  cache_benchmark : string;
  cache_points : cache_point array;
  seed_point : cache_point;
  degradation : Pi_stats.Multireg.t;
  predicted_seed_cpi : float;
  seed_error_percent : float;
  cache_warmup_blocks : int;
  cache_fused_lanes : int;
  cache_fallback_lanes : int;
  cache_shards : int;
  cache_sources : source array;
  cache_replayed_lanes : int;
  cache_surrogate_rounds : int;
  cache_surrogate_max_abs_err : float;
  cache_surrogate_mean_abs_err : float;
  cache_grid_seconds : float;
  cache_model_seconds : float;
  cache_lane_seconds : float;
}

let geometry_feature_vector g =
  Pi_stats.Surrogate.geometry_features ~sets:(Cache.geometry_sets g) ~ways:g.Cache.assoc
    ~line_bytes:g.Cache.line_bytes ~size_bytes:g.Cache.size_bytes

(* CPI against the two cache MPKIs. [Multireg.fit] needs a design of
   full rank, and on some benchmarks a miss rate is flat across the
   degraded grid (l1i_mpki is 0 at every geometry on hmmer, lbm and equake;
   l2_mpki too on lbm). A flat predictor carries no information, so only
   the varying ones are fitted; a flat one reports coefficient 0 and
   standard error 0, and with none varying the fit is the mean CPI. The
   F-test and adjusted R^2 count only the fitted predictors. *)
let degradation_fit xs ys =
  let k = Array.length xs.(0) in
  let varies j = Array.exists (fun row -> row.(j) <> xs.(0).(j)) xs in
  let kept = List.filter varies (List.init k Fun.id) |> Array.of_list in
  if Array.length kept = k then Pi_stats.Multireg.fit xs ys
  else
    let expand fitted =
      let full = Array.make k 0.0 in
      Array.iteri (fun i j -> full.(j) <- fitted.(i)) kept;
      full
    in
    if Array.length kept > 0 then
      let m = Pi_stats.Multireg.fit (Array.map (fun row -> Array.map (Array.get row) kept) xs) ys in
      {
        m with
        Pi_stats.Multireg.k;
        coefficients = expand m.Pi_stats.Multireg.coefficients;
        coefficient_standard_errors = expand m.Pi_stats.Multireg.coefficient_standard_errors;
      }
    else
      let n = Array.length ys in
      let mean = Pi_stats.Descriptive.mean ys in
      let ss = Array.fold_left (fun acc y -> acc +. ((y -. mean) *. (y -. mean))) 0.0 ys in
      {
        Pi_stats.Multireg.coefficients = Array.make k 0.0;
        intercept = mean;
        n;
        k;
        r_squared = 0.0;
        adjusted_r_squared = 0.0;
        residual_standard_error = sqrt (ss /. float_of_int (max 1 (n - 1)));
        f_statistic = 0.0;
        f_p_value = 1.0;
        coefficient_standard_errors = Array.make k 0.0;
      }

(* The cache axis: the 100-geometry grid through [drive], as points;
   [run_cache_grid], the timing target of BENCH_cache_sweep.json, is just
   this. *)
let cache_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering trace placement =
  let replay, run_many = study_replay ~base plan ~warmup_blocks trace placement in
  let l1i = base.Pipeline.l1i and l2 = base.Pipeline.l2 in
  let configs = materialize_cache_configurations ~l1i ~l2 in
  let simulate i =
    let _, gi, gd = configs.(i) in
    replay { base with Pipeline.l1i = gi; l2 = gd }
  in
  (* Anchor on the seed machine (so it is always replayed truth, never a
     prediction) and the most-degraded corner. *)
  let space () =
    let seed_idx = ref 0 in
    Array.iteri (fun i (_, gi, gd) -> if gi = l1i && gd = l2 then seed_idx := i) configs;
    ( Array.map
        (fun (_, gi, gd) -> Array.append (geometry_feature_vector gi) (geometry_feature_vector gd))
        configs,
      [ !seed_idx; 0 ] )
  in
  (* Packing costs ~30 us against a pass of hundreds of ms, so each study
     builds its own batch, once, and its steering rounds select from it;
     the tag images come from the domain's pooled scratch. *)
  let batch = lazy (Replay.cache_batch_of ~l1i ~l2 configs) in
  let l =
    drive ~simulate ~run_many
      ~targets:(fun c -> [| Pipeline.l1i_mpki c; Pipeline.l2_mpki c; Pipeline.cpi c |])
      ~batch ~shards ?map_shards ~fused ~space ~n_targets:3 ~cpi_target:2 steering
      (Array.length configs)
  in
  let point i v =
    let geometry_name, l1i_geometry, l2_geometry = configs.(i) in
    { geometry_name; l1i_geometry; l2_geometry; l1i_mpki = v.(0); l2_mpki = v.(1);
      cache_cpi = v.(2) }
  in
  (Array.mapi point l.steered.st_values, l)

let run_cache_grid ?(base = Machine.xeon_e5440) ?plan ?(warmup_blocks = 0) ?(shards = 1)
    ?map_shards ?(fused = true) trace placement =
  let points, l =
    cache_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering:None trace
      placement
  in
  grid_of points l

let run_cache_study ?(base = Machine.xeon_e5440) ?plan ?(warmup_blocks = 0) ?(shards = 1)
    ?map_shards ?(fused = true) ?surrogate ~benchmark trace placement =
  let points, l =
    cache_lanes ~base ~plan ~warmup_blocks ~shards ?map_shards ~fused ~steering:surrogate trace
      placement
  in
  let is_seed p = p.l1i_geometry = base.Pipeline.l1i && p.l2_geometry = base.Pipeline.l2 in
  let seed_point =
    match Array.find_opt is_seed points with
    | Some p -> p
    | None ->
        invalid_arg
          "Sweep.run_cache_study: the grid does not contain the seed geometries (w8 variants \
           missing?)"
  in
  (* The INTERPLAY-style question: fit CPI against the two cache MPKIs over
     the degraded points only, then predict the seed point's CPI from its
     own miss rates and compare with the simulated truth. *)
  let degraded = Array.of_list (List.filter (fun p -> not (is_seed p)) (Array.to_list points)) in
  let degradation =
    degradation_fit
      (Array.map (fun p -> [| p.l1i_mpki; p.l2_mpki |]) degraded)
      (Array.map (fun p -> p.cache_cpi) degraded)
  in
  let predicted_seed_cpi =
    Pi_stats.Multireg.predict degradation [| seed_point.l1i_mpki; seed_point.l2_mpki |]
  in
  let seed_error_percent =
    if seed_point.cache_cpi = 0.0 then 0.0
    else Float.abs (predicted_seed_cpi -. seed_point.cache_cpi) /. seed_point.cache_cpi *. 100.0
  in
  let st = l.steered in
  {
    cache_benchmark = benchmark;
    cache_points = points;
    seed_point;
    degradation;
    predicted_seed_cpi;
    seed_error_percent;
    cache_warmup_blocks = warmup_blocks;
    cache_fused_lanes = l.fused_n;
    cache_fallback_lanes = l.fallback_n;
    cache_shards = l.shards_n;
    cache_sources = st.st_sources;
    cache_replayed_lanes = st.st_replayed;
    cache_surrogate_rounds = st.st_rounds;
    cache_surrogate_max_abs_err = st.st_max_err;
    cache_surrogate_mean_abs_err = st.st_mean_err;
    cache_grid_seconds = l.replay_s;
    cache_model_seconds = l.model_s;
    cache_lane_seconds = l.replay_s /. float_of_int (max 1 st.st_replayed);
  }
