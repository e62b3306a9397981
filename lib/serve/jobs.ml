module J = Pi_obs.Json
module E = Interferometry.Experiment
module Model = Interferometry.Model
module Predict = Interferometry.Predict
module Obs_cache = Pi_campaign.Obs_cache
module Span = Pi_obs.Span
module Linreg = Pi_stats.Linreg
module C = Pi_uarch.Counters

type kind = Measure | Predict | Campaign | Cache_sweep | Bundle | Estimate

type params = {
  kind : kind;
  benches : string list;
  layouts : int;
  seed : int;
  scale : int;
  heap_random : bool;
  quick : bool;
  dir : string;
}

let kind_name = function
  | Measure -> "measure"
  | Predict -> "predict"
  | Campaign -> "campaign"
  | Cache_sweep -> "cache_sweep"
  | Bundle -> "bundle"
  | Estimate -> "estimate"

let kind_of_name = function
  | "measure" -> Some Measure
  | "predict" -> Some Predict
  | "campaign" -> Some Campaign
  | "cache_sweep" -> Some Cache_sweep
  | "bundle" -> Some Bundle
  | "estimate" -> Some Estimate
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Submission parsing                                                 *)

let known_fields =
  [ "kind"; "bench"; "benches"; "suite"; "layouts"; "seed"; "scale";
    "heap_random"; "quick"; "dir" ]

let suite_benches = function
  | "2006" -> Some (Pi_workloads.Spec.all_2006 ())
  | "2000" -> Some (Pi_workloads.Spec.extended_2000 ())
  | "table1" -> Some (Pi_workloads.Spec.table1_2006 ())
  | "sim" -> Some (Pi_workloads.Spec.simulation_suite ())
  | "all" -> Some (Pi_workloads.Spec.everything ())
  | _ -> None

let parse json =
  let ( let* ) = Result.bind in
  match json with
  | J.Obj fields ->
      let* () =
        match
          List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
        with
        | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
        | None -> Ok ()
      in
      let field name = List.assoc_opt name fields in
      let* kind =
        match field "kind" with
        | Some (J.String s) -> (
            match kind_of_name s with
            | Some k -> Ok k
            | None -> Error (Printf.sprintf "unknown kind %S" s))
        | Some _ -> Error "field \"kind\" must be a string"
        | None -> Error "missing field \"kind\""
      in
      let int_field name ~min ~max ~default =
        match field name with
        | None -> Ok default
        | Some (J.Int i) when i >= min && i <= max -> Ok i
        | Some (J.Int i) ->
            Error (Printf.sprintf "field %S out of range: %d not in %d..%d" name i min max)
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
      in
      let bool_field name ~default =
        match field name with
        | None -> Ok default
        | Some (J.Bool b) -> Ok b
        | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
      in
      let* dir =
        match (kind, field "dir") with
        | Bundle, Some (J.String d) when d <> "" -> Ok d
        | Bundle, Some _ -> Error "field \"dir\" must be a non-empty string"
        | Bundle, None -> Error "kind \"bundle\" requires field \"dir\""
        | _, Some _ -> Error "field \"dir\" only applies to kind \"bundle\""
        | _, None -> Ok ""
      in
      (* A bundle job names no benchmarks — its subject is a directory. *)
      if kind = Bundle then begin
        let* () =
          match (field "bench", field "benches", field "suite") with
          | None, None, None -> Ok ()
          | _ -> Error "kind \"bundle\" takes no benchmarks"
        in
        let* quick = bool_field "quick" ~default:false in
        let base = if quick then E.quick_config else E.default_config in
        let* layouts = int_field "layouts" ~min:3 ~max:1000 ~default:10 in
        let* seed =
          int_field "seed" ~min:0 ~max:1_000_000_000 ~default:base.E.master_seed
        in
        let* scale = int_field "scale" ~min:1 ~max:64 ~default:base.E.scale in
        let* heap_random = bool_field "heap_random" ~default:false in
        Ok { kind; benches = []; layouts; seed; scale; heap_random; quick; dir }
      end
      else
      let* named =
        match (field "bench", field "benches", field "suite") with
        | Some (J.String b), None, None -> Ok [ b ]
        | None, Some (J.List l), None ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match item with
                | J.String b -> Ok (b :: acc)
                | _ -> Error "field \"benches\" must be a list of strings")
              (Ok []) l
            |> Result.map List.rev
        | None, None, Some (J.String s) -> (
            match suite_benches s with
            | Some benches -> Ok (Pi_workloads.Spec.names benches)
            | None -> Error (Printf.sprintf "unknown suite %S" s))
        | None, None, None ->
            Error "one of \"bench\", \"benches\" or \"suite\" is required"
        | _ -> Error "give exactly one of \"bench\", \"benches\" or \"suite\""
      in
      let* benches =
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            match Pi_workloads.Spec.find name with
            | bench -> Ok (bench.Pi_workloads.Bench.name :: acc)
            | exception Not_found ->
                Error (Printf.sprintf "unknown benchmark %S" name))
          (Ok []) named
        |> Result.map (fun l -> List.sort_uniq compare l)
      in
      let* () = if benches = [] then Error "no benchmarks given" else Ok () in
      let* () =
        match kind with
        | Predict when List.length benches <> 1 ->
            Error "kind \"predict\" takes exactly one benchmark"
        | Cache_sweep when List.length benches <> 1 ->
            Error "kind \"cache_sweep\" takes exactly one benchmark"
        | Estimate when List.length benches <> 1 ->
            Error "kind \"estimate\" takes exactly one benchmark"
        | _ -> Ok ()
      in
      let* quick = bool_field "quick" ~default:false in
      let base = if quick then E.quick_config else E.default_config in
      let* layouts = int_field "layouts" ~min:3 ~max:1000 ~default:10 in
      let* seed = int_field "seed" ~min:0 ~max:1_000_000_000 ~default:base.E.master_seed in
      let* scale = int_field "scale" ~min:1 ~max:64 ~default:base.E.scale in
      let* heap_random = bool_field "heap_random" ~default:false in
      Ok { kind; benches; layouts; seed; scale; heap_random; quick; dir }
  | _ -> Error "submission body must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Identity                                                           *)

let canonical p =
  J.Obj
    ([
       ("kind", J.String (kind_name p.kind));
       ("benches", J.List (List.map (fun b -> J.String b) p.benches));
       ("layouts", J.Int p.layouts);
       ("seed", J.Int p.seed);
       ("scale", J.Int p.scale);
       ("heap_random", J.Bool p.heap_random);
       ("quick", J.Bool p.quick);
     ]
    (* Only bundle jobs carry a directory; keeping the field out of every
       other kind's canonical form preserves their pre-existing keys (and
       hence job ids across a daemon upgrade). *)
    @ if p.dir = "" then [] else [ ("dir", J.String p.dir) ])

let key p = Digest.to_hex (Digest.string (J.to_string (canonical p)))
let id_of_key key = "j-" ^ String.sub key 0 12

let config_of p =
  let base = if p.quick then E.quick_config else E.default_config in
  { base with E.master_seed = p.seed; scale = p.scale; heap_random = p.heap_random }

(* ------------------------------------------------------------------ *)
(* Result documents                                                   *)

let measurement_json (m : C.measurement) =
  J.Obj
    [
      ("cpi", J.Float m.C.cpi);
      ("mpki", J.Float m.C.mpki);
      ("l1i_mpki", J.Float m.C.l1i_mpki);
      ("l1d_mpki", J.Float m.C.l1d_mpki);
      ("l2_mpki", J.Float m.C.l2_mpki);
      ("cycles", J.Float m.C.cycles);
      ("instructions", J.Float m.C.instructions);
      ("mispredicts", J.Float m.C.mispredicts);
      ("l1i_misses", J.Float m.C.l1i_misses);
      ("l1d_misses", J.Float m.C.l1d_misses);
      ("l2_misses", J.Float m.C.l2_misses);
    ]

let observation_json (o : E.observation) =
  J.Obj
    [
      ("seed", J.Int o.E.layout_seed);
      ("measurement", measurement_json o.E.measurement);
    ]

let interval_json (i : Linreg.interval) =
  J.Obj
    [
      ("lower", J.Float i.Linreg.lower);
      ("estimate", J.Float i.Linreg.estimate);
      ("upper", J.Float i.Linreg.upper);
    ]

let fit_json (m : Model.t) =
  J.Obj
    [
      ("benchmark", J.String m.Model.benchmark);
      ("slope", J.Float m.Model.regression.Linreg.slope);
      ("intercept", J.Float m.Model.regression.Linreg.intercept);
      ("r", J.Float m.Model.regression.Linreg.r);
      ("r_squared", J.Float m.Model.regression.Linreg.r_squared);
      ("n_layouts", J.Int m.Model.n_layouts);
      ("mean_mpki", J.Float m.Model.mean_mpki);
      ("mean_cpi", J.Float m.Model.mean_cpi);
      ("perfect_prediction", interval_json m.Model.perfect_prediction);
    ]

let bench_doc ~bench ~config (observations : E.observation array) =
  let fit =
    Span.with_ ~cat:"serve" ~name:"job.fit" ~args:[ ("bench", bench) ] (fun () ->
        (* The cache fast path has no [prepared] (and must not pay for one). *)
        Model.fit_observations ~bench observations)
  in
  J.Obj
    [
      ("bench", J.String bench);
      ("layouts", J.Int (Array.length observations));
      ("config_digest", J.String (Obs_cache.config_digest config));
      ("fit", fit_json fit);
      ("observations", J.List (Array.to_list (Array.map observation_json observations)));
    ]

let evaluation_json (e : Predict.evaluation) =
  J.Obj
    [
      ("predictor", J.String e.Predict.predictor);
      ("mean_mpki", J.Float e.Predict.mean_mpki);
      ("cpi", interval_json e.Predict.cpi);
      ("observed", J.Bool e.Predict.observed);
    ]

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)

(* Observations for seeds [1..layouts], cache-first. Returns the sorted
   array plus whether anything had to be computed (prepare is only paid
   when a seed is missing). Fresh observations are stored one at a time:
   a crash mid-job loses at most the seed in flight, and the replayed job
   resumes from what already reached the cache. The entry is compacted
   once the missing seeds are in, so its bytes never depend on which
   earlier job stored which seed. *)
let observations_for ~cache ~config ~layouts bench_name =
  let bench = Pi_workloads.Spec.find bench_name in
  let cached =
    Span.with_ ~cat:"serve" ~name:"job.cache" ~args:[ ("bench", bench_name) ]
      (fun () -> Obs_cache.load cache ~bench:bench_name ~config)
  in
  let by_seed = Hashtbl.create (Array.length cached) in
  Array.iter (fun o -> Hashtbl.replace by_seed o.E.layout_seed o) cached;
  let missing =
    List.filter
      (fun seed -> not (Hashtbl.mem by_seed seed))
      (List.init layouts (fun i -> i + 1))
  in
  if missing <> [] then
    Span.with_ ~cat:"serve" ~name:"job.replay"
      ~args:
        [ ("bench", bench_name); ("missing", string_of_int (List.length missing)) ]
      (fun () ->
        let prepared = E.prepare ~config bench in
        List.iter
          (fun seed ->
            let obs = E.observe_seed prepared seed in
            Obs_cache.store cache ~bench:bench_name ~config [| obs |];
            Hashtbl.replace by_seed seed obs)
          missing;
        Obs_cache.compact cache ~bench:bench_name ~config);
  Array.init layouts (fun i -> Hashtbl.find by_seed (i + 1))

let run_measure ~cache p =
  let config = config_of p in
  let docs =
    List.map
      (fun bench ->
        bench_doc ~bench ~config (observations_for ~cache ~config ~layouts:p.layouts bench))
      p.benches
  in
  J.Obj
    [
      ("kind", J.String (kind_name p.kind));
      ("params", canonical p);
      ("benches", J.List docs);
    ]

(* Predict always prepares — the Pin-style candidate runs need the trace —
   but the counter observations still come cache-first. *)
let run_predict ~cache p =
  let config = config_of p in
  let bench_name = List.hd p.benches in
  let bench = Pi_workloads.Spec.find bench_name in
  let observations = observations_for ~cache ~config ~layouts:p.layouts bench_name in
  let prepared = E.prepare ~config bench in
  let dataset = { E.prepared; observations } in
  let model = Model.fit dataset in
  let evaluations = Predict.evaluate dataset model in
  J.Obj
    [
      ("kind", J.String "predict");
      ("params", canonical p);
      ("bench", J.String bench_name);
      ("config_digest", J.String (Obs_cache.config_digest config));
      ("fit", fit_json model);
      ("evaluations", J.List (List.map evaluation_json evaluations));
    ]

(* The cache-geometry degradation study (INTERPLAY-style): one fused
   Replay pass over 100 L1I/L2 variants of the seed machine, plus the
   CPI ~ (L1I MPKI, L2 MPKI) fit. No per-seed observations, so nothing to
   cache — the study itself is deterministic in (bench, config). *)
module Sweep = Pi_uarch.Sweep

let cache_point_json (pt : Sweep.cache_point) =
  J.Obj
    [
      ("geometry", J.String pt.Sweep.geometry_name);
      ("l1i_mpki", J.Float pt.Sweep.l1i_mpki);
      ("l2_mpki", J.Float pt.Sweep.l2_mpki);
      ("cpi", J.Float pt.Sweep.cache_cpi);
    ]

let run_cache_sweep p =
  let config = config_of p in
  let bench_name = List.hd p.benches in
  let bench = Pi_workloads.Spec.find bench_name in
  let prepared = E.prepare ~config bench in
  let placement = Pi_layout.Placement.natural prepared.E.program in
  let s =
    Sweep.run_cache_study ~warmup_blocks:prepared.E.warmup_blocks ~benchmark:bench_name
      prepared.E.trace placement
  in
  let d = s.Sweep.degradation in
  J.Obj
    [
      ("kind", J.String "cache_sweep");
      ("params", canonical p);
      ("bench", J.String bench_name);
      ("config_digest", J.String (Obs_cache.config_digest config));
      ( "degradation",
        J.Obj
          [
            ("l1i_mpki_coefficient", J.Float d.Pi_stats.Multireg.coefficients.(0));
            ("l2_mpki_coefficient", J.Float d.Pi_stats.Multireg.coefficients.(1));
            ("intercept", J.Float d.Pi_stats.Multireg.intercept);
            ("r_squared", J.Float d.Pi_stats.Multireg.r_squared);
          ] );
      ("seed_point", cache_point_json s.Sweep.seed_point);
      ("predicted_seed_cpi", J.Float s.Sweep.predicted_seed_cpi);
      ("seed_error_percent", J.Float s.Sweep.seed_error_percent);
      ("fused_lanes", J.Int s.Sweep.cache_fused_lanes);
      ("warmup_blocks", J.Int s.Sweep.cache_warmup_blocks);
      ("points", J.List (Array.to_list (Array.map cache_point_json s.Sweep.cache_points)));
    ]

(* Estimate (PR-10 surrogate serving): answer instantly from whatever the
   observation cache already holds — no [prepare], no replay — and name
   the Measure twin the server enqueues in the background to refine it.
   The twin shares every parameter except [kind], so its id is derivable
   here without talking to the server, and once it completes the cache
   holds every seed and a resubmitted estimate converges bit-for-bit on
   the refined fit. Fewer than 3 cached observations is a {e negative
   estimate} — ok:false with the reason — not a job failure: there is
   simply nothing to estimate from yet. *)
module Surrogate = Pi_stats.Surrogate

let refined_job_id p = id_of_key (key { p with kind = Measure })

let run_estimate ~cache p =
  let config = config_of p in
  let bench_name = List.hd p.benches in
  let cached =
    Span.with_ ~cat:"serve" ~name:"job.cache" ~args:[ ("bench", bench_name) ]
      (fun () -> Obs_cache.load cache ~bench:bench_name ~config)
  in
  (* Only seeds the Measure twin will itself observe: the estimate is a
     prediction of that job's document, so extra cached seeds outside
     [1..layouts] must not leak into the fit. *)
  let obs =
    Array.of_list
      (List.filter
         (fun o -> o.E.layout_seed >= 1 && o.E.layout_seed <= p.layouts)
         (Array.to_list cached))
  in
  Array.sort (fun a b -> compare a.E.layout_seed b.E.layout_seed) obs;
  let doc ~ok fields =
    J.Obj
      ([
         ("kind", J.String "estimate");
         ("params", canonical p);
         ("bench", J.String bench_name);
         ("config_digest", J.String (Obs_cache.config_digest config));
         ("ok", J.Bool ok);
         ("cached_layouts", J.Int (Array.length obs));
         ("requested_layouts", J.Int p.layouts);
         ("refined_job", J.String (refined_job_id p));
       ]
      @ fields)
  in
  if Array.length obs < 3 then
    doc ~ok:false
      [
        ( "error",
          J.String
            (Printf.sprintf
               "only %d cached observation(s); the refined measure job will \
                populate the cache"
               (Array.length obs)) );
      ]
  else begin
    let fit = Model.fit_observations ~bench:bench_name obs in
    (* Honest error bar on the CPI ~ MPKI map: held-out fold residuals of
       a one-feature surrogate, not the in-sample fit error (which is ~0
       whenever the fit near-interpolates a small cache). *)
    let xs = Array.map (fun o -> [| o.E.measurement.C.mpki |]) obs in
    let ys = Array.map (fun o -> o.E.measurement.C.cpi) obs in
    let s = Surrogate.fit xs ys in
    let oof = Surrogate.oof_residuals s in
    let max_oof =
      Array.fold_left (fun acc r -> Float.max acc (Float.abs r)) 0.0 oof
    in
    doc ~ok:true
      [
        ("fit", fit_json fit);
        ("cpi_oof_abs_err_max", J.Float max_oof);
        ("cpi_oof_abs_err_p90", J.Float (Surrogate.oof_p90 s));
        ("stale", J.Bool (Array.length obs < p.layouts));
      ]
  end

(* Bundle verification (PR-9 run bundles): re-hash every pinned artifact
   in a bundle directory against its manifest. The report is a pure
   function of the bundle's current bytes, so the result document is
   deterministic for a given on-disk state. An unreadable manifest is a
   {e negative verification result} — ok:false with the reason — not a
   job failure: the job did its work, the bundle just failed it. *)
module Bundle = Pi_campaign.Bundle

let run_bundle p =
  let doc ~ok fields =
    J.Obj
      ([
         ("kind", J.String "bundle");
         ("params", canonical p);
         ("dir", J.String p.dir);
         ("ok", J.Bool ok);
       ]
      @ fields)
  in
  match Bundle.verify ~dir:p.dir with
  | Error msg -> doc ~ok:false [ ("error", J.String msg) ]
  | Ok (m, report) ->
      doc ~ok:(Bundle.ok report)
        [
          ("checked", J.Int report.Bundle.checked);
          ( "problems",
            J.List
              (List.map
                 (fun (pr : Bundle.problem) ->
                   J.Obj
                     [
                       ("path", J.String pr.Bundle.path);
                       ("reason", J.String pr.Bundle.reason);
                     ])
                 report.Bundle.problems) );
          ( "bundle",
            J.Obj
              [
                ("kind", J.String m.Bundle.kind);
                ("label", J.String m.Bundle.label);
                ("config_digest", J.String m.Bundle.config_digest);
                ("benches", J.List (List.map (fun b -> J.String b) m.Bundle.benches));
                ("artifacts", J.Int (List.length m.Bundle.artifacts));
              ] );
        ]

let execute ~cache p =
  match
    match p.kind with
    | Measure | Campaign -> run_measure ~cache p
    | Predict -> run_predict ~cache p
    | Cache_sweep -> run_cache_sweep p
    | Bundle -> run_bundle p
    | Estimate -> run_estimate ~cache p
  with
  | doc -> Ok doc
  | exception exn -> Error (Printexc.to_string exn)
