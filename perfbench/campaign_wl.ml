(* campaign-cold: the paper's first step, a cold suite campaign.

   One cycle is one [Campaign.run ~jobs:1] over four benchmarks x 100
   layouts into a fresh on-disk observation cache; one op is one computed
   observation. *)

open Common
module E = Interferometry.Experiment
module C = Pi_campaign.Campaign
module Obs_cache = Pi_campaign.Obs_cache
module Span = Pi_obs.Span

let bench_names = [ "400.perlbench"; "429.mcf"; "456.hmmer"; "403.gcc" ]
let n_layouts = 100

(* The datasets of a campaign as the bytes the cache format gives them:
   the "byte-identical dataset" of the rerun check. *)
let dataset_bytes (r : C.result) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (o : C.bench_outcome) ->
      Buffer.add_string buf o.C.bench.Pi_workloads.Bench.name;
      Buffer.add_char buf '\n';
      Option.iter
        (fun (d : E.dataset) ->
          Array.iter
            (fun ob ->
              Buffer.add_string buf (Interferometry.Dataset_io.observation_to_row ob);
              Buffer.add_char buf '\n')
            d.E.observations)
        o.C.dataset)
    r.C.outcomes;
  Buffer.contents buf

let span_sum events name =
  List.fold_left
    (fun acc (e : Span.event) -> if e.Span.name = name then acc +. e.Span.dur else acc)
    0.0 events

(* The per-layer view of one traced campaign: the program's own prepare
   and observe stages read from its spans, the observe hook timed here,
   and the obs-cache and fit layers timed by replaying the campaign's
   stores, loads and fits through the public calls on a scratch cache. *)
let trace_layers acc ~work ~config ~wall ~(result : C.result) ~hook_s ~blocks =
  let events = Span.events () in
  Span.clear ();
  let ms = 1000.0 in
  List.iter
    (fun (stage, layer) ->
      List.iter
        (fun (e : Span.event) ->
          if e.Span.name = stage then Acc.add acc layer (e.Span.dur *. ms))
        events)
    [
      ("build", "workloads.build_ms");
      ("trace", "run_limiter.trace_ms");
      ("compile", "replay.compile_ms");
    ];
  let layout = span_sum events "layout" and replay = span_sum events "replay" in
  Acc.add acc "layout_s" layout;
  Acc.add acc "replay_s" replay;
  Acc.add acc "measure_s" (hook_s -. layout -. replay);
  Acc.add acc "blocks" blocks;
  (* Obs_cache.store, one observation at a time in campaign order, into a
     scratch cache: the same read-merge-write sequence the campaign did. *)
  let mirror = Obs_cache.create ~dir:(fresh_dir (Filename.concat work "mirror")) in
  let store_s = ref 0.0 in
  List.iter
    (fun (o : C.bench_outcome) ->
      Option.iter
        (fun (d : E.dataset) ->
          let bench = o.C.bench.Pi_workloads.Bench.name in
          Array.iter
            (fun ob ->
              let (), dt = time (fun () -> Obs_cache.store mirror ~bench ~config [| ob |]) in
              store_s := !store_s +. dt;
              Acc.add acc "obs_cache.store_ms" (dt *. ms))
            d.E.observations;
          let loaded, dt = time (fun () -> Obs_cache.load mirror ~bench ~config) in
          Acc.add acc "obs_cache.load_ms" (dt *. ms);
          check
            (Array.length loaded = Array.length d.E.observations)
            "%s: scratch cache reloads %d of %d observations" bench (Array.length loaded)
            (Array.length d.E.observations);
          let _, dt = time (fun () -> Interferometry.Model.fit d) in
          Acc.add acc "model.fit_ms" (dt *. ms))
        o.C.dataset)
    result.C.outcomes;
  let attributed =
    span_sum events "build" +. span_sum events "trace" +. span_sum events "compile"
    +. span_sum events "campaign.cache" +. span_sum events "campaign.assemble" +. hook_s
    +. !store_s
  in
  Acc.add acc "wall_s" wall;
  Acc.add acc "attributed_s" attributed

let run ~work ~seed ~seconds ~traced =
  let config = { E.default_config with E.master_seed = seed } in
  let benches = List.map Pi_workloads.Spec.find bench_names in
  let prepared, setup_s =
    timed_setup (fun () -> Array.of_list (List.map (E.prepare ~config) benches))
  in
  let acc = Acc.create () in
  let attempted = ref 0 and failed = ref 0 in
  let ops = [| Ops.create (); Ops.create () |] in
  let cycle k =
    let arm = if traced && k mod 2 = 1 then 1 else 0 in
    let trace_this = arm = 1 in
    let dir = fresh_dir (Filename.concat work (Printf.sprintf "cache-%d" k)) in
    let hook_s = ref 0.0 and blocks = ref 0.0 in
    (* Every computed observation passes the hook, which notes when it
       started: an op's time runs from there to the next op's start, so it
       holds the observation and its cache store. *)
    let starts = ref [] in
    let observe ~bench ~(prepared : E.prepared) ~seed =
      starts := (bench, now ()) :: !starts;
      if not trace_this then E.observe_seed prepared seed
      else begin
        let ob, dt = time (fun () -> E.observe_seed prepared seed) in
        hook_s := !hook_s +. dt;
        blocks := !blocks +. float_of_int (Pi_isa.Trace.blocks_executed prepared.E.trace);
        Acc.add acc "obs" dt;
        ob
      end
    in
    if trace_this then begin
      Span.clear ();
      Span.set_enabled true
    end;
    let t0 = now () in
    let result =
      with_gc acc (fun () -> C.run ~config ~jobs:1 ~cache_dir:dir ~observe ~n_layouts benches)
    in
    let t1 = now () in
    let wall = t1 -. t0 in
    Span.set_enabled false;
    (* The time before the first observation (prepare, cache probe) is one
       sample of its own class per campaign. *)
    let first =
      List.fold_left
        (fun next (bench, t) ->
          Ops.add ops.(arm) bench (next -. t);
          t)
        t1 !starts
    in
    Ops.add ops.(arm) "campaign.prepare" (first -. t0);
    let m = result.C.manifest in
    let computed = m.Pi_campaign.Manifest.computed_jobs in
    attempted := !attempted + m.Pi_campaign.Manifest.total_jobs;
    failed := !failed + m.Pi_campaign.Manifest.failed_jobs;
    Ops.succeeded ops.(arm) ~n:computed;
    if trace_this then
      trace_layers acc ~work ~config ~wall ~result ~hook_s:!hook_s ~blocks:!blocks;
    (* Output checks, outside the timed window. *)
    check
      (computed = List.length bench_names * n_layouts && m.Pi_campaign.Manifest.cache_hits = 0)
      "cold campaign computed %d and served %d from cache" computed
      m.Pi_campaign.Manifest.cache_hits;
    let b = k mod Array.length prepared in
    let s = 1 + ((seed + (7 * k)) mod n_layouts) in
    (match (List.nth result.C.outcomes b).C.dataset with
    | Some d ->
        let got = Array.find_opt (fun o -> o.E.layout_seed = s) d.E.observations in
        check
          (got = Some (E.observe_seed prepared.(b) s))
          "%s seed %d differs from a direct observe_seed" (List.nth bench_names b) s
    | None -> check false "%s did not prepare" (List.nth bench_names b));
    if k = 0 then begin
      let again = C.run ~config ~jobs:1 ~cache_dir:dir ~n_layouts benches in
      check
        (again.C.manifest.Pi_campaign.Manifest.computed_jobs = 0)
        "rerun on the filled cache computed %d observations"
        again.C.manifest.Pi_campaign.Manifest.computed_jobs;
      check
        (String.equal (dataset_bytes again) (dataset_bytes result))
        "rerun on the filled cache gave a different dataset"
    end;
    rm_rf dir
  in
  ignore (run_cycles ~seconds ~traced cycle);
  let metrics =
    if not traced then
      [
        ("ops_per_s", Ops.rate ops.(0), "1/s");
        ("peak_rss_mb", peak_rss_mb "self", "MB");
      ]
    else
      let n = float_of_int (Acc.count acc "obs") in
      [
        ("workloads.build_ms", Acc.mean acc "workloads.build_ms", "ms");
        ("run_limiter.trace_ms", Acc.mean acc "run_limiter.trace_ms", "ms");
        ("replay.compile_ms", Acc.mean acc "replay.compile_ms", "ms");
        ("placement.make_ms", Acc.sum acc "layout_s" /. n *. 1000.0, "ms");
        ("replay.run_ms", Acc.sum acc "replay_s" /. n *. 1000.0, "ms");
        ("replay.blocks_per_s", Acc.sum acc "blocks" /. Acc.sum acc "replay_s", "1/s");
        ("counters.measure_us", Acc.sum acc "measure_s" /. n *. 1e6, "us");
        ("obs_cache.store_ms", Acc.mean acc "obs_cache.store_ms", "ms");
        ("obs_cache.load_ms", Acc.mean acc "obs_cache.load_ms", "ms");
        ("model.fit_ms", Acc.mean acc "model.fit_ms", "ms");
        ( "unattributed_pct",
          unattributed_pct ~wall:(Acc.sum acc "wall_s")
            ~attributed:(Acc.sum acc "attributed_s"),
          "%" );
        ( "trace.overhead_pct",
          overhead_pct ~untraced_rate:(Ops.rate ops.(0)) ~traced_rate:(Ops.rate ops.(1)),
          "%" );
      ]
      @ gc_layers acc ~ops:(ops.(0).Ops.ok + ops.(1).Ops.ok)
  in
  { setup_s; attempted = !attempted; failed = !failed; metrics }
