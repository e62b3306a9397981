module J = Pi_obs.Json

type fit = {
  r_squared : float;
  slope : float;
  intercept : float;
  mean_mpki : float;
  mean_cpi : float;
}

type job_failure = { seed : int; error : string }

type bench_entry = {
  bench : string;
  suite : string;
  requested : int;
  computed : int;
  cached : int;
  warmup_blocks : int;
  retries : int;
  failures : job_failure list;
  prepare_seconds : float;
  observe_seconds : float;
  wall_seconds : float;
  cpu_seconds : float;
  prepare_error : string option;
  fit : fit option;
}

type t = {
  label : string;
  n_layouts : int;
  jobs : int;
  config_digest : string;
  cache_dir : string option;
  config_args : (string * J.t) list;
  checkpoint : bool;
  started_at : float;
  wall_seconds : float;
  total_jobs : int;
  computed_jobs : int;
  cached_jobs : int;
  failed_jobs : int;
  retried_jobs : int;
  cache_hits : int;
  cache_misses : int;
  benches : bench_entry list;
}

let complete t = (not t.checkpoint) && t.failed_jobs = 0

let fit_to_json (f : fit) =
  J.Obj
    [
      ("r_squared", J.Float f.r_squared);
      ("slope", J.Float f.slope);
      ("intercept", J.Float f.intercept);
      ("mean_mpki", J.Float f.mean_mpki);
      ("mean_cpi", J.Float f.mean_cpi);
    ]

let bench_to_json (b : bench_entry) =
  J.Obj
    [
      ("bench", J.String b.bench);
      ("suite", J.String b.suite);
      ("requested", J.Int b.requested);
      ("computed", J.Int b.computed);
      ("cached", J.Int b.cached);
      ("warmup_blocks", J.Int b.warmup_blocks);
      ("retries", J.Int b.retries);
      ("failed", J.Int (List.length b.failures));
      ( "failures",
        J.List
          (List.map
             (fun f -> J.Obj [ ("seed", J.Int f.seed); ("error", J.String f.error) ])
             b.failures) );
      ("prepare_seconds", J.Float b.prepare_seconds);
      ("observe_seconds", J.Float b.observe_seconds);
      ("wall_seconds", J.Float b.wall_seconds);
      ("cpu_seconds", J.Float b.cpu_seconds);
      ( "prepare_error",
        match b.prepare_error with None -> J.Null | Some e -> J.String e );
      ("fit", match b.fit with None -> J.Null | Some f -> fit_to_json f);
    ]

let to_json t =
  J.Obj
    [
      ("label", J.String t.label);
      ("n_layouts", J.Int t.n_layouts);
      ("jobs", J.Int t.jobs);
      ("config_digest", J.String t.config_digest);
      ("cache_dir", match t.cache_dir with None -> J.Null | Some d -> J.String d);
      ("config_args", J.Obj t.config_args);
      ("checkpoint", J.Bool t.checkpoint);
      ("started_at", J.Float t.started_at);
      ("wall_seconds", J.Float t.wall_seconds);
      ("total_jobs", J.Int t.total_jobs);
      ("computed_jobs", J.Int t.computed_jobs);
      ("cached_jobs", J.Int t.cached_jobs);
      ("failed_jobs", J.Int t.failed_jobs);
      ("retried_jobs", J.Int t.retried_jobs);
      ("cache_hits", J.Int t.cache_hits);
      ("cache_misses", J.Int t.cache_misses);
      ("complete", J.Bool (complete t));
      ("benches", J.List (List.map bench_to_json t.benches));
    ]

(* ---- reading a manifest back (campaign --resume) ---- *)

let fit_of_json j =
  match j with
  | J.Null -> None
  | j ->
      Some
        {
          r_squared = J.get_float "r_squared" j;
          slope = J.get_float "slope" j;
          intercept = J.get_float "intercept" j;
          mean_mpki = J.get_float "mean_mpki" j;
          mean_cpi = J.get_float "mean_cpi" j;
        }

let failure_of_json j = { seed = J.get_int "seed" j; error = J.get_string "error" j }

let bench_of_json j =
  {
    bench = J.get_string "bench" j;
    suite = J.get_string "suite" j;
    requested = J.get_int "requested" j;
    computed = J.get_int "computed" j;
    cached = J.get_int "cached" j;
    warmup_blocks = Option.value ~default:0 (J.opt J.get_int "warmup_blocks" j);
    retries = Option.value ~default:0 (J.opt J.get_int "retries" j);
    failures = List.map failure_of_json (J.get_list "failures" j);
    prepare_seconds = J.get_float "prepare_seconds" j;
    observe_seconds = J.get_float "observe_seconds" j;
    wall_seconds = J.get_float "wall_seconds" j;
    cpu_seconds = J.get_float "cpu_seconds" j;
    prepare_error = J.opt J.get_string "prepare_error" j;
    fit = fit_of_json (J.member "fit" j);
  }

let of_json j =
  match
    {
      label = J.get_string "label" j;
      n_layouts = J.get_int "n_layouts" j;
      jobs = J.get_int "jobs" j;
      config_digest = J.get_string "config_digest" j;
      cache_dir = J.opt J.get_string "cache_dir" j;
      config_args = (match J.member "config_args" j with J.Obj f -> f | _ -> []);
      checkpoint = Option.value ~default:false (J.opt J.get_bool "checkpoint" j);
      started_at = J.get_float "started_at" j;
      wall_seconds = J.get_float "wall_seconds" j;
      total_jobs = J.get_int "total_jobs" j;
      computed_jobs = J.get_int "computed_jobs" j;
      cached_jobs = J.get_int "cached_jobs" j;
      failed_jobs = J.get_int "failed_jobs" j;
      retried_jobs = Option.value ~default:0 (J.opt J.get_int "retried_jobs" j);
      cache_hits = J.get_int "cache_hits" j;
      cache_misses = J.get_int "cache_misses" j;
      benches = List.map bench_of_json (J.get_list "benches" j);
    }
  with
  | t -> Ok t
  | exception J.Type_error msg -> Error (Printf.sprintf "not a manifest: bad field %s" msg)

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match J.parse contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok j -> (
          match of_json j with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok t -> Ok t))

let save t ~path =
  Pi_obs.Fs.write_file ~path (J.to_string (to_json t) ^ "\n")

let summary_table t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %5s %8s %6s %6s %8s %10s %10s %8s %8s\n" "benchmark" "n" "computed"
       "cached" "failed" "r^2" "slope" "intercept" "wall" "cpu");
  List.iter
    (fun b ->
      let fit_cols =
        match b.fit with
        | Some f -> Printf.sprintf "%8.3f %10.5f %10.4f" f.r_squared f.slope f.intercept
        | None -> Printf.sprintf "%8s %10s %10s" "-" "-" "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "%-16s %5d %8d %6d %6d %s %8.2f %8.2f\n" b.bench b.requested
           b.computed b.cached (List.length b.failures) fit_cols b.wall_seconds
           b.cpu_seconds))
    t.benches;
  Buffer.add_string buf
    (Printf.sprintf
       "total: %d jobs (%d computed, %d cached, %d failed%s) on %d domain(s) in %.1fs\n"
       t.total_jobs t.computed_jobs t.cached_jobs t.failed_jobs
       (if t.retried_jobs > 0 then Printf.sprintf ", %d retries" t.retried_jobs else "")
       t.jobs t.wall_seconds);
  Buffer.contents buf

let history_metrics t =
  let cpu_seconds = List.fold_left (fun acc b -> acc +. b.cpu_seconds) 0.0 t.benches in
  let obs_per_sec =
    if t.wall_seconds > 0.0 && t.computed_jobs > 0 then
      float_of_int t.computed_jobs /. t.wall_seconds
    else 0.0
  in
  let probes = t.cache_hits + t.cache_misses in
  let cache_hit_ratio =
    if probes = 0 then 0.0 else float_of_int t.cache_hits /. float_of_int probes
  in
  [
    ("wall_seconds", t.wall_seconds);
    ("cpu_seconds", cpu_seconds);
    ("obs_per_sec", obs_per_sec);
    ("cache_hit_ratio", cache_hit_ratio);
    ("total_jobs", float_of_int t.total_jobs);
    ("computed_jobs", float_of_int t.computed_jobs);
    ("cached_jobs", float_of_int t.cached_jobs);
    ("failed_jobs", float_of_int t.failed_jobs);
  ]
  @ List.filter_map
      (fun b ->
        match b.fit with
        | Some f -> Some (b.bench ^ ".r_squared", f.r_squared)
        | None -> None)
      t.benches
