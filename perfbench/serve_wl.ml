(* serve: the daemon path, through a real [interferometry serve] process.

   One closed-loop client runs the [submit --wait] pattern: a fresh
   [measure] job {bench, layouts 12, seed k} (a cold cache: prepare,
   replay, store), then the [estimate] job with identical params, whose
   measure twin is the job just done. The four campaign-cold benchmarks
   take turns; one op is one job. *)

open Common
module J = Pi_campaign.Telemetry
module Client = Pi_serve.Client
module Jobs = Pi_serve.Jobs

let bench_names = [| "400.perlbench"; "429.mcf"; "456.hmmer"; "403.gcc" |]
let layouts = 12

(* The wait before the next status poll: 0.5 ms at first, then 1/20 of the
   time already waited, up to 5 ms. That stays far below the job time, so
   latency measures the daemon rather than the poll ([Client.wait_job]
   polls every 0.2 s), while polls, whose HTTP handling competes with the
   running job for the daemon's runtime lock, do not slow the job they
   measure. *)
let poll_wait ~waited = Float.min 0.005 (Float.max 0.0005 (waited /. 20.0))

(* Each run needs enough jobs of each class that the p90 has ten samples
   beyond it. *)
let min_jobs_per_class = 100

type daemon = { pid : int; conn : Client.conn }

(* SIGTERM is the daemon's graceful drain; a daemon that has not exited
   after 30 s is killed. *)
let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let start_daemon ~cli ~state_dir =
  let state_dir = fresh_dir state_dir in
  let log = Unix.openfile (Filename.concat state_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--state-dir"; state_dir |] devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  (* Port discovery through serve.json, then readiness. *)
  let deadline = now () +. 60.0 in
  let rec discover () =
    match Client.resolve ~state_dir () with
    | Ok conn -> conn
    | Error msg ->
        if now () > deadline then failwith ("daemon did not start: " ^ msg);
        Unix.sleepf 0.0005;
        discover ()
  in
  match
    let conn = discover () in
    Result.map (fun () -> conn) (Client.wait_ready ~attempts:600 conn)
  with
  | Ok conn -> { pid; conn }
  | Error msg ->
      stop_pid pid;
      failwith msg
  | exception e ->
      stop_pid pid;
      raise e

let stop_daemon d = stop_pid d.pid

let field name = function
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_field name json =
  match field name json with Some (J.String s) -> Some s | _ -> None

type job = {
  kind : string;
  body : string;
  id : string;
  doc : string;  (** result bytes as the daemon serves them *)
  latency : float;
  submit : float;
  status : float;  (** summed over polls *)
  polls : int;
  result : float;
}

(* Submit, poll status until done, fetch the result. *)
let run_job conn ~kind ~body =
  let ( let* ) = Result.bind in
  let t0 = now () in
  let ack, submit = time (fun () -> Client.submit conn ~body) in
  let* ack = ack in
  let* id = Option.to_result ~none:"acknowledgement without id" (string_field "id" ack) in
  let rec poll polls status =
    let st, dt = time (fun () -> Client.status conn ~id) in
    let* st = st in
    match string_field "status" st with
    | Some "done" -> Ok (polls + 1, status +. dt)
    | Some ("queued" | "running") ->
        (* spin: a sub-millisecond sleep can overshoot by milliseconds on a
           busy host, and the overshoot would land in the latency *)
        let resume = now () +. poll_wait ~waited:(now () -. t0) in
        while now () < resume do () done;
        poll (polls + 1) (status +. dt)
    | Some s -> Error (Printf.sprintf "job %s is %s" id s)
    | None -> Error "status document without status"
  in
  let* polls, status = poll 0 0.0 in
  let doc, result = time (fun () -> Client.result conn ~id) in
  let* doc = doc in
  Ok { kind; body; id; doc; latency = now () -. t0; submit; status; polls; result }

(* The job's queue wait and execution, from its daemon-side trace. *)
let trace_spans conn ~id =
  match Client.trace conn ~id with
  | Error _ -> None
  | Ok text -> (
      match J.parse text with
      | Ok json -> (
          match field "traceEvents" json with
          | Some (J.List events) ->
              let dur name =
                List.fold_left
                  (fun acc e ->
                    match (string_field "name" e, field "dur" e) with
                    | Some n, Some (J.Int us) when n = name -> acc +. (float_of_int us /. 1e6)
                    | Some n, Some (J.Float us) when n = name -> acc +. (us /. 1e6)
                    | _ -> acc)
                  0.0 events
              in
              Some (dur "job.queued", dur "job")
          | _ -> None)
      | Error _ -> None)

let run ~cli ~work ~seed ~seconds ~traced =
  let spawn k = start_daemon ~cli ~state_dir:(Filename.concat work (Printf.sprintf "state-%d" k)) in
  (* Set-up is spawn-to-ready, repeated; the last daemon serves the run.
     It takes about 10 ms and follows the host's scheduling, so it is
     repeated more often than the other workloads' set-up. *)
  let rec setup k times =
    let d, dt = time (fun () -> spawn k) in
    if k + 1 = 3 * setup_reps then (d, median (dt :: times))
    else begin
      stop_daemon d;
      setup (k + 1) (dt :: times)
    end
  in
  let daemon, setup_s = setup 0 [] in
  Fun.protect ~finally:(fun () -> stop_daemon daemon) @@ fun () ->
  let acc = Acc.create () in
  let attempted = ref 0 and failed = ref 0 in
  let latencies = Hashtbl.create 2 in
  let samples = ref [] in
  let ops = [| Ops.create (); Ops.create () |] in
  let pairs = ref 0 in
  let base = (seed mod 1_000_000) * 1000 in
  let one ~arm ~kind ~bench ~body =
    incr attempted;
    match run_job daemon.conn ~kind ~body with
    | Error msg ->
        incr failed;
        Printf.eprintf "serve: %s job failed: %s\n%!" kind msg;
        None
    | Ok j ->
        Ops.add ops.(arm) (kind ^ "/" ^ bench) j.latency;
        Ops.succeeded ops.(arm);
        if arm = 0 then
          Hashtbl.replace latencies kind
            (j.latency :: Option.value (Hashtbl.find_opt latencies kind) ~default:[]);
        if arm = 1 then begin
          let ms = 1000.0 in
          Acc.add acc ("client.submit_ms." ^ kind) (j.submit *. ms);
          Acc.add acc "status_s" j.status;
          Acc.add acc "polls" (float_of_int j.polls);
          Acc.add acc ("client.polls_per_job." ^ kind) (float_of_int j.polls);
          Acc.add acc "client.result_ms" (j.result *. ms);
          match trace_spans daemon.conn ~id:j.id with
          | Some (queued, exec) ->
              Acc.add acc ("server.queue_ms." ^ kind) (queued *. ms);
              Acc.add acc ("server.job_ms." ^ kind) (exec *. ms);
              Acc.add acc "latency_s" j.latency;
              Acc.add acc "attributed_s" (j.submit +. queued +. exec +. j.result)
          | None -> check false "no daemon trace for job %s" j.id
        end;
        Some j
  in
  let cycle k =
    let arm = if traced && k mod 2 = 1 then 1 else 0 in
    for _ = 1 to Array.length bench_names do
      let i = !pairs in
      incr pairs;
      let bench = bench_names.(i mod Array.length bench_names) in
      let params kind =
        Printf.sprintf {|{"kind":"%s","bench":"%s","layouts":%d,"seed":%d}|} kind bench layouts
          (base + i)
      in
      let m = one ~arm ~kind:"measure" ~bench ~body:(params "measure") in
      let e = one ~arm ~kind:"estimate" ~bench ~body:(params "estimate") in
      (* Output check: the estimate answers ok and names the measure job
         it refines. Result documents are compared below. *)
      match (m, e) with
      | Some m, Some e ->
          (match J.parse e.doc with
          | Ok doc ->
              check (field "ok" doc = Some (J.Bool true)) "estimate %s is not ok" e.id;
              check
                (string_field "refined_job" doc = Some m.id)
                "estimate %s does not name %s as refined_job" e.id m.id
          | Error msg -> check false "estimate %s: %s" e.id msg);
          if i mod 10 = 0 then samples := (m, e) :: !samples
      | _ -> ()
    done
  in
  (* a traced run gives the floor to each of its two arms *)
  let min_cycles = min_jobs_per_class / Array.length bench_names * if traced then 2 else 1 in
  ignore (run_cycles ~min_cycles ~seconds ~traced cycle);
  let peak_rss = peak_rss_mb (string_of_int daemon.pid) in
  (* Output check: sampled result documents are byte-identical to an
     in-process [Jobs.execute] of the same params on a scratch cache. *)
  let cache =
    Pi_campaign.Obs_cache.create ~dir:(fresh_dir (Filename.concat work "scratch-cache"))
  in
  List.iter
    (fun pair ->
      List.iter
        (fun (j : job) ->
          match Result.bind (J.parse j.body) Jobs.parse with
          | Error msg -> check false "job %s: %s" j.id msg
          | Ok params -> (
              let doc, dt = time (fun () -> with_gc acc (fun () -> Jobs.execute ~cache params)) in
              Acc.add acc ("jobs.execute_ms." ^ j.kind) (dt *. 1000.0);
              match doc with
              | Ok doc ->
                  check
                    (String.equal (J.to_string doc ^ "\n") j.doc)
                    "job %s: daemon result differs from in-process Jobs.execute" j.id
              | Error msg -> check false "job %s: in-process execute failed: %s" j.id msg))
        [ fst pair; snd pair ])
    !samples;
  let lat kind p =
    percentile p (Option.value (Hashtbl.find_opt latencies kind) ~default:[]) *. 1000.0
  in
  let per_class name unit =
    List.map (fun k -> (name ^ "." ^ k, Acc.mean acc (name ^ "." ^ k), unit)) [ "measure"; "estimate" ]
  in
  let metrics =
    if not traced then
      [
        ("ops_per_s", Ops.rate ops.(0), "1/s");
        ("peak_rss_mb", peak_rss, "MB");
      ]
    else
      (* Job latencies, from the traced run's untraced arm. They are
         per-layer figures: an end-to-end metric is printed by every
         workload, and estimate latency, a few milliseconds of HTTP round
         trips and a ledger fsync, moves by up to 80% from run to run with
         the host's load, too much to carry a regression bound. *)
      [
        ("serve.measure_p50_ms", lat "measure" 50.0, "ms");
        ("serve.measure_p90_ms", lat "measure" 90.0, "ms");
        ("serve.estimate_p50_ms", lat "estimate" 50.0, "ms");
        ("serve.estimate_p90_ms", lat "estimate" 90.0, "ms");
      ]
      @ per_class "client.submit_ms" "ms"
      @ [ ("client.status_ms", Acc.sum acc "status_s" /. Acc.sum acc "polls" *. 1000.0, "ms") ]
      @ per_class "client.polls_per_job" "count"
      @ [ ("client.result_ms", Acc.mean acc "client.result_ms", "ms") ]
      @ per_class "server.queue_ms" "ms"
      @ per_class "server.job_ms" "ms"
      @ per_class "jobs.execute_ms" "ms"
      @ [
          ( "unattributed_pct",
            unattributed_pct ~wall:(Acc.sum acc "latency_s")
              ~attributed:(Acc.sum acc "attributed_s"),
            "%" );
          ( "trace.overhead_pct",
            overhead_pct ~untraced_rate:(Ops.rate ops.(0)) ~traced_rate:(Ops.rate ops.(1)),
            "%" );
        ]
      @ gc_layers acc ~ops:(2 * List.length !samples)
  in
  { setup_s; attempted = !attempted; failed = !failed; metrics }
