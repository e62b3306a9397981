module J = Pi_obs.Json
module Metrics = Pi_obs.Metrics
module Span = Pi_obs.Span
module Timeseries = Pi_obs.Timeseries
module Obs_cache = Pi_campaign.Obs_cache
module Queue = Pi_campaign.Scheduler.Queue

(* ------------------------------------------------------------------ *)
(* Instruments                                                        *)

let m_requests =
  (* One counter per route pattern, created up front: dispatch labels by
     the *matched pattern*, never the raw path, so cardinality is bounded
     no matter what clients send. *)
  List.map
    (fun endpoint ->
      ( endpoint,
        Metrics.counter ~help:"HTTP requests served, by route"
          ~labels:[ ("endpoint", endpoint) ] "pi_serve_http_requests_total" ))
    [ "/healthz"; "/readyz"; "/metrics"; "/metrics.json"; "/stats"; "/api/jobs";
      "/api/jobs/:id"; "/api/jobs/:id/result"; "/api/jobs/:id/trace";
      "/api/timeseries"; "*unmatched*"; "*bad-request*" ]

let count_request endpoint =
  match List.assoc_opt endpoint m_requests with
  | Some c -> Metrics.inc c
  | None -> ()

let m_request_seconds =
  Metrics.histogram ~help:"HTTP request handling wall seconds"
    "pi_serve_request_seconds"

let m_submitted =
  Metrics.counter ~help:"jobs accepted and WAL-journaled" "pi_serve_jobs_submitted_total"

let m_deduped =
  Metrics.counter ~help:"submissions answered by an existing job"
    "pi_serve_jobs_deduped_total"

let m_rejected =
  Metrics.counter ~help:"submissions rejected by admission control (429)"
    "pi_serve_jobs_rejected_total"

let m_completed_ok =
  Metrics.counter ~help:"jobs finished, by status" ~labels:[ ("status", "ok") ]
    "pi_serve_jobs_completed_total"

let m_completed_error =
  Metrics.counter ~help:"jobs finished, by status" ~labels:[ ("status", "error") ]
    "pi_serve_jobs_completed_total"

let m_refinements =
  Metrics.counter ~help:"background measure twins enqueued by estimate jobs"
    "pi_serve_estimate_refinements_total"

let m_recovered =
  Metrics.counter ~help:"unfinished jobs re-enqueued by WAL replay at boot"
    "pi_serve_jobs_recovered_total"

let m_queue_depth =
  Metrics.gauge ~help:"submitted jobs not yet claimed by a worker"
    "pi_serve_queue_depth"

let m_inflight =
  Metrics.gauge ~help:"jobs currently executing" "pi_serve_jobs_inflight"

let m_traces =
  Metrics.counter ~help:"per-job traces captured by the flight recorder"
    "pi_serve_job_traces_total"

let m_traces_evicted =
  Metrics.counter ~help:"per-job traces evicted from the bounded LRU"
    "pi_serve_job_traces_evicted_total"

(* ------------------------------------------------------------------ *)
(* State                                                              *)

type options = {
  state_dir : string;
  port : int;
  queue_capacity : int;
  workers : int;
  scrape_interval : float;
  trace_jobs : bool;
  trace_capacity : int;
}

let default_options ~state_dir =
  {
    state_dir;
    port = 0;
    queue_capacity = 64;
    workers = 1;
    scrape_interval = 1.0;
    trace_jobs = true;
    trace_capacity = 32;
  }

type job_state = Queued | Running | Done | Failed of string

type job = {
  id : string;
  jkey : string;
  params : Jobs.params;
  client : string;
  mutable state : job_state;
  mutable enqueued_at : float; (* monotonic; queue-delay span in the trace *)
}

type t = {
  options : options;
  listen_fd : Unix.file_descr;
  actual_port : int;
  ledger : Ledger.t;
  cache : Obs_cache.t;
  table_mutex : Mutex.t;
  jobs : (string, job) Hashtbl.t;  (* key -> job *)
  mutable order : string list;  (* keys, newest first *)
  queue : job Queue.t;
  timeseries : Pi_obs.Timeseries.t;
  mutable stop_sampler : (unit -> unit) option;
  traces_mutex : Mutex.t;
  mutable traces : (string * string) list; (* job id -> Chrome JSON, newest first *)
  stopping : bool Atomic.t;
  mutable threads : Thread.t list;
  mutable stopped : bool;
}

let port t = t.actual_port

let result_path t id = Filename.concat (Filename.concat t.options.state_dir "jobs") (id ^ ".json")
let port_file state_dir = Filename.concat state_dir "serve.json"

(* Atomic result persistence: unique temp, fsync, rename — after a crash
   the document is either absent or complete, which is exactly the
   distinction replay uses to decide whether to re-run the job. *)
let write_result t id doc =
  let path = result_path t id in
  Pi_obs.Fs.mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Pi_obs.Fs.write_all fd (J.to_string doc ^ "\n");
      Unix.fsync fd);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Ledger records                                                     *)

let submit_record job =
  J.Obj
    [
      ("record", J.String "submit");
      ("key", J.String job.jkey);
      ("client", J.String job.client);
      ("params", Jobs.canonical job.params);
    ]

let done_record ~key = J.Obj [ ("record", J.String "done"); ("key", J.String key) ]

let failed_record ~key ~error =
  J.Obj
    [ ("record", J.String "failed"); ("key", J.String key); ("error", J.String error) ]

let record_field name j = match J.member name j with J.String s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Job execution                                                      *)

let finish_job t job result =
  (match result with
  | Ok doc ->
      write_result t job.id doc;
      Ledger.append t.ledger (done_record ~key:job.jkey);
      Metrics.inc m_completed_ok;
      Mutex.protect t.table_mutex (fun () -> job.state <- Done)
  | Error msg ->
      Ledger.append t.ledger (failed_record ~key:job.jkey ~error:msg);
      Metrics.inc m_completed_error;
      Mutex.protect t.table_mutex (fun () -> job.state <- Failed msg));
  Metrics.gauge_add m_inflight (-1.0)

(* Bounded LRU of completed-job traces: an assoc list newest-first,
   truncated to [trace_capacity]. Traces are a post-hoc debugging
   side-channel — result documents stay deterministic, timings live only
   here. *)
let store_trace t id trace_json =
  Mutex.protect t.traces_mutex (fun () ->
      let rest = List.remove_assoc id t.traces in
      let rec take n = function
        | [] -> []
        | _ when n = 0 ->
            Metrics.inc m_traces_evicted;
            []
        | x :: tl -> x :: take (n - 1) tl
      in
      t.traces <- (id, trace_json) :: take (t.options.trace_capacity - 1) rest);
  Metrics.inc m_traces

let find_trace t id =
  Mutex.protect t.traces_mutex (fun () -> List.assoc_opt id t.traces)

let traced_execute t job =
  let collector = Span.collector () in
  let started = Pi_obs.Clock.now () in
  let queue_delay = Float.max 0.0 (started -. job.enqueued_at) in
  let result =
    Span.with_collector collector (fun () ->
        Span.with_ ~cat:"serve" ~name:"job"
          ~args:
            [ ("id", job.id); ("kind", Jobs.kind_name job.params.Jobs.kind);
              ("client", job.client) ]
          (fun () -> Jobs.execute ~cache:t.cache job.params))
  in
  (* The queue wait is reconstructed as a synthetic span preceding the
     execution — it happened on no worker thread, so no [with_] saw it. *)
  Span.add_event collector
    {
      Span.name = "job.queued";
      cat = "serve";
      ts = started -. queue_delay;
      dur = queue_delay;
      tid = (Domain.self () :> int);
      depth = 0;
      alloc_bytes = 0.0;
      args = [ ("id", job.id) ];
    };
  store_trace t job.id
    (Span.events_to_chrome_json (Span.collector_events collector));
  result

let worker t () =
  let rec loop () =
    match Queue.dequeue t.queue with
    | None -> ()
    | Some job ->
        Mutex.protect t.table_mutex (fun () -> job.state <- Running);
        Metrics.gauge_add m_inflight 1.0;
        let result =
          if t.options.trace_jobs then traced_execute t job
          else Jobs.execute ~cache:t.cache job.params
        in
        finish_job t job result;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Handlers                                                           *)

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

let job_json job =
  J.Obj
    (List.concat
       [
         [
           ("id", J.String job.id);
           ("key", J.String job.jkey);
           ("kind", J.String (Jobs.kind_name job.params.Jobs.kind));
           ("benches", J.List (List.map (fun b -> J.String b) job.params.Jobs.benches));
           ("layouts", J.Int job.params.Jobs.layouts);
           ("client", J.String job.client);
           ("status", J.String (state_name job.state));
         ];
         (match job.state with
         | Failed msg -> [ ("error", J.String msg) ]
         | _ -> []);
       ])

let find_job t id =
  Mutex.protect t.table_mutex (fun () ->
      Hashtbl.fold (fun _ job acc -> if job.id = id then Some job else acc) t.jobs None)

(* The background half of an estimate: enqueue the Measure twin (same
   params, kind swapped) so a full replay refines the cached observations
   the estimate answered from. Best-effort and silent — an existing twin
   means the refinement is already underway (or done), and a full queue
   just means it waits for the next estimate resubmission. Caller holds
   [table_mutex]: twin admission rides the same atomic step as the
   estimate's own, so the WAL never sees an estimate without its twin
   decision. *)
let enqueue_refinement_locked t ~client (params : Jobs.params) =
  let params = { params with Jobs.kind = Jobs.Measure } in
  let key = Jobs.key params in
  if
    (not (Hashtbl.mem t.jobs key))
    && Queue.depth t.queue < t.options.queue_capacity
  then begin
    let job =
      { id = Jobs.id_of_key key; jkey = key; params; client;
        state = Queued; enqueued_at = Pi_obs.Clock.now () }
    in
    Ledger.append t.ledger (submit_record job);
    Hashtbl.replace t.jobs key job;
    t.order <- key :: t.order;
    if not (Queue.enqueue ~client ~force:true t.queue job) then
      job.state <- Failed "queue closed"
    else begin
      Metrics.inc m_submitted;
      Metrics.inc m_refinements
    end
  end

let handle_submit t (req : Http.request) =
  if Atomic.get t.stopping then Router.error 503 "draining"
  else
    match J.parse ~max_bytes:(256 * 1024) ~max_depth:32 req.Http.body with
    | Error msg -> Router.error 400 (Printf.sprintf "invalid JSON: %s" msg)
    | Ok body -> (
        match Jobs.parse body with
        | Error msg -> Router.error 400 msg
        | Ok params -> (
            let key = Jobs.key params in
            let client =
              match Http.header req "x-client" with Some c -> c | None -> "anon"
            in
            (* The whole accept path runs under the table mutex so the
               dedup check, the admission check, the WAL append and the
               enqueue are one atomic step: no interleaving can admit the
               same params twice or WAL a job the queue never sees. *)
            Mutex.protect t.table_mutex (fun () ->
                match Hashtbl.find_opt t.jobs key with
                | Some job ->
                    Metrics.inc m_deduped;
                    (* A resubmitted estimate re-offers its twin: the
                       first submission may have skipped it on a full
                       queue. *)
                    if params.Jobs.kind = Jobs.Estimate then
                      enqueue_refinement_locked t ~client params;
                    `Existing job
                | None ->
                    if
                      Queue.depth t.queue >= t.options.queue_capacity
                    then begin
                      Metrics.inc m_rejected;
                      `Full
                    end
                    else begin
                      let job =
                        { id = Jobs.id_of_key key; jkey = key; params; client;
                          state = Queued; enqueued_at = Pi_obs.Clock.now () }
                      in
                      (* WAL before dispatch: the record is fsync-durable
                         before the job is queued or the client answered. *)
                      Ledger.append t.ledger (submit_record job);
                      Hashtbl.replace t.jobs key job;
                      t.order <- key :: t.order;
                      (* [force]: capacity was checked above under this
                         same lock; a WAL-acked job must not be dropped. *)
                      if not (Queue.enqueue ~client ~force:true t.queue job) then
                        job.state <- Failed "queue closed"
                      else Metrics.inc m_submitted;
                      if params.Jobs.kind = Jobs.Estimate then
                        enqueue_refinement_locked t ~client params;
                      `Accepted job
                    end)
            |> function
            | `Existing job ->
                Router.json 200
                  (J.Obj
                     [
                       ("id", J.String job.id);
                       ("status", J.String (state_name job.state));
                       ("duplicate", J.Bool true);
                     ])
            | `Full -> Router.error 429 "job queue is full; retry later"
            | `Accepted job ->
                Router.json 202
                  (J.Obj
                     [
                       ("id", J.String job.id);
                       ("status", J.String (state_name job.state));
                       ("duplicate", J.Bool false);
                     ])))

let handle_stats t =
  let queued, running, done_, failed =
    Mutex.protect t.table_mutex (fun () ->
        Hashtbl.fold
          (fun _ job (q, r, d, f) ->
            match job.state with
            | Queued -> (q + 1, r, d, f)
            | Running -> (q, r + 1, d, f)
            | Done -> (q, r, d + 1, f)
            | Failed _ -> (q, r, d, f + 1))
          t.jobs (0, 0, 0, 0))
  in
  let cache_stats = Obs_cache.update_gauges t.cache in
  Router.json 200
    (J.Obj
       [
         ("jobs",
          J.Obj
            [
              ("queued", J.Int queued);
              ("running", J.Int running);
              ("done", J.Int done_);
              ("failed", J.Int failed);
            ]);
         ("queue",
          J.Obj
            [
              ("depth", J.Int (Queue.depth t.queue));
              ("capacity", J.Int t.options.queue_capacity);
            ]);
         ("cache",
          J.Obj
            [
              ("entries", J.Int cache_stats.Obs_cache.entries);
              ("bytes", J.Int cache_stats.Obs_cache.bytes);
            ]);
         ("draining", J.Bool (Atomic.get t.stopping));
       ])

let routes t =
  [
    Router.get "/healthz" (fun _ _ -> Router.text 200 "ok\n");
    Router.get "/readyz" (fun _ _ ->
        if Atomic.get t.stopping then Router.error 503 "draining"
        else Router.text 200 "ok\n");
    Router.get "/metrics" (fun _ _ ->
        ignore (Obs_cache.update_gauges t.cache : Obs_cache.stats);
        Router.text 200 (Metrics.to_prometheus ()));
    Router.get "/metrics.json" (fun _ _ ->
        ignore (Obs_cache.update_gauges t.cache : Obs_cache.stats);
        Router.json 200 (Metrics.to_json (Metrics.scrape ())));
    Router.get "/stats" (fun _ _ -> handle_stats t);
    Router.post "/api/jobs" (fun _ req -> handle_submit t req);
    Router.get "/api/jobs" (fun _ _ ->
        let jobs =
          Mutex.protect t.table_mutex (fun () ->
              List.filter_map (Hashtbl.find_opt t.jobs) (List.rev t.order))
        in
        Router.json 200 (J.Obj [ ("jobs", J.List (List.map job_json jobs)) ]));
    Router.get "/api/jobs/:id" (fun params _ ->
        let id = List.assoc "id" params in
        match find_job t id with
        | Some job -> Router.json 200 (job_json job)
        | None -> Router.error 404 (Printf.sprintf "no job %s" id));
    Router.get "/api/timeseries" (fun _ _ ->
        {
          Http.code = 200;
          content_type = "application/json";
          body = Timeseries.to_json t.timeseries;
        });
    Router.get "/api/jobs/:id/trace" (fun params _ ->
        let id = List.assoc "id" params in
        match find_trace t id with
        | Some trace -> { Http.code = 200; content_type = "application/json"; body = trace }
        | None -> (
            match find_job t id with
            | None -> Router.error 404 (Printf.sprintf "no job %s" id)
            | Some _ ->
                Router.error 404
                  (Printf.sprintf
                     "no trace for job %s (tracing disabled, job not executed \
                      this boot, or trace evicted)"
                     id)));
    Router.get "/api/jobs/:id/result" (fun params _ ->
        let id = List.assoc "id" params in
        match find_job t id with
        | None -> Router.error 404 (Printf.sprintf "no job %s" id)
        | Some { state = Failed msg; _ } ->
            Router.error 409 (Printf.sprintf "job failed: %s" msg)
        | Some { state = Queued | Running; _ } -> Router.error 409 "job not finished"
        | Some { state = Done; id; _ } -> (
            match In_channel.with_open_bin (result_path t id) In_channel.input_all with
            | body -> { Http.code = 200; content_type = "application/json"; body }
            | exception Sys_error _ -> Router.error 500 "result document missing"));
  ]

(* ------------------------------------------------------------------ *)
(* Connection handling                                                *)

let handle_connection t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
      let t0 = Pi_obs.Clock.now () in
      let response, endpoint =
        match Http.read_request fd with
        | Error msg -> (Router.error 400 msg, "*bad-request*")
        | Ok req -> Router.dispatch (routes t) req
      in
      count_request endpoint;
      Metrics.observe m_request_seconds (Pi_obs.Clock.now () -. t0);
      Http.write_response fd response)

let accept_loop t () =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [ _ ], _, _ -> (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              let th = Thread.create (fun () -> handle_connection t fd) () in
              ignore (th : Thread.t)
          | exception Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Boot: replay the ledger                                            *)

(* Rebuild the job table from the WAL's history. A submit without a
   matching done/failed is an accepted-but-unfinished job: if its result
   document survived (crash after rename, before the done append), the
   done record is re-appended and the job counts as done — otherwise it is
   re-enqueued, and the observation cache turns everything it had already
   measured into fast replays. Duplicate submits (crash between append
   and ack lets a client resubmit) collapse onto one job via the key. *)
let replay_ledger t (replay : Ledger.replay) =
  List.iter
    (fun record ->
      match record_field "record" record with
      | Some "submit" -> (
          match record_field "key" record with
          | Some key -> (
              match Jobs.parse (J.member "params" record) with
              | Error _ -> () (* unparsable params: benchmark set changed; skip *)
              | Ok params when Jobs.key params <> key -> ()
              | Ok params ->
                  if not (Hashtbl.mem t.jobs key) then begin
                    let client =
                      match record_field "client" record with
                      | Some c -> c
                      | None -> "anon"
                    in
                    let job =
                      { id = Jobs.id_of_key key; jkey = key; params; client;
                        state = Queued; enqueued_at = Pi_obs.Clock.now () }
                    in
                    Hashtbl.replace t.jobs key job;
                    t.order <- key :: t.order
                  end)
          | None -> ())
      | Some "done" -> (
          match record_field "key" record with
          | Some key -> (
              match Hashtbl.find_opt t.jobs key with
              | Some job -> job.state <- Done
              | None -> () (* done without submit: corrupt-but-framed noise *))
          | None -> ())
      | Some "failed" -> (
          match (record_field "key" record, record_field "error" record) with
          | Some key, error -> (
              match Hashtbl.find_opt t.jobs key with
              | Some job ->
                  job.state <- Failed (Option.value error ~default:"unknown error")
              | None -> ())
          | None, _ -> ())
      | _ -> ())
    replay.Ledger.records;
  (* Re-dispatch the unfinished jobs, oldest first. *)
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.jobs key with
      | Some ({ state = Queued; _ } as job) ->
          if Sys.file_exists (result_path t job.id) then begin
            Ledger.append t.ledger (done_record ~key:job.jkey);
            job.state <- Done
          end
          else begin
            Metrics.inc m_recovered;
            job.enqueued_at <- Pi_obs.Clock.now ();
            ignore (Queue.enqueue ~client:job.client ~force:true t.queue job : bool)
          end
      | _ -> ())
    (List.rev t.order)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)

let write_port_file t =
  let path = port_file t.options.state_dir in
  let doc =
    J.Obj [ ("port", J.Int t.actual_port); ("pid", J.Int (Unix.getpid ())) ]
  in
  Pi_obs.Fs.write_file ~path (J.to_string doc ^ "\n")

let start options =
  Pi_obs.Fs.mkdir_p (Filename.concat options.state_dir "jobs");
  if options.queue_capacity < 1 then invalid_arg "Server.start: queue_capacity < 1";
  if options.workers < 1 then invalid_arg "Server.start: workers < 1";
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, options.port));
  Unix.listen listen_fd 64;
  let actual_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> options.port
  in
  let ledger, replay = Ledger.open_ ~path:(Filename.concat options.state_dir "ledger.wal") in
  let t =
    {
      options;
      listen_fd;
      actual_port;
      ledger;
      cache = Obs_cache.create ~dir:(Filename.concat options.state_dir "cache");
      table_mutex = Mutex.create ();
      jobs = Hashtbl.create 64;
      order = [];
      queue =
        Queue.create ~capacity:options.queue_capacity
          ~on_depth:(fun d -> Metrics.set m_queue_depth (float_of_int d))
          ();
      timeseries = Timeseries.create ();
      stop_sampler = None;
      traces_mutex = Mutex.create ();
      traces = [];
      stopping = Atomic.make false;
      threads = [];
      stopped = false;
    }
  in
  replay_ledger t replay;
  write_port_file t;
  if options.scrape_interval > 0.0 then
    t.stop_sampler <-
      Some
        (Timeseries.sampler ~interval:options.scrape_interval
           ~on_tick:(fun () -> ignore (Obs_cache.update_gauges t.cache : Obs_cache.stats))
           t.timeseries);
  let workers = List.init options.workers (fun _ -> Thread.create (worker t) ()) in
  let acceptor = Thread.create (accept_loop t) () in
  t.threads <- acceptor :: workers;
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stopping true;
    (* Closing the queue lets the workers drain what was admitted and then
       exit; the acceptor notices [stopping] within its select timeout. *)
    Queue.close t.queue;
    List.iter Thread.join t.threads;
    Option.iter (fun stop -> stop ()) t.stop_sampler;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Ledger.close t.ledger
  end

let run options =
  let t = start options in
  Printf.printf "interferometry serve: listening on 127.0.0.1:%d (state: %s)\n%!"
    t.actual_port options.state_dir;
  let want_stop = Atomic.make false in
  let handler _ = Atomic.set want_stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  while not (Atomic.get want_stop) do
    Unix.sleepf 0.1
  done;
  print_endline "interferometry serve: draining";
  stop t;
  print_endline "interferometry serve: stopped"
