module E = Interferometry.Experiment
module Dataset_io = Interferometry.Dataset_io
module J = Pi_obs.Json

let m_workers =
  Pi_obs.Metrics.gauge ~help:"live campaign worker processes" "pi_obs_coordinator_workers"

let m_jobs =
  Pi_obs.Metrics.counter ~help:"observation jobs dispatched to worker processes"
    "pi_obs_coordinator_jobs_total"

let m_deaths =
  Pi_obs.Metrics.counter ~help:"worker processes that died mid-campaign"
    "pi_obs_coordinator_worker_deaths_total"

let m_redispatches =
  Pi_obs.Metrics.counter ~help:"observation jobs re-dispatched after a worker death"
    "pi_obs_coordinator_redispatches_total"

(* ------------------------------------------------------------------ *)
(* Config reconstruction                                               *)
(* ------------------------------------------------------------------ *)

(* The single decoder for the caller-facing config knobs recorded in
   manifests and bundles. [campaign --resume], the worker hello, and
   [bundle replay] all rebuild the experiment config through this one
   function — any skew between them would silently break the "same
   digest = same measurement" contract, so there is exactly one copy. *)
let config_of_args args =
  let geti name default =
    match List.assoc_opt name args with Some (J.Int i) -> i | _ -> default
  in
  let getb name = match List.assoc_opt name args with Some (J.Bool b) -> b | _ -> false in
  let base = if getb "quick" then E.quick_config else E.default_config in
  {
    base with
    E.master_seed = geti "seed" base.E.master_seed;
    scale = geti "scale" base.E.scale;
    heap_random = getb "heap_random";
  }

(* ------------------------------------------------------------------ *)
(* Frame protocol                                                      *)
(* ------------------------------------------------------------------ *)

(* One message = 4-byte big-endian payload length + a Pi_obs.Json
   object. Length-prefix framing (rather than line framing) keeps the
   protocol self-delimiting even if a payload ever contains a newline,
   and makes truncation — the signature of a dead worker — unambiguous:
   any short read is EOF, never a parse of half a message. *)

let max_frame = 16 * 1024 * 1024

let rec retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let write_frame fd json =
  let payload = J.to_string json in
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  Pi_obs.Fs.write_all fd (Bytes.unsafe_to_string buf)

(* [false] = EOF before [len] bytes arrived. *)
let read_exact fd buf len =
  let off = ref 0 and eof = ref false in
  while (not !eof) && !off < len do
    match retry_eintr (fun () -> Unix.read fd buf !off (len - !off)) with
    | 0 -> eof := true
    | n -> off := !off + n
  done;
  not !eof

let read_frame fd =
  let hdr = Bytes.create 4 in
  if not (read_exact fd hdr 4) then Error `Eof
  else
    let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if n < 0 || n > max_frame then Error (`Garbage (Printf.sprintf "frame length %d" n))
    else
      let payload = Bytes.create n in
      if not (read_exact fd payload n) then Error `Eof
      else
        match J.parse (Bytes.to_string payload) with
        | Ok json -> Ok json
        | Error e -> Error (`Garbage e)

(* A malformed message from the peer raises [J.Type_error]: a protocol
   error, not a crash. *)
let op j = match J.member "op" j with J.String s -> s | _ -> ""

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

let worker_main () =
  (* The protocol rides the original stdout; anything else that prints —
     a stray [Printf.printf] in library code, a runtime warning — must
     not be able to corrupt a frame, so fd 1 is re-pointed at stderr and
     only this function holds the real pipe. *)
  let proto_out = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  let reply json = write_frame proto_out json in
  let config = ref None in
  let prepared : (string, E.prepared) Hashtbl.t = Hashtbl.create 8 in
  let fail_protocol msg =
    (try reply (J.Obj [ ("op", J.String "error"); ("message", J.String msg) ])
     with Unix.Unix_error _ -> ());
    exit 1
  in
  let rec loop () =
    match read_frame Unix.stdin with
    | Error `Eof -> exit 0 (* coordinator closed the pipe: clean shutdown *)
    | Error (`Garbage msg) -> fail_protocol ("bad request frame: " ^ msg)
    | Ok msg -> (
        match op msg with
        | "hello" -> (
            match
              let args = match J.member "config_args" msg with J.Obj f -> f | _ -> [] in
              let cfg = config_of_args args in
              let digest = Obs_cache.config_digest cfg in
              let want = J.get_string "config_digest" msg in
              if digest <> want then
                Error
                  (Printf.sprintf
                     "config digest mismatch: coordinator wants %s, worker rebuilt %s \
                      (version skew between coordinator and worker binaries?)"
                     want digest)
              else begin
                config := Some cfg;
                Ok digest
              end
            with
            | Ok digest ->
                reply (J.Obj [ ("op", J.String "ready"); ("config_digest", J.String digest) ]);
                loop ()
            | Error msg | (exception J.Type_error msg) ->
                reply (J.Obj [ ("op", J.String "error"); ("message", J.String msg) ]);
                exit 1)
        | "observe" -> (
            let bench = J.get_string "bench" msg and seed = J.get_int "seed" msg in
            let respond = function
              | Ok row ->
                  reply
                    (J.Obj
                       [
                         ("op", J.String "ok");
                         ("bench", J.String bench);
                         ("seed", J.Int seed);
                         ("row", J.String row);
                       ])
              | Error err ->
                  reply
                    (J.Obj
                       [
                         ("op", J.String "fail");
                         ("bench", J.String bench);
                         ("seed", J.Int seed);
                         ("error", J.String err);
                       ])
            in
            match !config with
            | None -> fail_protocol "observe before hello"
            | Some cfg ->
                (match
                   let prep =
                     match Hashtbl.find_opt prepared bench with
                     | Some p -> p
                     | None ->
                         let p = E.prepare ~config:cfg (Pi_workloads.Spec.find bench) in
                         Hashtbl.add prepared bench p;
                         p
                   in
                   E.observe_seed prep seed
                 with
                | obs -> respond (Ok (Dataset_io.observation_to_row obs))
                | exception e -> respond (Error (Printexc.to_string e)));
                loop ())
        | "exit" -> exit 0
        | other -> fail_protocol ("unknown op " ^ other))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                    *)
(* ------------------------------------------------------------------ *)

type worker = {
  mutable pid : int;
  mutable req : Unix.file_descr;  (* coordinator -> worker stdin *)
  mutable resp : Unix.file_descr;  (* worker stdout -> coordinator *)
}

type t = {
  exe : string;
  argv : string array;
  hello : J.t;
  workers : worker array;
  idle : worker Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap w =
  close_quietly w.req;
  close_quietly w.resp;
  try ignore (retry_eintr (fun () -> Unix.waitpid [] w.pid))
  with Unix.Unix_error _ -> ()

let spawn ~exe ~argv ~hello =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* The coordinator-side ends must not leak into workers: an inherited
     write end would keep a dead worker's request pipe readable and mask
     the EOF that *is* the death signal. *)
  Unix.set_close_on_exec req_w;
  Unix.set_close_on_exec resp_r;
  let pid = Unix.create_process exe argv req_r resp_w Unix.stderr in
  Unix.close req_r;
  Unix.close resp_w;
  let w = { pid; req = req_w; resp = resp_r } in
  let fail msg =
    reap w;
    failwith ("campaign worker failed to start: " ^ msg)
  in
  (try write_frame w.req hello with Unix.Unix_error (e, _, _) -> fail (Unix.error_message e));
  match read_frame w.resp with
  | Ok reply when op reply = "ready" -> w
  | Ok reply -> (
      match J.member "message" reply with
      | J.String m -> fail m
      | _ -> fail ("unexpected reply op " ^ op reply))
  | Error `Eof -> fail "worker exited during handshake"
  | Error (`Garbage msg) -> fail ("bad handshake frame: " ^ msg)

let create ?exe ?(subcommand = "campaign-worker") ~workers:n ~config_args () =
  if n < 1 then invalid_arg "Coordinator.create: workers < 1";
  (* A worker dying mid-write must surface as EPIPE on our write(2), not
     kill the whole coordinator with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = match exe with Some e -> e | None -> Sys.executable_name in
  let argv = [| exe; subcommand |] in
  let digest = Obs_cache.config_digest (config_of_args config_args) in
  let hello =
    J.Obj
      [
        ("op", J.String "hello");
        ("config_args", J.Obj config_args);
        ("config_digest", J.String digest);
      ]
  in
  let workers = Array.init n (fun _ -> spawn ~exe ~argv ~hello) in
  let idle = Queue.create () in
  Array.iter (fun w -> Queue.push w idle) workers;
  Pi_obs.Metrics.set m_workers (float_of_int n);
  { exe; argv; hello; workers; idle; mutex = Mutex.create (); nonempty = Condition.create () }

let workers t = Array.length t.workers
let pids t = Array.to_list (Array.map (fun w -> w.pid) t.workers)

let lease t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.idle do
    Condition.wait t.nonempty t.mutex
  done;
  let w = Queue.pop t.idle in
  Mutex.unlock t.mutex;
  w

let release t w =
  Mutex.lock t.mutex;
  Queue.push w t.idle;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let max_respawns_per_job = 3

exception Worker_died of string

let observe t ~bench ~seed =
  let request =
    J.Obj [ ("op", J.String "observe"); ("bench", J.String bench); ("seed", J.Int seed) ]
  in
  let w = lease t in
  (* The worker (possibly respawned in place) always returns to the pool:
     job-level failures go to the scheduler as ordinary job errors, and a
     slot whose respawn failed will simply re-attempt the respawn on its
     next lease. *)
  Fun.protect ~finally:(fun () -> release t w)
  @@ fun () ->
  let rec dispatch ~respawns =
    let exchange () =
      try
        write_frame w.req request;
        read_frame w.resp
      with Unix.Unix_error (e, _, _) -> Error (`Died (Unix.error_message e))
    in
    let died reason =
      (* EOF/EPIPE/garbage on the pipe all mean the worker process is
         unusable: reap it, respawn into the same pool slot, and
         re-dispatch the job. The observation is deterministic in
         (bench, config, seed) and the worker never touches shared
         state, so a re-run is exactly equivalent — this is what makes
         SIGKILL-during-job invisible in the output. *)
      Pi_obs.Metrics.inc m_deaths;
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap w;
      if respawns >= max_respawns_per_job then
        raise
          (Worker_died
             (Printf.sprintf "worker for %s seed %d died %d times (%s); giving up" bench
                seed (respawns + 1) reason))
      else begin
        let fresh = spawn ~exe:t.exe ~argv:t.argv ~hello:t.hello in
        w.pid <- fresh.pid;
        w.req <- fresh.req;
        w.resp <- fresh.resp;
        Pi_obs.Metrics.inc m_redispatches;
        dispatch ~respawns:(respawns + 1)
      end
    in
    match exchange () with
    | Error (`Died reason) | Error (`Garbage reason) -> died reason
    | Error `Eof -> died "eof"
    | Ok reply -> (
        match op reply with
        | "ok" -> (
            match
              (J.get_string "bench" reply, J.get_int "seed" reply, J.get_string "row" reply)
            with
            | b, s, _ when b <> bench || s <> seed ->
                died (Printf.sprintf "reply for wrong job %s/%d" b s)
            | _, _, row -> (
                match Dataset_io.observation_of_row row with
                | Ok obs ->
                    Pi_obs.Metrics.inc m_jobs;
                    obs
                | Error e -> died ("unparseable observation row: " ^ e))
            | exception J.Type_error msg -> died msg)
        | "fail" ->
            (* The worker is healthy; the job itself raised. Propagate as
               an ordinary job error so the scheduler's retry/failure
               accounting treats process-pool campaigns exactly like
               in-process ones. *)
            let msg = try J.get_string "error" reply with J.Type_error _ -> "unknown worker error" in
            Pi_obs.Metrics.inc m_jobs;
            failwith msg
        | other -> died ("unexpected reply op " ^ other))
  in
  dispatch ~respawns:0

let observe_hook t ~bench ~prepared:_ ~seed = observe t ~bench ~seed

let shutdown t =
  Array.iter
    (fun w ->
      (* Closing the request pipe is the shutdown signal: the worker's
         next read sees EOF and exits 0. Then reap. *)
      reap w)
    t.workers;
  Pi_obs.Metrics.set m_workers 0.0
