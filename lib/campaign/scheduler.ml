module Clock = Pi_obs.Clock
module Metrics = Pi_obs.Metrics

type error = { message : string; backtrace : string }

type 'a completion = {
  index : int;
  result : ('a, error) result;
  elapsed : float;
  started : float;
  finished : float;
  attempts : int;
}

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* The one bounded-queue code path. [map] drains its task indices through
   it, and pi_serve's admission control enqueues daemon submissions into
   it — so queue-depth accounting, capacity rejection and fairness behave
   identically whether work arrives from the CLI or over the wire.

   Fairness: items are tagged with a client key and dequeued round-robin
   across clients (FIFO within one client), so one client with a deep
   backlog cannot starve the others. [map] uses a single client, which
   degenerates to plain FIFO — the order the old atomic-counter claim
   produced. *)
module Queue = struct
  module Fifo = Stdlib.Queue

  type 'a t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    per_client : (string, 'a Fifo.t) Hashtbl.t;
    ring : string Fifo.t;  (* clients with pending items, each exactly once *)
    mutable depth : int;
    mutable closed : bool;
    capacity : int option;
    on_depth : (int -> unit) option;
  }

  let create ?capacity ?on_depth () =
    (match capacity with
    | Some c when c < 1 -> invalid_arg "Scheduler.Queue.create: capacity < 1"
    | _ -> ());
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      per_client = Hashtbl.create 8;
      ring = Fifo.create ();
      depth = 0;
      closed = false;
      capacity;
      on_depth;
    }

  let depth t = Mutex.protect t.mutex (fun () -> t.depth)
  let capacity t = t.capacity
  let closed t = Mutex.protect t.mutex (fun () -> t.closed)

  let notify_depth t = Option.iter (fun f -> f t.depth) t.on_depth

  let enqueue ?(client = "") ?(force = false) t item =
    Mutex.protect t.mutex (fun () ->
        if t.closed then false
        else if
          (not force)
          && (match t.capacity with Some c -> t.depth >= c | None -> false)
        then false (* admission rejection: the caller turns this into a 429 *)
        else begin
          let fifo =
            match Hashtbl.find_opt t.per_client client with
            | Some fifo -> fifo
            | None ->
                let fifo = Fifo.create () in
                Hashtbl.replace t.per_client client fifo;
                fifo
          in
          if Fifo.is_empty fifo then Fifo.push client t.ring;
          Fifo.push item fifo;
          t.depth <- t.depth + 1;
          notify_depth t;
          Condition.signal t.nonempty;
          true
        end)

  let dequeue t =
    Mutex.protect t.mutex (fun () ->
        while t.depth = 0 && not t.closed do
          Condition.wait t.nonempty t.mutex
        done;
        if t.depth = 0 then None
        else begin
          let client = Fifo.pop t.ring in
          let fifo = Hashtbl.find t.per_client client in
          let item = Fifo.pop fifo in
          if Fifo.is_empty fifo then Hashtbl.remove t.per_client client
          else Fifo.push client t.ring;
          t.depth <- t.depth - 1;
          notify_depth t;
          Some item
        end)

  let close t =
    Mutex.protect t.mutex (fun () ->
        t.closed <- true;
        Condition.broadcast t.nonempty)
end

(* Scheduler instruments. Queue depth is a gauge sampled at every task
   transition; per-task latency feeds a histogram whose quantiles the
   `interferometry stats` scrape prints. *)
let m_jobs_ok =
  Metrics.counter ~help:"scheduler tasks completed, by status"
    ~labels:[ ("status", "ok") ] "pi_obs_scheduler_jobs_total"

let m_jobs_error =
  Metrics.counter ~help:"scheduler tasks completed, by status"
    ~labels:[ ("status", "error") ] "pi_obs_scheduler_jobs_total"

let m_queue_depth =
  Metrics.gauge ~help:"tasks not yet claimed by any worker" "pi_obs_scheduler_queue_depth"

let m_job_seconds =
  Metrics.histogram ~help:"per-task wall seconds (monotonic)" "pi_obs_scheduler_job_seconds"

let m_retries =
  Metrics.counter ~help:"task attempts that failed and were retried"
    "pi_obs_scheduler_retries_total"

let m_backoff_seconds =
  Metrics.histogram ~help:"backoff sleeps before task retries (seconds)"
    "pi_obs_scheduler_backoff_seconds"

let map ?jobs ?deadline ?(retries = 0) ?(backoff = 0.05) ?on_start ?on_retry ?on_finish f n
    =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Scheduler.map: jobs < 1";
  if retries < 0 then invalid_arg "Scheduler.map: retries < 0";
  if not (backoff >= 0.0) then invalid_arg "Scheduler.map: backoff < 0";
  if n < 0 then invalid_arg "Scheduler.map: negative task count";
  let results = Array.make n None in
  (* Task indices drain through the shared bounded queue — the same code
     path pi_serve admission uses — so the queue-depth gauge means the
     same thing for CLI campaigns and daemon submissions. One client, no
     capacity: plain FIFO, claims in ascending index order. *)
  let queue =
    Queue.create ~on_depth:(fun d -> Metrics.set m_queue_depth (float_of_int d)) ()
  in
  for i = 0 to n - 1 do
    ignore (Queue.enqueue queue i : bool)
  done;
  Queue.close queue;
  let callback_mutex = Mutex.create () in
  let pending () = Queue.depth queue in
  let notify callback =
    Mutex.protect callback_mutex (fun () -> callback ~pending:(pending ()))
  in
  let run_task i =
    Option.iter (fun cb -> notify (cb i)) on_start;
    (* Durations come from the monotonic clock: a wall-clock (NTP) step
       mid-task must not produce negative or inflated elapsed times. *)
    let started = Clock.now () in
    (* One attempt: the clock is read exactly once after [f] returns, so
       the deadline comparison, the reported overrun and the completion's
       window all agree on the same measurement. *)
    let run_attempt t0 =
      match f i with
      | value -> (
          let finished = Clock.now () in
          let elapsed = finished -. t0 in
          match deadline with
          | Some limit when elapsed > limit ->
              ( Error
                  {
                    message =
                      (* %.17g round-trips: a rounded elapsed could
                         print above the completion's own figure. *)
                      Printf.sprintf "deadline exceeded: %.17gs > %.3fs limit" elapsed
                        limit;
                    backtrace = "";
                  },
                finished )
          | _ -> (Ok value, finished))
      | exception exn ->
          ( Error
              {
                message = Printexc.to_string exn;
                backtrace = Printexc.get_backtrace ();
              },
            Clock.now () )
    in
    let rec attempt_loop attempt t0 =
      match run_attempt t0 with
      | (Error e, _) when attempt <= retries ->
          Metrics.inc m_retries;
          (* Exponential backoff with deterministic jitter: base * 2^k,
             scaled by [0.5, 1.5) from a hash of (index, attempt), so
             retry storms decorrelate without touching any PRNG state. *)
          let sleep =
            backoff
            *. (2.0 ** float_of_int (attempt - 1))
            *. (0.5 +. Fault.hash_uniform ~seed:0 (Printf.sprintf "backoff|%d|%d" i attempt))
          in
          Metrics.observe m_backoff_seconds sleep;
          Option.iter (fun cb -> notify (cb i ~attempt ~backoff:sleep e)) on_retry;
          if sleep > 0.0 then Unix.sleepf sleep;
          attempt_loop (attempt + 1) (Clock.now ())
      | (result, finished) -> (result, finished, attempt)
    in
    let result, finished, attempts = attempt_loop 1 started in
    let elapsed = finished -. started in
    Metrics.observe m_job_seconds elapsed;
    Metrics.inc (match result with Ok _ -> m_jobs_ok | Error _ -> m_jobs_error);
    let completion = { index = i; result; elapsed; started; finished; attempts } in
    (* Distinct indices: each slot is written by exactly one worker. *)
    results.(i) <- Some completion;
    Option.iter (fun cb -> notify (cb completion)) on_finish
  in
  let worker () =
    let rec loop () =
      match Queue.dequeue queue with
      | Some i ->
          run_task i;
          loop ()
      | None -> ()
    in
    loop ()
  in
  let spawned = min jobs n - 1 in
  if spawned <= 0 then worker ()
  else begin
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains
  end;
  Array.map
    (function
      | Some completion -> completion
      | None -> assert false (* every index < n was claimed exactly once *))
    results
