(* Shared plumbing for the workloads: clocks, statistics, per-layer
   accumulators, process memory and the result record every workload
   returns. *)

let now = Pi_obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation percentile, as numpy's default: p in 0..100. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor r) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Set-up is repeated and reported as a median, so one slow repetition
   (a cold page cache, a busy neighbour) does not move the figure. *)
let setup_reps = 5

let timed_setup f =
  let rec go k times =
    let r, dt = time f in
    if k = 1 then (r, median (dt :: times)) else go (k - 1) (dt :: times)
  in
  go setup_reps []

(* VmHWM (peak resident set) of a process, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

(* Per-layer accumulator: named sums with sample counts. *)
module Acc = struct
  type t = (string, float * int) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    let s, n = Option.value (Hashtbl.find_opt t name) ~default:(0.0, 0) in
    Hashtbl.replace t name (s +. v, n + 1)

  let sum (t : t) name = fst (Option.value (Hashtbl.find_opt t name) ~default:(0.0, 0))
  let count (t : t) name = snd (Option.value (Hashtbl.find_opt t name) ~default:(0.0, 0))

  let mean t name =
    match count t name with 0 -> nan | n -> sum t name /. float_of_int n
end

(* [f ()], with the GC work this process did meanwhile added to [acc]. *)
let with_gc acc f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  Acc.add acc "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  Acc.add acc "gc.major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  r

let gc_layers acc ~ops =
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_mb_per_op", per_op (Acc.sum acc "gc.minor_words" *. 8.0 /. 1048576.0), "MB");
    ("gc.major_collections_per_op", per_op (Acc.sum acc "gc.major_collections"), "count");
  ]

(* Run [cycle 0], [cycle 1], ... for about [seconds]: stop at the cycle
   boundary nearest the target, so a run's length does not depend on
   where inside a long cycle the clock runs out. A traced run alternates
   untraced (even) and traced (odd) cycles and always has one of each.
   [min_cycles] (default 1) is a floor on the number of cycles. *)
let run_cycles ?(min_cycles = 1) ~seconds ~traced cycle =
  let t0 = now () in
  let rec go k =
    let c0 = now () in
    cycle k;
    let done_ = k + 1 in
    let elapsed = now () -. t0 in
    Printf.eprintf "cycle %d: %.3f s\n%!" k (now () -. c0);
    let per_cycle = elapsed /. float_of_int done_ in
    if (traced && done_ < 2) || done_ < min_cycles || elapsed +. (per_cycle /. 2.0) < seconds
    then go done_
    else done_
  in
  go 0

type metric = string * float * string (* name, value, unit *)

type outcome = {
  setup_s : float;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** end-to-end metrics (without [setup_s]) in an untraced run,
          per-layer metrics in a traced one *)
}

(* The op times of one arm of a run, by class (a benchmark, a study kind,
   a job kind). Throughput is the successful ops over the time all the
   attempted ops take at their class's median time: a burst of host
   interference that slows a few ops does not move it, while a change to
   the typical cost of any class does, in proportion to its ops. *)
module Ops = struct
  type t = { times : (string, float list) Hashtbl.t; mutable ok : int }

  let create () = { times = Hashtbl.create 16; ok = 0 }

  (* [dt] seconds of op time in class [cls]; an op that succeeded also
     counts with [succeeded]. *)
  let add t cls dt =
    Hashtbl.replace t.times cls (dt :: Option.value (Hashtbl.find_opt t.times cls) ~default:[])

  let succeeded ?(n = 1) t = t.ok <- t.ok + n

  let rate t =
    let time =
      Hashtbl.fold (fun _ ts acc -> acc +. (float_of_int (List.length ts) *. median ts)) t.times 0.0
    in
    float_of_int t.ok /. time
end

let unattributed_pct ~wall ~attributed =
  if wall <= 0.0 then nan else (wall -. attributed) /. wall *. 100.0

(* Tracing overhead: the traced run alternates untraced and traced
   cycles, so host drift falls on both arms alike. *)
let overhead_pct ~untraced_rate ~traced_rate =
  if untraced_rate <= 0.0 then nan
  else (untraced_rate -. traced_rate) /. untraced_rate *. 100.0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* An empty directory at [path], created with its parents. *)
let fresh_dir path =
  rm_rf path;
  let rec mkdir_p p =
    if not (Sys.file_exists p) then begin
      mkdir_p (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  mkdir_p path;
  path

let check_failed = ref 0

(* A failed output check: counted, reported on stderr, never fatal — the
   run still prints its result line with correct:false. *)
let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr check_failed;
        Printf.eprintf "check failed: %s\n%!" msg
      end)
    fmt
