(* Fixed-capacity ring-buffer time series over the metrics registry.

   Single-writer / many-reader: exactly one thread (the sampler loop, or
   whoever calls [record]) appends points; readers never block it. Each
   ring publishes its write position through one [Atomic.t] — a reader
   loads the position (acquire), then reads only slots strictly older
   than it, so the slots it touches were fully written before the
   position was published. A reader racing a wrap can observe a slot
   that was just overwritten, which yields a *newer* point in an *older*
   position — harmless for monitoring, and impossible in the tests,
   which never read concurrently with writes. *)

type point = { ts : float; value : float }

type ring = {
  ts_buf : float array;
  v_buf : float array;
  written : int Atomic.t; (* total points ever appended *)
}

let ring capacity =
  {
    ts_buf = Array.make capacity 0.0;
    v_buf = Array.make capacity 0.0;
    written = Atomic.make 0;
  }

let ring_push r ~capacity ~ts ~value =
  let n = Atomic.get r.written in
  let slot = n mod capacity in
  r.ts_buf.(slot) <- ts;
  r.v_buf.(slot) <- value;
  Atomic.set r.written (n + 1)

let ring_points r ~capacity =
  let n = Atomic.get r.written in
  let count = min n capacity in
  let start = n - count in
  List.init count (fun i ->
      let slot = (start + i) mod capacity in
      { ts = r.ts_buf.(slot); value = r.v_buf.(slot) })

type series = {
  s_name : string;
  s_labels : (string * string) list;
  raw : ring;
  coarse : ring;
  (* downsampling accumulator — touched only by the single writer *)
  mutable acc_sum : float;
  mutable acc_n : int;
  mutable acc_ts : float;
}

type t = {
  capacity : int;
  downsample : int;
  mutex : Mutex.t; (* guards the series table; rings are lock-free *)
  table : (string, series) Hashtbl.t;
  mutable series_list : series list; (* registration order, newest first *)
}

let m_points =
  Metrics.counter ~help:"time-series points recorded across all stores"
    "pi_obs_timeseries_points_total"

let m_scrapes =
  Metrics.counter ~help:"registry scrapes folded into a time-series store"
    "pi_obs_timeseries_scrapes_total"

let m_series =
  Metrics.gauge ~help:"live time series across all stores" "pi_obs_timeseries_series"

let create ?(capacity = 512) ?(downsample = 8) () =
  if capacity < 1 then invalid_arg "Timeseries.create: capacity must be >= 1";
  if downsample < 2 then invalid_arg "Timeseries.create: downsample must be >= 2";
  {
    capacity;
    downsample;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    series_list = [];
  }

let downsample t = t.downsample

let series_key name labels =
  let buf = Buffer.create 64 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let find_or_create t name labels =
  let key = series_key name labels in
  match Hashtbl.find_opt t.table key with
  | Some s -> s
  | None ->
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.table key with
          | Some s -> s
          | None ->
              let s =
                {
                  s_name = name;
                  s_labels = labels;
                  raw = ring t.capacity;
                  coarse = ring t.capacity;
                  acc_sum = 0.0;
                  acc_n = 0;
                  acc_ts = 0.0;
                }
              in
              Hashtbl.replace t.table key s;
              t.series_list <- s :: t.series_list;
              Metrics.gauge_add m_series 1.0;
              s)

let push t s ~ts ~value =
  ring_push s.raw ~capacity:t.capacity ~ts ~value;
  Metrics.inc m_points;
  s.acc_sum <- s.acc_sum +. value;
  s.acc_n <- s.acc_n + 1;
  s.acc_ts <- ts;
  if s.acc_n >= t.downsample then begin
    (* One coarse point per [downsample] raw points: the mean, stamped
       with the last contributing timestamp. Deterministic — no clock
       reads, no data-dependent branching. *)
    ring_push s.coarse ~capacity:t.capacity ~ts:s.acc_ts
      ~value:(s.acc_sum /. float_of_int t.downsample);
    s.acc_sum <- 0.0;
    s.acc_n <- 0
  end

let observe t ?ts ~name ?(labels = []) value =
  let ts = match ts with Some ts -> ts | None -> Clock.now () in
  push t (find_or_create t name labels) ~ts ~value

(* Flatten a scrape sample into the numeric series it contributes.
   Histograms become two series so rates and means stay derivable. *)
let sample_values (s : Metrics.sample) =
  match s.Metrics.value with
  | Metrics.Counter n -> [ (s.Metrics.name, s.Metrics.labels, float_of_int n) ]
  | Metrics.Gauge v -> [ (s.Metrics.name, s.Metrics.labels, v) ]
  | Metrics.Histogram h ->
      [
        (s.Metrics.name ^ "_count", s.Metrics.labels, float_of_int h.Metrics.count);
        (s.Metrics.name ^ "_sum", s.Metrics.labels, h.Metrics.sum);
      ]

let record t ?ts samples =
  let ts = match ts with Some ts -> ts | None -> Clock.now () in
  List.iter
    (fun s ->
      List.iter
        (fun (name, labels, value) -> push t (find_or_create t name labels) ~ts ~value)
        (sample_values s))
    samples;
  Metrics.inc m_scrapes

type series_snapshot = {
  name : string;
  labels : (string * string) list;
  points : point list;
  downsampled : point list;
}

let snapshot t =
  let series = Mutex.protect t.mutex (fun () -> t.series_list) in
  List.map
    (fun s ->
      {
        name = s.s_name;
        labels = s.s_labels;
        points = ring_points s.raw ~capacity:t.capacity;
        downsampled = ring_points s.coarse ~capacity:t.capacity;
      })
    series
  |> List.sort (fun a b ->
         match compare a.name b.name with 0 -> compare a.labels b.labels | c -> c)

(* ---------------- JSON export ---------------- *)

let points_json pts =
  Json.List (List.map (fun p -> Json.List [ Json.number p.ts; Json.number p.value ]) pts)

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ("capacity", Json.Int t.capacity);
         ("downsample", Json.Int t.downsample);
         ( "series",
           Json.List
             (List.map
                (fun s ->
                  Json.Obj
                    [
                      ("name", Json.String s.name);
                      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels));
                      ("points", points_json s.points);
                      ("downsampled", points_json s.downsampled);
                    ])
                (snapshot t)) );
       ])

(* ---------------- Background sampler ---------------- *)

let sampler ?(interval = 1.0) ?(on_tick = fun () -> ()) t =
  if interval <= 0.0 then invalid_arg "Timeseries.sampler: interval must be > 0";
  let stop = Atomic.make false in
  let tick () =
    (try on_tick () with _ -> ());
    record t (Metrics.scrape ())
  in
  let thread =
    Thread.create
      (fun () ->
        (* Sleep in small slices so [stop] latency stays well under the
           scrape interval even for 1 s+ intervals. *)
        let slice = Float.min interval 0.05 in
        let rec loop elapsed =
          if not (Atomic.get stop) then
            if elapsed >= interval then begin
              tick ();
              loop 0.0
            end
            else begin
              Thread.delay slice;
              loop (elapsed +. slice)
            end
        in
        tick ();
        loop 0.0)
      ()
  in
  fun () ->
    if not (Atomic.get stop) then begin
      Atomic.set stop true;
      Thread.join thread
    end
