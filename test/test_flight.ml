(* Tests for the flight recorder: Timeseries ring buffers (wraparound,
   two-tier downsampling determinism, JSON export), the History run
   ledger (digest framing, torn-tail truncation, skip-and-count on
   corrupt lines, self-healing append) and the regression comparator the
   `interferometry compare` sentinel is built on. Ledger files live in a
   fresh temp directory per test; Timeseries stores are local values, so
   nothing here leaks into the process-global metrics registry beyond
   the instruments pi_obs itself owns. *)

module Timeseries = Pi_obs.Timeseries
module History = Pi_obs.History
module Metrics = Pi_obs.Metrics

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pi_flight_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    dir

(* ---------------- Timeseries: rings and downsampling ---------------- *)

let series_named snap name =
  match List.find_opt (fun s -> s.Timeseries.name = name) snap with
  | Some s -> s
  | None -> Alcotest.failf "no series %s in snapshot" name

let test_ring_wraparound () =
  let t = Timeseries.create ~capacity:4 ~downsample:2 () in
  for i = 1 to 10 do
    Timeseries.observe t ~ts:(float_of_int i) ~name:"flight_test_wrap" (float_of_int (i * 100))
  done;
  let s = series_named (Timeseries.snapshot t) "flight_test_wrap" in
  (* Raw tier: last [capacity] points, oldest first. *)
  Alcotest.(check (list (float 0.0)))
    "raw keeps the newest capacity points in order"
    [ 700.; 800.; 900.; 1000. ]
    (List.map (fun (p : Timeseries.point) -> p.Timeseries.value) s.Timeseries.points);
  Alcotest.(check (list (float 0.0)))
    "raw timestamps track the pushes" [ 7.; 8.; 9.; 10. ]
    (List.map (fun (p : Timeseries.point) -> p.Timeseries.ts) s.Timeseries.points);
  (* Coarse tier: pairs folded to their mean, stamped with the last
     contributing ts. 10 points make 5 coarse points; capacity 4 keeps
     the newest 4. *)
  Alcotest.(check (list (float 0.0)))
    "coarse points are pair means, newest four"
    [ 350.; 550.; 750.; 950. ]
    (List.map (fun (p : Timeseries.point) -> p.Timeseries.value) s.Timeseries.downsampled);
  Alcotest.(check (list (float 0.0)))
    "coarse ts is the last contributing point's" [ 4.; 6.; 8.; 10. ]
    (List.map (fun (p : Timeseries.point) -> p.Timeseries.ts) s.Timeseries.downsampled)

let test_downsampling_deterministic () =
  (* Folding the same points in the same order yields bit-identical
     tiers — the property that makes recorded series comparable. *)
  let mk () =
    let t = Timeseries.create ~capacity:8 ~downsample:4 () in
    for i = 1 to 50 do
      Timeseries.observe t ~ts:(float_of_int i *. 0.125) ~name:"flight_test_det"
        (Float.of_int i *. 1.0e-3 *. Float.of_int ((i * 7919) mod 101))
    done;
    series_named (Timeseries.snapshot t) "flight_test_det"
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "two identical fold sequences, identical snapshots" true (a = b);
  Alcotest.(check int) "coarse tier is 50/4 folds, ring-bounded" 8
    (List.length a.Timeseries.downsampled)

let test_histogram_flattening () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0 |] "flight_test_hist_seconds" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  let t = Timeseries.create ~capacity:4 ~downsample:2 () in
  Timeseries.record t ~ts:1.0 (Metrics.scrape ());
  let snap = Timeseries.snapshot t in
  let count = series_named snap "flight_test_hist_seconds_count" in
  let sum = series_named snap "flight_test_hist_seconds_sum" in
  (match count.Timeseries.points with
  | [ p ] -> Alcotest.(check (float 0.0)) "count series carries the count" 2.0 p.Timeseries.value
  | ps -> Alcotest.failf "expected 1 count point, got %d" (List.length ps));
  match sum.Timeseries.points with
  | [ p ] -> Alcotest.(check (float 0.0)) "sum series carries the sum" 2.0 p.Timeseries.value
  | ps -> Alcotest.failf "expected 1 sum point, got %d" (List.length ps)

let test_timeseries_json_parses () =
  let t = Timeseries.create ~capacity:4 ~downsample:2 () in
  Timeseries.observe t ~ts:1.0 ~name:"flight_test_json" ~labels:[ ("k", "v\"q") ] 42.0;
  Timeseries.observe t ~ts:2.0 ~name:"flight_test_json" ~labels:[ ("k", "v\"q") ] 43.0;
  let module J = Pi_obs.Json in
  match J.parse (Timeseries.to_json t) with
  | Error msg -> Alcotest.failf "to_json output does not parse: %s" msg
  | Ok (J.Obj fields) -> (
      (match List.assoc_opt "capacity" fields with
      | Some (J.Int 4) -> ()
      | _ -> Alcotest.fail "capacity field");
      match List.assoc_opt "series" fields with
      | Some (J.List (_ :: _ as series)) ->
          let found =
            List.exists
              (function
                | J.Obj sf -> (
                    match (List.assoc_opt "name" sf, List.assoc_opt "points" sf) with
                    | Some (J.String "flight_test_json"), Some (J.List [ _; _ ]) -> true
                    | _ -> false)
                | _ -> false)
              series
          in
          Alcotest.(check bool) "our series exported with both points" true found
      | _ -> Alcotest.fail "series list")
  | Ok _ -> Alcotest.fail "to_json output is not an object"

let test_sampler_collects () =
  let t = Timeseries.create ~capacity:32 ~downsample:4 () in
  let ticks = ref 0 in
  let stop = Timeseries.sampler ~interval:0.01 ~on_tick:(fun () -> incr ticks) t in
  Unix.sleepf 0.08;
  stop ();
  stop ();
  (* idempotent *)
  let snap = Timeseries.snapshot t in
  Alcotest.(check bool) "sampler scraped at least twice" true (!ticks >= 2);
  Alcotest.(check bool) "store holds series from the registry" true (snap <> []);
  let points_after_stop =
    List.fold_left (fun acc s -> acc + List.length s.Timeseries.points) 0 snap
  in
  Unix.sleepf 0.05;
  let points_later =
    List.fold_left
      (fun acc s -> acc + List.length s.Timeseries.points)
      0 (Timeseries.snapshot t)
  in
  Alcotest.(check int) "stop really stops the loop" points_after_stop points_later

(* ---------------- History: framing and ledger I/O ---------------- *)

let record ?(ts = 1000.0) ?(label = "quick") metrics =
  History.make ~ts ~kind:"campaign" ~label ~config_digest:"cafe0123" metrics

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_history_frame_roundtrip () =
  let r = record [ ("obs_per_sec", 123.5); ("failed_jobs", 0.0); ("obs_per_sec", 999.0) ] in
  (* make dedups: first binding wins, sorted by name. *)
  Alcotest.(check (list (pair string (float 0.0))))
    "metrics sorted and deduped"
    [ ("failed_jobs", 0.0); ("obs_per_sec", 123.5) ]
    r.History.metrics;
  let path = Filename.concat (temp_dir ()) "history.jsonl" in
  History.append ~path r;
  let line = read_file path in
  (match Pi_obs.Framed_log.unframe (String.sub line 0 (String.length line - 1)) with
  | Some payload ->
      Alcotest.(check string) "one framed line" line (Pi_obs.Framed_log.frame payload)
  | None -> Alcotest.fail "appended line fails its digest");
  (match (History.read ~path).History.records with
  | [ r' ] -> Alcotest.(check bool) "frame/parse round-trips the record" true (r = r')
  | _ -> Alcotest.fail "framed record does not parse");
  (* Any payload corruption flips the digest check. *)
  write_file path (String.map (fun c -> if c = '5' then '6' else c) line);
  let corrupt = History.read ~path in
  Alcotest.(check int) "corrupted payload must not parse" 0 (List.length corrupt.History.records);
  Alcotest.(check int) "it counts as one invalid line" 1 corrupt.History.invalid_lines

(* Three lines as an earlier release's [History.append] wrote them: a label
   with an escaped quote, newline and control character, integral metrics
   below and above 1e12, and non-finite metrics, which that writer rendered
   as 0. The ledger format is kept, not just the code: each line must read
   back to its record and re-render to the same bytes. *)
let legacy_history =
  [
    "7890b94b8f0db3d3e415cea9e3f17047 {\"ts\":1760886945.123456,\"kind\":\"campaign\",\"label\":\"quote\\\" nl\\n ctl\\u0001 tab\\t end\",\"config_digest\":\"cafe0123\",\"metrics\":{\"big_count\":25000000000000,\"obs_per_sec\":123.456,\"total_jobs\":400000000000,\"wall_seconds\":0.1}}\n";
    "1ef7010599f72c22eaa9a8fc3b48f19e {\"ts\":1700000000,\"kind\":\"perf\",\"label\":\"pipeline\",\"config_digest\":\"0123abcd\",\"metrics\":{\"failed_jobs\":0,\"r_squared\":0,\"speedup\":0}}\n";
    "7deaaf4d8ac31d0e65f8ac90566f02c7 {\"ts\":1760886999.5,\"kind\":\"sweep\",\"label\":\"400.perlbench\",\"config_digest\":\"d1g35t\",\"metrics\":{\"cpi\":1.2345678901234567,\"huge\":2.5e+20,\"neg\":-3,\"tiny\":1e-07}}\n";
  ]

let legacy_records ~non_finite =
  [
    History.make ~ts:1760886945.123456 ~kind:"campaign"
      ~label:"quote\" nl\n ctl\001 tab\t end" ~config_digest:"cafe0123"
      [ ("obs_per_sec", 123.456); ("total_jobs", 4e11); ("big_count", 2.5e13); ("wall_seconds", 0.1) ];
    History.make ~ts:1700000000.0 ~kind:"perf" ~label:"pipeline" ~config_digest:"0123abcd"
      [ ("r_squared", non_finite Float.nan); ("speedup", non_finite Float.infinity); ("failed_jobs", 0.0) ];
    History.make ~ts:1760886999.5 ~kind:"sweep" ~label:"400.perlbench" ~config_digest:"d1g35t"
      [ ("cpi", 1.2345678901234567); ("tiny", 1e-7); ("huge", 2.5e20); ("neg", -3.0) ];
  ]

let test_history_legacy_format () =
  let dir = temp_dir () in
  let legacy = Filename.concat dir "legacy.jsonl" in
  write_file legacy (String.concat "" legacy_history);
  let replay = History.read ~path:legacy in
  Alcotest.(check int) "every legacy line is valid" 0 replay.History.invalid_lines;
  Alcotest.(check bool) "legacy lines read back to their records" true
    (replay.History.records = legacy_records ~non_finite:(fun _ -> 0.0));
  let rerendered = Filename.concat dir "rerendered.jsonl" in
  List.iter (History.append ~path:rerendered) replay.History.records;
  Alcotest.(check (list string)) "re-rendering gives the legacy bytes" legacy_history
    (List.map (fun l -> l ^ "\n")
       (List.filter (( <> ) "") (String.split_on_char '\n' (read_file rerendered))));
  let fresh = Filename.concat dir "fresh.jsonl" in
  List.iter (History.append ~path:fresh) (legacy_records ~non_finite:Fun.id);
  Alcotest.(check string) "non-finite metrics still render as 0"
    (String.concat "" legacy_history) (read_file fresh)

let test_history_append_read_torn_tail () =
  let dir = temp_dir () in
  let path = Filename.concat dir "history.jsonl" in
  History.append ~path (record ~ts:1.0 [ ("obs_per_sec", 10.0) ]);
  History.append ~path (record ~ts:2.0 [ ("obs_per_sec", 20.0) ]);
  History.append ~path (record ~ts:3.0 [ ("obs_per_sec", 30.0) ]);
  let replay = History.read ~path in
  Alcotest.(check int) "three clean records" 3 (List.length replay.History.records);
  Alcotest.(check int) "no invalid lines" 0 replay.History.invalid_lines;
  Alcotest.(check bool) "no torn tail" false replay.History.torn_tail;
  Alcotest.(check (list (float 0.0)))
    "records in file order" [ 1.0; 2.0; 3.0 ]
    (List.map (fun (r : History.record) -> r.History.ts) replay.History.records);
  (* Tear the tail: chop the last 10 bytes (newline included) as a crash
     mid-append would. The torn fragment is not misparsed. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 10);
  Unix.close fd;
  let torn = History.read ~path in
  Alcotest.(check int) "torn tail drops only the last record" 2
    (List.length torn.History.records);
  Alcotest.(check bool) "torn tail detected" true torn.History.torn_tail;
  Alcotest.(check int) "a torn tail is not an invalid line" 0 torn.History.invalid_lines;
  (* Appending self-heals: the new record starts on a fresh line; the
     fragment becomes one counted invalid line. *)
  History.append ~path (record ~ts:4.0 [ ("obs_per_sec", 40.0) ]);
  let healed = History.read ~path in
  Alcotest.(check (list (float 0.0)))
    "healed ledger keeps old records plus the new one" [ 1.0; 2.0; 4.0 ]
    (List.map (fun (r : History.record) -> r.History.ts) healed.History.records);
  Alcotest.(check int) "the fragment is now one invalid line" 1
    healed.History.invalid_lines;
  Alcotest.(check bool) "tail is whole again" false healed.History.torn_tail

let test_history_skips_corrupt_lines () =
  let dir = temp_dir () in
  let path = Filename.concat dir "history.jsonl" in
  History.append ~path (record ~ts:1.0 [ ("speedup", 2.0) ]);
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "this is not a framed record\n\n";
  close_out oc;
  History.append ~path (record ~ts:2.0 [ ("speedup", 3.0) ]);
  let replay = History.read ~path in
  Alcotest.(check (list (float 0.0)))
    "good records survive a corrupt middle" [ 1.0; 2.0 ]
    (List.map (fun (r : History.record) -> r.History.ts) replay.History.records);
  Alcotest.(check int) "one corrupt line counted (blank lines skip free)" 1
    replay.History.invalid_lines;
  (* A missing ledger reads as empty, not an error. *)
  let empty = History.read ~path:(Filename.concat dir "absent.jsonl") in
  Alcotest.(check int) "missing file is an empty ledger" 0
    (List.length empty.History.records)

(* ---------------- The regression comparator ---------------- *)

let test_compare_identical_clean () =
  let bag = [ ("obs_per_sec", 100.0); ("r_squared", 0.97); ("failed_jobs", 0.0) ] in
  let deltas = History.compare_metrics ~before:bag ~after:bag () in
  Alcotest.(check int) "every shared metric produces a delta" 3 (List.length deltas);
  Alcotest.(check int) "identical bags have no regressions" 0
    (List.length (History.regressions deltas))

let test_compare_flags_throughput_drop () =
  let before = [ ("obs_per_sec", 1000.0); ("r_squared", 0.99) ] in
  let after = [ ("obs_per_sec", 250.0); ("r_squared", 0.99) ] in
  let regs = History.regressions (History.compare_metrics ~before ~after ()) in
  (match regs with
  | [ d ] ->
      Alcotest.(check string) "the throughput metric regressed" "obs_per_sec"
        d.History.metric;
      Alcotest.(check (float 0.001)) "delta is -75%" (-75.0) d.History.delta_percent
  | ds -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length ds));
  (* A drop inside the 50% tolerance passes. *)
  let after_ok = [ ("obs_per_sec", 600.0); ("r_squared", 0.99) ] in
  Alcotest.(check int) "a 40% dip is noise, not regression" 0
    (List.length (History.regressions (History.compare_metrics ~before ~after:after_ok ())))

let test_compare_zero_throughput_skips () =
  (* A fully-cached campaign computes nothing: obs_per_sec 0 on either
     side means "didn't run", never a regression. *)
  let live = [ ("obs_per_sec", 40.0) ] and cached = [ ("obs_per_sec", 0.0) ] in
  Alcotest.(check int) "live -> cached is not a regression" 0
    (List.length (History.regressions (History.compare_metrics ~before:live ~after:cached ())));
  Alcotest.(check int) "cached -> live is not a regression" 0
    (List.length (History.regressions (History.compare_metrics ~before:cached ~after:live ())))

let test_compare_failed_jobs_and_ungated () =
  let before = [ ("failed_jobs", 0.0); ("wall_seconds", 10.0) ] in
  let after = [ ("failed_jobs", 1.0); ("wall_seconds", 500.0) ] in
  let regs = History.regressions (History.compare_metrics ~before ~after ()) in
  (match regs with
  | [ d ] ->
      Alcotest.(check string) "any new failure regresses" "failed_jobs" d.History.metric
  | ds -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length ds));
  (* wall_seconds matches no rule: informational only, 50x growth included. *)
  let wall =
    List.find
      (fun (d : History.delta) -> d.History.metric = "wall_seconds")
      (History.compare_metrics ~before ~after ())
  in
  Alcotest.(check bool) "ungated metrics never regress" false wall.History.regression;
  (* Metrics present on only one side are silently dropped. *)
  let deltas =
    History.compare_metrics ~before:[ ("only_before", 1.0) ] ~after:[ ("only_after", 1.0) ] ()
  in
  Alcotest.(check int) "disjoint bags share nothing" 0 (List.length deltas)

let test_compare_surrogate_error_rules () =
  (* Surrogate accuracy metrics gate lower-better on the _abs_err and
     _max_err suffixes with a 100% tolerance: errors live near zero, so
     only a doubling regresses. *)
  let before =
    [ ("surrogate_max_abs_err", 0.010); ("surrogate_predicted_cpi_max_err", 0.012) ]
  in
  (* Within 2x: jitter, not regression. *)
  let after_ok =
    [ ("surrogate_max_abs_err", 0.018); ("surrogate_predicted_cpi_max_err", 0.020) ]
  in
  Alcotest.(check int) "sub-doubling error growth is noise" 0
    (List.length
       (History.regressions (History.compare_metrics ~before ~after:after_ok ())));
  (* Past 2x: the model got meaningfully worse. *)
  let after_bad =
    [ ("surrogate_max_abs_err", 0.025); ("surrogate_predicted_cpi_max_err", 0.012) ]
  in
  (match History.regressions (History.compare_metrics ~before ~after:after_bad ()) with
  | [ d ] ->
      Alcotest.(check string) "the doubled error regressed" "surrogate_max_abs_err"
        d.History.metric;
      (match d.History.rule with
      | Some r ->
          Alcotest.(check bool) "gated by a lower-better rule" true
            (r.History.direction = History.Lower_better)
      | None -> Alcotest.fail "error metric matched no rule")
  | ds -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length ds));
  (* Shrinking errors are improvements, never regressions. *)
  let after_better = [ ("surrogate_max_abs_err", 0.001) ] in
  Alcotest.(check int) "an error drop never regresses" 0
    (List.length
       (History.regressions (History.compare_metrics ~before ~after:after_better ())))

(* ---------------- Span buffer bound (flight-recorder memory) -------- *)

let test_span_buffer_cap_and_drop_counter () =
  let dropped = Metrics.counter "pi_obs_spans_dropped_total" in
  let was_enabled = Pi_obs.Span.enabled () in
  let old_cap = Pi_obs.Span.buffer_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Pi_obs.Span.set_enabled was_enabled;
      Pi_obs.Span.set_buffer_capacity old_cap;
      Pi_obs.Span.clear ())
    (fun () ->
      Pi_obs.Span.clear ();
      Pi_obs.Span.set_buffer_capacity 8;
      Pi_obs.Span.set_enabled true;
      let before_drops = Metrics.counter_value dropped in
      for i = 1 to 20 do
        Pi_obs.Span.with_ ~name:(Printf.sprintf "cap_test_%d" i) (fun () -> ())
      done;
      Alcotest.(check int) "buffer holds exactly its capacity" 8
        (List.length (Pi_obs.Span.events ()));
      Alcotest.(check int) "overflow spans are counted, not kept" 12
        (Metrics.counter_value dropped - before_drops);
      (* clear resets the buffer, making room again. *)
      Pi_obs.Span.clear ();
      Pi_obs.Span.with_ ~name:"after_clear" (fun () -> ());
      Alcotest.(check int) "clear frees capacity" 1
        (List.length (Pi_obs.Span.events ())))

let test_collector_cap_drops () =
  let dropped = Metrics.counter "pi_obs_spans_dropped_total" in
  let c = Pi_obs.Span.collector ~capacity:4 () in
  let before_drops = Metrics.counter_value dropped in
  Pi_obs.Span.with_collector c (fun () ->
      for i = 1 to 10 do
        Pi_obs.Span.with_ ~name:(Printf.sprintf "col_test_%d" i) (fun () -> ())
      done);
  Alcotest.(check int) "collector holds its capacity" 4
    (List.length (Pi_obs.Span.collector_events c));
  Alcotest.(check int) "collector overflow is counted" 6
    (Metrics.counter_value dropped - before_drops)

let suite =
  [
    ( "flight",
      [
        Alcotest.test_case "timeseries: ring wraparound, both tiers" `Quick
          test_ring_wraparound;
        Alcotest.test_case "timeseries: downsampling is deterministic" `Quick
          test_downsampling_deterministic;
        Alcotest.test_case "timeseries: histograms flatten to _count/_sum" `Quick
          test_histogram_flattening;
        Alcotest.test_case "timeseries: JSON export parses" `Quick
          test_timeseries_json_parses;
        Alcotest.test_case "timeseries: sampler scrapes and stops" `Quick
          test_sampler_collects;
        Alcotest.test_case "history: frame/parse round-trip, digest check" `Quick
          test_history_frame_roundtrip;
        Alcotest.test_case "history: legacy ledger lines read and re-render" `Quick
          test_history_legacy_format;
        Alcotest.test_case "history: append/read, torn tail heals" `Quick
          test_history_append_read_torn_tail;
        Alcotest.test_case "history: corrupt lines skipped and counted" `Quick
          test_history_skips_corrupt_lines;
        Alcotest.test_case "compare: identical bags are clean" `Quick
          test_compare_identical_clean;
        Alcotest.test_case "compare: throughput drop past tolerance" `Quick
          test_compare_flags_throughput_drop;
        Alcotest.test_case "compare: zero throughput means didn't-run" `Quick
          test_compare_zero_throughput_skips;
        Alcotest.test_case "compare: failed_jobs gates, ungated informational" `Quick
          test_compare_failed_jobs_and_ungated;
        Alcotest.test_case "compare: surrogate error suffixes gate lower-better" `Quick
          test_compare_surrogate_error_rules;
        Alcotest.test_case "span: global buffer cap drops and counts" `Quick
          test_span_buffer_cap_and_drop_counter;
        Alcotest.test_case "span: collector cap drops and counts" `Quick
          test_collector_cap_drops;
      ] );
  ]
