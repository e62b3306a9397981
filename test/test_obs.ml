(* Tests for the pi_obs observability layer: metric semantics (including
   lost-update-free parallel increments), histogram quantiles against the
   exact Pi_stats estimator, span nesting, and the two export formats —
   the Prometheus text scrape is parsed line by line and the Chrome trace
   with a small JSON parser, so a malformed export fails here before it
   fails in Perfetto. Metric names are unique per test: the registry is
   process-global and other suites bump the shared instruments. *)

module Metrics = Pi_obs.Metrics
module Span = Pi_obs.Span
module Log = Pi_obs.Log
module Clock = Pi_obs.Clock

(* ---------------- Counters, gauges, registration ---------------- *)

let test_counter_semantics () =
  let c = Metrics.counter "test_obs_counter_total" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.inc c;
  Metrics.add c 40;
  Alcotest.(check int) "inc and add accumulate" 42 (Metrics.counter_value c);
  (* Registration is idempotent: the same identity is the same instrument. *)
  let c' = Metrics.counter "test_obs_counter_total" in
  Metrics.inc c';
  Alcotest.(check int) "same identity, same cells" 43 (Metrics.counter_value c);
  (* Labels distinguish identities. *)
  let labelled = Metrics.counter ~labels:[ ("k", "v") ] "test_obs_counter_total" in
  Alcotest.(check int) "labelled twin is separate" 0 (Metrics.counter_value labelled)

let test_gauge_semantics () =
  let g = Metrics.gauge "test_obs_gauge" in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Metrics.gauge_value g);
  Metrics.set g 7.5;
  Metrics.set g 3.25;
  Alcotest.(check (float 0.0)) "last write wins" 3.25 (Metrics.gauge_value g)

let test_kind_mismatch_raises () =
  let (_ : Metrics.counter) = Metrics.counter "test_obs_kind_clash" in
  match Metrics.gauge "test_obs_kind_clash" with
  | (_ : Metrics.gauge) -> Alcotest.fail "re-registering as a gauge should raise"
  | exception Invalid_argument _ -> ()

let test_parallel_increments_lossless () =
  (* The sharded design's whole point: concurrent increments from many
     domains lose nothing. 8 domains x 25k increments must sum exactly. *)
  let c = Metrics.counter "test_obs_parallel_total" in
  let h = Metrics.histogram ~buckets:[| 0.5; 1.5 |] "test_obs_parallel_seconds" in
  let per_domain = 25_000 in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.inc c;
              Metrics.observe h 1.0
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost counter updates" (8 * per_domain) (Metrics.counter_value c);
  let s = Metrics.snapshot h in
  Alcotest.(check int) "no lost observations" (8 * per_domain) s.Metrics.count;
  Alcotest.(check (float 1.0)) "float sum survives the CAS loop"
    (float_of_int (8 * per_domain))
    s.Metrics.sum;
  Alcotest.(check int) "all in the (0.5, 1.5] bucket" (8 * per_domain)
    s.Metrics.bucket_counts.(1)

(* ---------------- Histogram buckets and quantiles ---------------- *)

let test_histogram_buckets () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] "test_obs_hist_seconds" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  let s = Metrics.snapshot h in
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 106.0 s.Metrics.sum;
  (* Bounds are inclusive upper limits; the last slot is the +Inf overflow. *)
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1; 1 |] s.Metrics.bucket_counts

let test_quantile_matches_descriptive () =
  (* Against the exact order-statistic estimator on the same data: the
     histogram's answer may be off by at most one bucket width. *)
  let width = 0.5 in
  let buckets = Array.init 20 (fun i -> width *. float_of_int (i + 1)) in
  let h = Metrics.histogram ~buckets "test_obs_quantile_seconds" in
  let state = ref 123456789 in
  let values =
    Array.init 1000 (fun _ ->
        (* Deterministic LCG in [0, 10): no PRNG dependency, same data
           every run. *)
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        10.0 *. float_of_int !state /. float_of_int 0x40000000)
  in
  Array.iter (Metrics.observe h) values;
  let s = Metrics.snapshot h in
  List.iter
    (fun q ->
      let exact = Pi_stats.Descriptive.quantile values q in
      let binned = Metrics.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bucket width (exact %.3f, binned %.3f)"
           (100.0 *. q) exact binned)
        true
        (Float.abs (binned -. exact) <= width))
    [ 0.1; 0.25; 0.5; 0.9; 0.99 ];
  Alcotest.(check bool) "empty histogram quantile is nan" true
    (Float.is_nan
       (Metrics.quantile
          (Metrics.snapshot (Metrics.histogram "test_obs_quantile_empty_seconds"))
          0.5))

(* ---------------- Spans ---------------- *)

let test_span_disabled_records_nothing () =
  Span.set_enabled false;
  Span.clear ();
  Alcotest.(check int) "disabled with_ returns the value" 9
    (Span.with_ ~name:"off" (fun () -> 9));
  Alcotest.(check int) "and records nothing" 0 (List.length (Span.events ()))

let test_span_nesting_and_ordering () =
  Span.set_enabled true;
  Span.clear ();
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.clear ())
    (fun () ->
      let value =
        Span.with_ ~name:"parent" ~args:[ ("k", "v") ] (fun () ->
            Span.with_ ~name:"child_a" (fun () -> ())
            |> fun () -> Span.with_ ~name:"child_b" (fun () -> 5))
      in
      Alcotest.(check int) "with_ is transparent" 5 value;
      (match Span.events () with
      | [ a; b; p ] ->
          Alcotest.(check string) "children complete first" "child_a" a.Span.name;
          Alcotest.(check string) "in order" "child_b" b.Span.name;
          Alcotest.(check string) "parent completes last" "parent" p.Span.name;
          Alcotest.(check int) "parent at depth 0" 0 p.Span.depth;
          Alcotest.(check int) "children at depth 1" 1 a.Span.depth;
          Alcotest.(check int) "same depth" 1 b.Span.depth;
          Alcotest.(check (list (pair string string))) "args kept" [ ("k", "v") ] p.Span.args;
          (* Temporal containment on the shared monotonic clock. *)
          let inside (c : Span.event) =
            c.Span.ts >= p.Span.ts && c.Span.ts +. c.Span.dur <= p.Span.ts +. p.Span.dur +. 1e-9
          in
          Alcotest.(check bool) "child_a inside parent" true (inside a);
          Alcotest.(check bool) "child_b inside parent" true (inside b);
          Alcotest.(check bool) "child_a before child_b" true (a.Span.ts <= b.Span.ts)
      | events -> Alcotest.failf "expected 3 spans, got %d" (List.length events));
      (* A raising body still records its span. *)
      (try Span.with_ ~name:"raises" (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "span recorded despite the exception" 4
        (List.length (Span.events ())))

(* ---------------- Prometheus exposition format ---------------- *)

let is_metric_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let test_prometheus_parses_line_by_line () =
  let c = Metrics.counter ~help:"lines test" ~labels:[ ("q", "a\"b") ] "test_obs_prom_total" in
  Metrics.add c 3;
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test_obs_prom_seconds" in
  Metrics.observe h 1.5;
  Metrics.observe h 9.0;
  let text = Metrics.to_prometheus () in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "ends with a newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then
        Alcotest.(check bool)
          (Printf.sprintf "comment is HELP or TYPE: %s" line)
          true
          (String.length line > 7
          && (String.sub line 0 7 = "# HELP " || String.sub line 0 7 = "# TYPE "))
      else begin
        (* Sample line: name[{labels}] SP value — value must parse. *)
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "sample line without a value: %s" line
        | Some i ->
            let value = String.sub line (i + 1) (String.length line - i - 1) in
            (match float_of_string_opt value with
            | Some _ -> ()
            | None -> Alcotest.failf "unparsable value %S in: %s" value line);
            Alcotest.(check bool)
              (Printf.sprintf "metric name starts the line: %s" line)
              true
              (String.length line > 0 && is_metric_char line.[0])
      end)
    lines;
  (* The histogram exports cumulative buckets plus _sum/_count. *)
  let has s =
    List.exists
      (fun l -> String.length l >= String.length s && String.sub l 0 (String.length s) = s)
      lines
  in
  Alcotest.(check bool) "le=1 bucket" true (has "test_obs_prom_seconds_bucket{le=\"1\"} 0");
  Alcotest.(check bool) "le=2 bucket" true (has "test_obs_prom_seconds_bucket{le=\"2\"} 1");
  Alcotest.(check bool) "+Inf bucket is the total" true
    (has "test_obs_prom_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "_count" true (has "test_obs_prom_seconds_count 2");
  Alcotest.(check bool) "_sum" true (has "test_obs_prom_seconds_sum 10.5");
  Alcotest.(check bool) "label value escaped" true
    (has "test_obs_prom_total{q=\"a\\\"b\"} 3")

(* A strict exposition-format parser: every line of the scrape must
   match the grammar exactly (names, label escaping, float values), and
   every sample parsed back must agree with the registry it came from —
   so any exposition bug fails here, not in a real Prometheus server.
   Runs over EVERY registered metric, whichever suites ran first. *)

let strict_parse_exposition text =
  let fail fmt = Printf.ksprintf (fun msg -> Alcotest.fail msg) fmt in
  (* name ( "{" k="v" ("," k="v")* "}" )? " " value *)
  let parse_name line pos =
    let start = !pos in
    while !pos < String.length line && is_metric_char line.[!pos] do
      incr pos
    done;
    if !pos = start then fail "no metric name at %d in: %s" start line;
    String.sub line start (!pos - start)
  in
  let parse_label_value line pos =
    (* double-quoted, with backslash, quote and newline escapes *)
    if line.[!pos] <> '"' then fail "label value must open with a quote: %s" line;
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= String.length line then fail "unterminated label value: %s" line;
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          (if !pos + 1 >= String.length line then fail "dangling escape: %s" line);
          (match line.[!pos + 1] with
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | 'n' -> Buffer.add_char buf '\n'
          | c -> fail "invalid escape \\%c in: %s" c line);
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_sample line =
    let pos = ref 0 in
    let name = parse_name line pos in
    let labels =
      if !pos < String.length line && line.[!pos] = '{' then begin
        incr pos;
        let rec go acc =
          let k = parse_name line pos in
          if line.[!pos] <> '=' then fail "label without '=': %s" line;
          incr pos;
          let v = parse_label_value line pos in
          match line.[!pos] with
          | ',' ->
              incr pos;
              go ((k, v) :: acc)
          | '}' ->
              incr pos;
              List.rev ((k, v) :: acc)
          | c -> fail "unexpected %C after label in: %s" c line
        in
        go []
      end
      else []
    in
    if !pos >= String.length line || line.[!pos] <> ' ' then
      fail "sample needs a single space before the value: %s" line;
    incr pos;
    let value_str = String.sub line !pos (String.length line - !pos) in
    let value =
      match value_str with
      | "+Inf" -> Float.infinity
      | s -> (
          match float_of_string_opt s with
          | Some v -> v
          | None -> fail "unparsable sample value %S in: %s" s line)
    in
    (name, labels, value)
  in
  List.filter_map
    (fun line ->
      if line = "" then None
      else if line.[0] = '#' then begin
        (* Comments must be exactly "# HELP name text" / "# TYPE name t". *)
        (match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _ :: _ ->
            if not (String.for_all is_metric_char name) then
              fail "bad metric name in comment: %s" line
        | _ -> fail "malformed comment line: %s" line);
        None
      end
      else Some (parse_sample line))
    (String.split_on_char '\n' text)

let test_prometheus_conformance_roundtrip () =
  (* Ensure at least one of each kind with awkward label values exists. *)
  let c = Metrics.counter ~labels:[ ("path", "a\\b\"c\nd") ] "test_obs_conf_total" in
  Metrics.add c 7;
  let g = Metrics.gauge "test_obs_conf_ratio" in
  Metrics.set g 0.1234567890123;
  let h = Metrics.histogram ~buckets:[| 0.25; 0.5 |] "test_obs_conf_seconds" in
  Metrics.observe h 0.3;
  Metrics.observe h 99.0;
  let parsed = strict_parse_exposition (Metrics.to_prometheus ()) in
  let lookup name labels =
    match
      List.find_opt (fun (n, l, _) -> n = name && l = labels) parsed
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "scraped sample %s missing from exposition" name
  in
  (* Round-trip every registered metric, whatever other suites created. *)
  List.iter
    (fun (s : Metrics.sample) ->
      match s.Metrics.value with
      | Metrics.Counter n ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "counter %s round-trips" s.Metrics.name)
            (float_of_int n)
            (lookup s.Metrics.name s.Metrics.labels)
      | Metrics.Gauge v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "gauge %s round-trips exactly" s.Metrics.name)
            v
            (lookup s.Metrics.name s.Metrics.labels)
      | Metrics.Histogram hs ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s_count round-trips" s.Metrics.name)
            (float_of_int hs.Metrics.count)
            (lookup (s.Metrics.name ^ "_count") s.Metrics.labels);
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s_sum round-trips" s.Metrics.name)
            hs.Metrics.sum
            (lookup (s.Metrics.name ^ "_sum") s.Metrics.labels);
          (* Buckets export cumulatively; +Inf equals _count. *)
          let cumulative = ref 0 in
          Array.iteri
            (fun i bound ->
              cumulative := !cumulative + hs.Metrics.bucket_counts.(i);
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s le=%g cumulative" s.Metrics.name bound)
                (float_of_int !cumulative)
                (lookup (s.Metrics.name ^ "_bucket")
                   (s.Metrics.labels @ [ ("le", Metrics.float_repr bound) ])))
            hs.Metrics.bounds;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s le=+Inf is the count" s.Metrics.name)
            (float_of_int hs.Metrics.count)
            (lookup (s.Metrics.name ^ "_bucket") (s.Metrics.labels @ [ ("le", "+Inf") ])))
    (Metrics.scrape ())

(* ---------------- Chrome trace JSON ---------------- *)

(* A deliberately strict micro JSON parser: accepts exactly the grammar,
   so an export bug (unescaped quote, trailing comma, bare nan) fails the
   test rather than some downstream viewer. *)
type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some c
                  when (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
                  ->
                    advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      match peek () with
      | Some c -> (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'
      | None -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); JObj [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, value) :: acc)
            | Some '}' -> advance (); JObj (List.rev ((key, value) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); JList [])
        else
          let rec items acc =
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (value :: acc)
            | Some ']' -> advance (); JList (List.rev (value :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some '"' -> JStr (parse_string ())
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  value

let test_chrome_trace_is_valid_json () =
  Span.set_enabled true;
  Span.clear ();
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.clear ())
    (fun () ->
      Span.with_ ~name:"outer" ~args:[ ("quote", "a\"b"); ("bench", "400.perlbench") ]
        (fun () -> Span.with_ ~name:"inner" (fun () -> ()));
      let doc = parse_json (Span.to_chrome_json ()) in
      (match doc with
      | JObj fields ->
          (match List.assoc_opt "displayTimeUnit" fields with
          | Some (JStr "ms") -> ()
          | _ -> Alcotest.fail "displayTimeUnit ms missing");
          (match List.assoc_opt "traceEvents" fields with
          | Some (JList events) ->
              Alcotest.(check int) "one event per span" 2 (List.length events);
              List.iter
                (fun event ->
                  match event with
                  | JObj e ->
                      List.iter
                        (fun key ->
                          if not (List.mem_assoc key e) then
                            Alcotest.failf "event missing %S" key)
                        [ "name"; "cat"; "ph"; "pid"; "tid"; "ts"; "dur"; "args" ];
                      (match List.assoc "ph" e with
                      | JStr "X" -> ()
                      | _ -> Alcotest.fail "complete events have ph X");
                      (match List.assoc "dur" e with
                      | JNum d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.0)
                      | _ -> Alcotest.fail "dur not a number")
                  | _ -> Alcotest.fail "trace event is not an object")
                events
          | _ -> Alcotest.fail "traceEvents missing")
      | _ -> Alcotest.fail "top level is not an object");
      (* Completion order: the inner span finishes (and is listed) first. *)
      match doc with
      | JObj [ _; ("traceEvents", JList (JObj inner :: _)) ] ->
          Alcotest.(check string) "inner completes first" "inner"
            (match List.assoc "name" inner with JStr s -> s | _ -> "?")
      | _ -> Alcotest.fail "unexpected shape")

(* ---------------- Logging ---------------- *)

let test_log_levels_and_fields () =
  let captured = ref [] in
  Log.set_writer (Some (fun level line -> captured := (level, line) :: !captured));
  Fun.protect
    ~finally:(fun () ->
      Log.set_writer None;
      Log.set_level (Some Log.Warn))
    (fun () ->
      Log.set_level (Some Log.Warn);
      Log.info "not shown %d" 1;
      Log.warn ~fields:[ ("bench", "400.perlbench"); ("n", "8") ] "slow by %.1fx" 2.5;
      Log.error "broken";
      (match List.rev !captured with
      | [ (Log.Warn, warn_line); (Log.Error, error_line) ] ->
          Alcotest.(check string) "rendered with fields"
            "[pi:warn] slow by 2.5x (bench=400.perlbench, n=8)" warn_line;
          Alcotest.(check string) "error line" "[pi:error] broken" error_line
      | lines -> Alcotest.failf "expected 2 records, got %d" (List.length lines));
      (* Suppressed records still count in the metrics scrape. *)
      let level_counter l = Metrics.counter ~labels:[ ("level", l) ] "pi_obs_log_messages_total" in
      let before = Metrics.counter_value (level_counter "debug") in
      Log.set_level None;
      captured := [];
      Log.debug "invisible";
      Log.error "also invisible";
      Alcotest.(check (list (pair reject string))) "quiet shows nothing" [] !captured;
      Alcotest.(check int) "suppressed records are still counted" (before + 1)
        (Metrics.counter_value (level_counter "debug"));
      (* Debug level shows everything. *)
      Log.set_level (Some Log.Debug);
      Log.debug "now visible";
      Alcotest.(check int) "debug passes at debug level" 1 (List.length !captured))

let test_log_level_parsing () =
  Alcotest.(check bool) "warn parses" true (Log.level_of_string "warn" = Some (Some Log.Warn));
  Alcotest.(check bool) "quiet parses" true (Log.level_of_string "quiet" = Some None);
  Alcotest.(check bool) "garbage rejected" true (Log.level_of_string "loud" = None)

(* ---------------- Clock ---------------- *)

let test_clock_monotonic () =
  let t0 = Clock.now () in
  let samples = Array.init 1000 (fun _ -> Clock.now ()) in
  Array.iteri
    (fun i t ->
      let prev = if i = 0 then t0 else samples.(i - 1) in
      Alcotest.(check bool) "never goes backwards" true (t >= prev))
    samples;
  Alcotest.(check bool) "elapsed is nonnegative" true (Clock.elapsed t0 >= 0.0)

(* ---------------- Telemetry JSON rendering of a scrape ---------------- *)

let test_metrics_json_renders () =
  let c = Metrics.counter ~help:"json render" "test_obs_json_total" in
  Metrics.inc c;
  let doc =
    parse_json
      (Pi_obs.Json.to_string (Metrics.to_json (Metrics.scrape ())))
  in
  match doc with
  | JObj [ ("metrics", JList samples) ] ->
      let ours =
        List.filter_map
          (fun sample ->
            match sample with
            | JObj fields when List.assoc_opt "name" fields = Some (JStr "test_obs_json_total")
              ->
                Some fields
            | _ -> None)
          samples
      in
      (match ours with
      | [ fields ] ->
          Alcotest.(check bool) "counter type" true
            (List.assoc_opt "type" fields = Some (JStr "counter"));
          Alcotest.(check bool) "value present" true
            (List.assoc_opt "value" fields = Some (JNum 1.0));
          Alcotest.(check bool) "help carried over" true
            (List.assoc_opt "help" fields = Some (JStr "json render"))
      | _ -> Alcotest.failf "expected exactly one sample, got %d" (List.length ours))
  | _ -> Alcotest.fail "Metrics.to_json shape"

(* /metrics.json read back by a remote [interferometry stats] must be the
   scrape that was rendered: a counter, a labelled gauge and a histogram
   with observations in several buckets and the overflow. *)
let test_metrics_json_round_trip () =
  Metrics.add (Metrics.counter ~help:"round trip" "test_obs_rt_total") 3;
  Metrics.set (Metrics.gauge ~labels:[ ("side", "a\"b") ] "test_obs_rt_gauge") 0.1;
  let h = Metrics.histogram ~buckets:[| 0.5; 1.0; 2.5 |] "test_obs_rt_seconds" in
  List.iter (Metrics.observe h) [ 0.1; 0.7; 2.0; 9.75 ];
  let ours =
    List.filter
      (fun s -> String.starts_with ~prefix:"test_obs_rt_" s.Metrics.name)
      (Metrics.scrape ())
  in
  Alcotest.(check int) "three samples" 3 (List.length ours);
  let rendered = Pi_obs.Json.to_string (Metrics.to_json ours) in
  match Metrics.of_json (Result.get_ok (Pi_obs.Json.parse rendered)) with
  | Ok back -> Alcotest.(check bool) "of_json (to_json scrape) = scrape" true (back = ours)
  | Error msg -> Alcotest.failf "of_json: %s" msg

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter: inc/add, idempotent registration" `Quick
          test_counter_semantics;
        Alcotest.test_case "gauge: last write wins" `Quick test_gauge_semantics;
        Alcotest.test_case "registry: kind mismatch raises" `Quick test_kind_mismatch_raises;
        Alcotest.test_case "parallel domains lose no updates" `Quick
          test_parallel_increments_lossless;
        Alcotest.test_case "histogram: bucket placement and sums" `Quick
          test_histogram_buckets;
        Alcotest.test_case "histogram: quantiles track Descriptive.quantile" `Quick
          test_quantile_matches_descriptive;
        Alcotest.test_case "span: disabled records nothing" `Quick
          test_span_disabled_records_nothing;
        Alcotest.test_case "span: nesting, ordering, containment" `Quick
          test_span_nesting_and_ordering;
        Alcotest.test_case "prometheus: output parses line by line" `Quick
          test_prometheus_parses_line_by_line;
        Alcotest.test_case "prometheus: strict-parser round-trip, every metric" `Quick
          test_prometheus_conformance_roundtrip;
        Alcotest.test_case "chrome trace: valid JSON with complete events" `Quick
          test_chrome_trace_is_valid_json;
        Alcotest.test_case "log: levels, fields, suppressed counting" `Quick
          test_log_levels_and_fields;
        Alcotest.test_case "log: PI_LOG value parsing" `Quick test_log_level_parsing;
        Alcotest.test_case "clock: monotonic and nonnegative" `Quick test_clock_monotonic;
        Alcotest.test_case "telemetry: metrics scrape renders as JSON" `Quick
          test_metrics_json_renders;
        Alcotest.test_case "metrics: JSON twin round-trips a scrape" `Quick
          test_metrics_json_round_trip;
      ] );
  ]
