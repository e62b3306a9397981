(* Fuzzing the builder -> interpreter -> pipeline path: random structured
   programs must lower to valid CFGs, interpret deterministically within
   their block budget, and simulate without exceptions under random
   placements. This is the property net under the entire workload layer. *)

module B = Pi_isa.Builder
module Behavior = Pi_isa.Behavior
module Program = Pi_isa.Program
module Interp = Pi_isa.Interp
module Trace = Pi_isa.Trace
module Rng = Pi_stats.Rng

(* A bounded random statement-tree generator driven by a seed (we use our
   own RNG rather than QCheck generators so the shrunk counterexample is
   just an integer). *)
let rec random_stmts rng ~depth ~budget globals sites =
  if !budget <= 0 then [ B.work 1 ]
  else begin
    let n = 1 + Rng.int rng 4 in
    List.concat
      (List.init n (fun _ ->
           decr budget;
           match Rng.int rng (if depth > 0 then 9 else 4) with
           | 0 -> [ B.work (1 + Rng.int rng 6) ]
           | 1 -> [ B.fp_work (1 + Rng.int rng 3) ]
           | 2 ->
               let g = globals.(Rng.int rng (Array.length globals)) in
               [
                 (if Rng.bool rng then B.load_global g (B.seq ~stride:(8 * (1 + Rng.int rng 8)))
                  else B.load_global g B.rand_access);
               ]
           | 3 ->
               let s = sites.(Rng.int rng (Array.length sites)) in
               [ (if Rng.bool rng then B.load_heap s B.rand_access else B.store_heap s B.rand_access) ]
           | 4 | 5 ->
               let behavior =
                 match Rng.int rng 4 with
                 | 0 -> Behavior.Always_taken
                 | 1 -> Behavior.Bernoulli { p_taken = Rng.float rng 1.0 }
                 | 2 -> Behavior.Alternating
                 | _ ->
                     Behavior.Periodic
                       { pattern = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.bool rng) }
               in
               [
                 B.if_ behavior
                   (random_stmts rng ~depth:(depth - 1) ~budget globals sites)
                   (random_stmts rng ~depth:(depth - 1) ~budget globals sites);
               ]
           | 6 ->
               [
                 B.for_ ~trips:(1 + Rng.int rng 6)
                   (random_stmts rng ~depth:(depth - 1) ~budget globals sites);
               ]
           | 7 ->
               [
                 B.while_ (Behavior.Bernoulli { p_taken = Rng.float rng 0.6 })
                   (random_stmts rng ~depth:(depth - 1) ~budget globals sites);
               ]
           | _ ->
               let cases =
                 Array.init (1 + Rng.int rng 3) (fun _ ->
                     random_stmts rng ~depth:(depth - 1) ~budget globals sites)
               in
               [ B.switch Behavior.Selector.Round_robin cases ]))
  end

let random_program seed =
  let rng = Rng.create seed in
  let b = B.create ~name:(Printf.sprintf "fuzz-%d" seed) in
  let n_objects = 1 + Rng.int rng 3 in
  let objs = Array.init n_objects (fun i -> B.add_object b (Printf.sprintf "o%d.o" i)) in
  let globals =
    Array.init (1 + Rng.int rng 3) (fun i ->
        B.global b ~name:(Printf.sprintf "g%d" i) ~size:(64 * (1 + Rng.int rng 64)))
  in
  let sites =
    Array.init (1 + Rng.int rng 2) (fun i ->
        B.heap_site b
          ~name:(Printf.sprintf "s%d" i)
          ~obj_size:(16 * (1 + Rng.int rng 16))
          ~count:(1 + Rng.int rng 64))
  in
  let budget = ref 30 in
  let leaves =
    Array.init (1 + Rng.int rng 4) (fun i ->
        B.proc b ~obj:objs.(i mod n_objects)
          ~name:(Printf.sprintf "leaf%d" i)
          (random_stmts rng ~depth:2 ~budget globals sites))
  in
  let body =
    random_stmts rng ~depth:2 ~budget globals sites
    @ Array.to_list (Array.map B.call leaves)
  in
  let main =
    B.proc b ~obj:objs.(0) ~name:"main" [ B.for_ ~trips:(2 + Rng.int rng 20) body ]
  in
  B.entry b main;
  B.finish b

let prop_fuzz_valid_and_runnable =
  QCheck.Test.make ~name:"random programs lower, validate, interpret, simulate" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = random_program seed in
      (* 1. The CFG is structurally valid. *)
      Result.is_ok (Program.validate p)
      &&
      (* 2. Interpretation is deterministic and bounded. *)
      let limits = { Interp.max_blocks = 5_000; stop_proc = None } in
      let t1 = Interp.run ~seed:1 ~limits p in
      let t2 = Interp.run ~seed:1 ~limits p in
      t1.Trace.block_seq = t2.Trace.block_seq
      && t1.Trace.instructions = t2.Trace.instructions
      &&
      (* 3. Placements simulate cleanly with consistent instruction
            accounting, and replay equals the golden interpreter field for
            field, cycles compared as [%h]: under seed 1 and under a
            heap-randomized placement. *)
      let simulates placement =
        let machine = Pi_uarch.Machine.xeon_e5440 in
        let counts = Pi_uarch.Pipeline.run machine t1 placement in
        let oracle = Pi_oracle.run_unoptimized machine t1 placement in
        let open Pi_uarch.Pipeline in
        if
          Printf.sprintf "%h" counts.cycles <> Printf.sprintf "%h" oracle.cycles
          || { counts with cycles = 0.0 } <> { oracle with cycles = 0.0 }
        then
          QCheck.Test.fail_reportf "seed %d: replay cycles %h, oracle %h; other counts equal: %b"
            seed counts.cycles oracle.cycles
            ({ counts with cycles = 0.0 } = { oracle with cycles = 0.0 });
        counts.instructions = t1.Trace.instructions && counts.cycles > 0.0
      in
      simulates (Pi_layout.Placement.make p ~seed:1)
      && simulates (Pi_layout.Placement.make ~heap_random:true p ~seed))

let prop_fuzz_layout_invariance =
  QCheck.Test.make ~name:"random programs: instructions invariant across layouts" ~count:30
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = random_program seed in
      let limits = { Interp.max_blocks = 4_000; stop_proc = None } in
      let trace = Interp.run ~limits p in
      let run s =
        Pi_uarch.Pipeline.run Pi_uarch.Machine.xeon_e5440 trace
          (Pi_layout.Placement.make p ~seed:s)
      in
      let a = run 1 and b = run 2 in
      a.Pi_uarch.Pipeline.instructions = b.Pi_uarch.Pipeline.instructions
      && a.Pi_uarch.Pipeline.cond_branches = b.Pi_uarch.Pipeline.cond_branches)

let prop_fuzz_one_pass_trace =
  QCheck.Test.make ~name:"random programs: one-pass Run_limiter.trace = two passes" ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun budget_blocks ->
          Test_layout.trace_diff
            (Pi_layout.Run_limiter.trace ~seed p ~budget_blocks)
            (Pi_oracle.two_pass_trace ~seed p ~budget_blocks)
          = [])
        [ 1; 2; 11; 97; 500; 3_000 ])

(* ---- hostile JSON at the network boundary ------------------------- *)
(* Pi_obs.Json.parse guards the pi_serve submission endpoint: whatever a
   client sends, the parser must return Error — never raise, never
   overflow the stack, never go super-linear. *)

module J = Pi_obs.Json

let expect_error name input =
  match J.parse input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: hostile input parsed as Ok" name

let test_json_depth_limit () =
  (* 10k nested arrays: must be a clean Error, not a stack overflow. *)
  let deep = String.make 10_000 '[' ^ String.make 10_000 ']' in
  expect_error "deep arrays" deep;
  let deep_objs =
    String.concat "" (List.init 5_000 (fun _ -> "{\"k\":"))
    ^ "1"
    ^ String.make 5_000 '}'
  in
  expect_error "deep objects" deep_objs;
  (* A custom limit bites exactly where configured: max_depth levels are
     allowed, one more is not. *)
  (match J.parse ~max_depth:3 "[[[[1]]]]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth 4 nesting accepted under max_depth:3");
  match J.parse ~max_depth:3 "[[[1]]]" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 3 nesting rejected under max_depth:3: %s" msg

let test_json_size_limit () =
  let big = "\"" ^ String.make 256 'x' ^ "\"" in
  (match J.parse ~max_bytes:64 big with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "input beyond max_bytes accepted");
  (* Within the limit the same shape parses. *)
  match J.parse ~max_bytes:1024 big with
  | Ok (J.String _) -> ()
  | Ok _ -> Alcotest.fail "string parsed as non-string"
  | Error msg -> Alcotest.failf "in-budget input rejected: %s" msg

let test_json_duplicate_keys () =
  expect_error "duplicate key" {|{"a":1,"a":2}|};
  expect_error "nested duplicate key" {|{"outer":{"x":1,"x":1}}|};
  (* Same key at different depths is fine. *)
  match J.parse {|{"a":{"a":1}}|} with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "shadowed-but-legal key rejected: %s" msg

let test_json_truncated_and_garbage () =
  List.iter
    (fun s -> expect_error "malformed" s)
    [
      ""; "{"; "["; "{\"a\""; "{\"a\":}"; "[1,"; "\"unterminated"; "nul"; "tru";
      "01x"; "1e"; "{}trailing"; "\xff\xfe"; "{\"a\" 1}"; "[1 2]";
    ]

let prop_fuzz_json_never_raises =
  QCheck.Test.make ~name:"random bytes: Telemetry.parse returns, never raises"
    ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match J.parse s with Ok _ | Error _ -> true)

let prop_fuzz_json_roundtrip =
  (* Rendered valid documents always re-parse: the daemon's own emissions
     can never be rejected by its own boundary. *)
  QCheck.Test.make ~name:"rendered json round-trips through the hardened parser"
    ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rec value depth =
        match Rng.int rng (if depth > 0 then 6 else 4) with
        | 0 -> J.Null
        | 1 -> J.Bool (Rng.bool rng)
        | 2 -> J.Int (Rng.int rng 1_000_000 - 500_000)
        | 3 -> J.String (Printf.sprintf "s%d" (Rng.int rng 1000))
        | 4 -> J.List (List.init (Rng.int rng 4) (fun _ -> value (depth - 1)))
        | _ ->
            J.Obj
              (List.init (Rng.int rng 4) (fun i ->
                   (Printf.sprintf "k%d" i, value (depth - 1))))
      in
      let doc = value 4 in
      match J.parse (J.to_string doc) with Ok _ -> true | Error _ -> false)

let suite =
  [
    ( "fuzz.programs",
      [
        QCheck_alcotest.to_alcotest prop_fuzz_valid_and_runnable;
        QCheck_alcotest.to_alcotest prop_fuzz_layout_invariance;
        QCheck_alcotest.to_alcotest prop_fuzz_one_pass_trace;
      ] );
    ( "fuzz.json",
      [
        Alcotest.test_case "nesting depth is bounded" `Quick test_json_depth_limit;
        Alcotest.test_case "input size is bounded" `Quick test_json_size_limit;
        Alcotest.test_case "duplicate keys are rejected" `Quick
          test_json_duplicate_keys;
        Alcotest.test_case "truncated and garbage inputs error" `Quick
          test_json_truncated_and_garbage;
        QCheck_alcotest.to_alcotest prop_fuzz_json_never_raises;
        QCheck_alcotest.to_alcotest prop_fuzz_json_roundtrip;
      ] );
  ]
