(* Content-addressed run bundles: the SHA-256 primitive against the FIPS
   180-4 vectors, canonical JSON ordering, bundle write/load/verify round
   trips, single-flipped-byte detection, and the metric diff gate. *)

module J = Pi_obs.Json
module Sha256 = Pi_campaign.Sha256
module Bundle = Pi_campaign.Bundle
module History = Pi_obs.History

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

(* ---------------- SHA-256 ---------------- *)

let test_sha256_fips_vectors () =
  (* FIPS 180-4 appendix test vectors — if these hold, the compression
     function, padding and length encoding are all right. *)
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256(%S)" (String.sub input 0 (min 16 (String.length input))))
        expect (Sha256.string input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      (* One full block of 'a's exercises the exact-boundary padding path. *)
      ( String.make 64 'a',
        "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
    ]

let test_sha256_million_a () =
  Alcotest.(check string) "sha256('a' * 1_000_000)"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.string (String.make 1_000_000 'a'))

let test_sha256_file_streams () =
  (* File hashing must agree with string hashing, including across the
     64 KiB chunk boundary the streaming reader uses. *)
  let payload = String.init 100_000 (fun i -> Char.chr (i mod 251)) in
  let path = Filename.temp_file "pi-sha" ".bin" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc payload);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check string) "file == string" (Sha256.string payload)
        (Sha256.file path))

(* ---------------- Canonical JSON ---------------- *)

let test_canonical_sorts_keys () =
  let messy =
    J.Obj
      [
        ("zebra", J.Int 1);
        ("alpha", J.Obj [ ("y", J.Bool true); ("x", J.List [ J.Obj [ ("b", J.Null); ("a", J.Int 2) ] ]) ]);
      ]
  in
  Alcotest.(check string) "recursive bytewise key sort"
    {|{"alpha":{"x":[{"a":2,"b":null}],"y":true},"zebra":1}|}
    (Bundle.canonical_string messy);
  (* Canonicalization is idempotent and content-determined: two
     permutations of the same object render — and therefore hash —
     identically. *)
  let permuted = J.Obj [ ("alpha", List.assoc "alpha" (match messy with J.Obj f -> f | _ -> [])); ("zebra", J.Int 1) ] in
  Alcotest.(check string) "permutation-invariant rendering"
    (Bundle.canonical_string messy)
    (Bundle.canonical_string permuted)

(* ---------------- Bundle round trip ---------------- *)

let write_fixture dir =
  Bundle.write ~dir ~kind:"campaign" ~label:"fixture" ~config_digest:"deadbeef"
    ~config_args:[ ("quick", J.Bool true); ("seed", J.Int 42) ]
    ~benches:[ "429.mcf" ] ~n_layouts:6 ~workers:2 ~created_at:0.0
    ~metrics:[ ("fit_r_squared", 0.9); ("failed_jobs", 0.0) ]
    ~inputs:[ ("config.json", "{\"quick\":true}\n") ]
    ~outputs:[ ("429.mcf.csv", "seed,cpi\n1,1.5\n2,1.6\n") ]
    ~meta:[ ("run_manifest.json", "{\"wall\":1.23}\n") ]
    ()

let test_bundle_write_load_verify () =
  let dir = Filename.concat (temp_dir "pi-bundle") "b" in
  let written = write_fixture dir in
  Alcotest.(check int) "two pinned artifacts" 2 (List.length written.Bundle.artifacts);
  (match Bundle.load ~dir with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok m ->
      Alcotest.(check string) "kind round-trips" "campaign" m.Bundle.kind;
      Alcotest.(check string) "label round-trips" "fixture" m.Bundle.label;
      Alcotest.(check int) "n_layouts round-trips" 6 m.Bundle.n_layouts;
      Alcotest.(check int) "workers round-trips" 2 m.Bundle.workers;
      Alcotest.(check (list string)) "artifact paths sorted"
        [ "inputs/config.json"; "outputs/429.mcf.csv" ]
        (List.map (fun a -> a.Bundle.rel_path) m.Bundle.artifacts);
      List.iter
        (fun (a : Bundle.artifact) ->
          Alcotest.(check int) "64-hex digest" 64 (String.length a.Bundle.sha256))
        m.Bundle.artifacts);
  match Bundle.verify ~dir with
  | Error msg -> Alcotest.failf "verify errored: %s" msg
  | Ok (_, report) ->
      Alcotest.(check bool) "pristine bundle verifies" true (Bundle.ok report);
      (* artifacts + MANIFEST.json + SHA256SUMS.txt cross-check *)
      Alcotest.(check bool) "re-hashed something" true (report.Bundle.checked >= 3)

let test_bundle_verify_catches_flip () =
  let dir = Filename.concat (temp_dir "pi-bundle") "b" in
  ignore (write_fixture dir : Bundle.manifest);
  (* Flip one byte of a pinned output. *)
  let target = Filename.concat dir "outputs/429.mcf.csv" in
  let bytes = Bytes.of_string (In_channel.with_open_bin target In_channel.input_all) in
  Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 1));
  Out_channel.with_open_bin target (fun oc -> Out_channel.output_bytes oc bytes);
  (match Bundle.verify ~dir with
  | Error msg -> Alcotest.failf "verify errored: %s" msg
  | Ok (_, report) ->
      Alcotest.(check bool) "flip detected" false (Bundle.ok report);
      Alcotest.(check bool) "problem names the file" true
        (List.exists
           (fun (p : Bundle.problem) -> p.Bundle.path = "outputs/429.mcf.csv")
           report.Bundle.problems));
  (* A deleted artifact is a problem too, not a crash. *)
  Sys.remove target;
  match Bundle.verify ~dir with
  | Error msg -> Alcotest.failf "verify errored on missing file: %s" msg
  | Ok (_, report) ->
      Alcotest.(check bool) "missing file detected" false (Bundle.ok report)

let test_bundle_load_rejects_garbage () =
  let dir = temp_dir "pi-bundle-garbage" in
  (match Bundle.load ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a bundle with no manifest");
  Out_channel.with_open_bin
    (Filename.concat dir Bundle.manifest_file)
    (fun oc -> Out_channel.output_string oc "not json");
  match Bundle.load ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded an unparsable manifest"

(* ---------------- Diff ---------------- *)

let test_bundle_diff_gates_regressions () =
  let dir = temp_dir "pi-bundle-diff" in
  let mk name metrics =
    let d = Filename.concat dir name in
    Bundle.write ~dir:d ~kind:"campaign" ~label:name ~config_digest:"d"
      ~config_args:[] ~benches:[] ~n_layouts:1 ~workers:1 ~created_at:0.0
      ~metrics ~inputs:[] ~outputs:[] ()
  in
  let before = mk "before" [ ("fit_r_squared", 0.90); ("failed_jobs", 0.0) ] in
  (* Self-diff is clean: identical metric bags regress nothing. *)
  let self = Bundle.diff ~before ~after:before () in
  Alcotest.(check bool) "self-diff has no regressions" false
    (List.exists (fun d -> d.History.regression) self);
  (* An r² collapse beyond the 5% rule is a regression... *)
  let worse = mk "worse" [ ("fit_r_squared", 0.50); ("failed_jobs", 0.0) ] in
  let deltas = Bundle.diff ~before ~after:worse () in
  Alcotest.(check bool) "r_squared collapse regresses" true
    (List.exists
       (fun d -> d.History.metric = "fit_r_squared" && d.History.regression)
       deltas);
  (* ...and any new failed job trips the zero-tolerance rule. *)
  let failing = mk "failing" [ ("fit_r_squared", 0.90); ("failed_jobs", 1.0) ] in
  let deltas = Bundle.diff ~before ~after:failing () in
  Alcotest.(check bool) "failed_jobs is zero-tolerance" true
    (List.exists
       (fun d -> d.History.metric = "failed_jobs" && d.History.regression)
       deltas)

let suite =
  [
    ( "bundle",
      [
        Alcotest.test_case "sha256: FIPS 180-4 vectors" `Quick test_sha256_fips_vectors;
        Alcotest.test_case "sha256: one-million-a vector" `Quick test_sha256_million_a;
        Alcotest.test_case "sha256: streamed file == string" `Quick
          test_sha256_file_streams;
        Alcotest.test_case "canonical JSON: recursive key sort" `Quick
          test_canonical_sorts_keys;
        Alcotest.test_case "write/load/verify round trip" `Quick
          test_bundle_write_load_verify;
        Alcotest.test_case "verify catches a flipped byte and a missing file" `Quick
          test_bundle_verify_catches_flip;
        Alcotest.test_case "load rejects missing/garbled manifests" `Quick
          test_bundle_load_rejects_garbage;
        Alcotest.test_case "diff applies the compare threshold rules" `Quick
          test_bundle_diff_gates_regressions;
      ] );
  ]
