module J = Pi_obs.Json

(* ------------------------------------------------------------------ *)
(* Canonical JSON                                                      *)
(* ------------------------------------------------------------------ *)

(* Bundles are compared by hash, so the manifest rendering must be a
   function of its *content*, not of field-insertion order: objects are
   rendered with keys sorted bytewise (the RFC 8785 JCS ordering for
   ASCII keys, which all of ours are) and then serialized by
   [Pi_obs.Json.to_string], whose float rendering is already canonical
   (shortest %.12g form that round-trips, else %.17g). Two manifests with
   equal content therefore hash equal, byte for byte. *)
let rec canonical (j : J.t) =
  match j with
  | J.Obj fields ->
      J.Obj
        (List.sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, canonical v)) fields))
  | J.List items -> J.List (List.map canonical items)
  | (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _) as atom -> atom

let canonical_string j = J.to_string (canonical j)

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

type role = Input | Output

type artifact = { rel_path : string; sha256 : string; bytes : int; role : role }

type manifest = {
  version : int;
  kind : string;
  label : string;
  config_digest : string;
  config_args : (string * J.t) list;
  benches : string list;
  n_layouts : int;
  workers : int;
  created_at : float;
  metrics : (string * float) list;
  artifacts : artifact list;
}

let manifest_file = "MANIFEST.json"
let sums_file = "SHA256SUMS.txt"
let version = 1

let role_to_string = function Input -> "input" | Output -> "output"

let role_of_string = function
  | "input" -> Ok Input
  | "output" -> Ok Output
  | other -> Error (Printf.sprintf "unknown artifact role %S" other)

let artifact_to_json a =
  J.Obj
    [
      ("path", J.String a.rel_path);
      ("sha256", J.String a.sha256);
      ("bytes", J.Int a.bytes);
      ("role", J.String (role_to_string a.role));
    ]

let manifest_to_json m =
  J.Obj
    [
      ("version", J.Int m.version);
      ("kind", J.String m.kind);
      ("label", J.String m.label);
      ("config_digest", J.String m.config_digest);
      ("config_args", J.Obj m.config_args);
      ("benches", J.List (List.map (fun b -> J.String b) m.benches));
      ("n_layouts", J.Int m.n_layouts);
      ("workers", J.Int m.workers);
      ("created_at", J.Float m.created_at);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) m.metrics));
      ("artifacts", J.List (List.map artifact_to_json m.artifacts));
    ]

let artifact_of_json j =
  {
    rel_path = J.get_string "path" j;
    sha256 = J.get_string "sha256" j;
    bytes = J.get_int "bytes" j;
    role =
      (match role_of_string (J.get_string "role" j) with
      | Ok r -> r
      | Error e -> raise (J.Type_error e));
  }

let manifest_of_json j =
  try
    let v = J.get_int "version" j in
    if v <> version then Error (Printf.sprintf "unsupported bundle version %d" v)
    else
      Ok
        {
          version = v;
          kind = J.get_string "kind" j;
          label = J.get_string "label" j;
          config_digest = J.get_string "config_digest" j;
          config_args = Option.value ~default:[] (J.opt J.get_obj "config_args" j);
          benches =
            List.map
              (function
                | J.String s -> s | _ -> raise (J.Type_error "benches must be strings"))
              (Option.value ~default:[] (J.opt J.get_list "benches" j));
          n_layouts = J.get_int "n_layouts" j;
          workers = J.get_int "workers" j;
          created_at = J.get_float "created_at" j;
          metrics =
            List.map
              (fun (k, _) -> (k, J.get_float k (J.member "metrics" j)))
              (Option.value ~default:[] (J.opt J.get_obj "metrics" j));
          artifacts =
            List.map artifact_of_json (Option.value ~default:[] (J.opt J.get_list "artifacts" j));
        }
  with J.Type_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* sha256sum(1)-compatible line: digest, two spaces, relative path. *)
let sums_line ~sha256 ~rel_path = Printf.sprintf "%s  %s" sha256 rel_path

let render_sums entries =
  String.concat "" (List.map (fun (sha, rel) -> sums_line ~sha256:sha ~rel_path:rel ^ "\n") entries)

let parse_sums text =
  let problems = ref [] in
  let entries =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.filter_map (fun line ->
           let is_hex c = match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
           if
             String.length line > 66
             && String.for_all is_hex (String.sub line 0 64)
             && String.sub line 64 2 = "  "
           then Some (String.sub line 66 (String.length line - 66), String.sub line 0 64)
           else begin
             problems := line :: !problems;
             None
           end)
  in
  (entries, List.rev !problems)

let write ~dir ~kind ~label ~config_digest ~config_args ~benches ~n_layouts ~workers
    ~created_at ~metrics ~inputs ~outputs ?(meta = []) () =
  Pi_obs.Fs.mkdir_p dir;
  let emit role prefix (rel, contents) =
    let rel_path = prefix ^ "/" ^ rel in
    Pi_obs.Fs.write_file ~path:(Filename.concat dir rel_path) contents;
    {
      rel_path;
      sha256 = Sha256.string contents;
      bytes = String.length contents;
      role;
    }
  in
  let artifacts =
    List.map (emit Input "inputs") inputs @ List.map (emit Output "outputs") outputs
  in
  let artifacts =
    List.sort (fun a b -> String.compare a.rel_path b.rel_path) artifacts
  in
  (* Meta files travel with the bundle but are NOT pinned: the campaign
     run-manifest carries wall-clock timings that legitimately differ
     between a run and its byte-identical replay. *)
  List.iter
    (fun (rel, contents) ->
      Pi_obs.Fs.write_file ~path:(Filename.concat dir ("meta/" ^ rel)) contents)
    meta;
  let manifest =
    {
      version;
      kind;
      label;
      config_digest;
      config_args;
      benches;
      n_layouts;
      workers;
      created_at;
      metrics;
      artifacts;
    }
  in
  let manifest_text = canonical_string (manifest_to_json manifest) ^ "\n" in
  Pi_obs.Fs.write_file ~path:(Filename.concat dir manifest_file) manifest_text;
  (* The sums file covers every pinned artifact plus the manifest itself,
     so no hash-bearing byte of the bundle is outside the hash tree
     (SHA256SUMS.txt is the root). *)
  let sums =
    List.map (fun a -> (a.sha256, a.rel_path)) artifacts
    @ [ (Sha256.string manifest_text, manifest_file) ]
  in
  Pi_obs.Fs.write_file ~path:(Filename.concat dir sums_file) (render_sums sums);
  manifest

(* ------------------------------------------------------------------ *)
(* Loading + verification                                              *)
(* ------------------------------------------------------------------ *)

let load ~dir =
  let path = Filename.concat dir manifest_file in
  match read_file path with
  | exception Sys_error e -> Error (Printf.sprintf "cannot read %s: %s" manifest_file e)
  | text -> (
      match J.parse text with
      | Error e -> Error (Printf.sprintf "%s: %s" manifest_file e)
      | Ok json -> manifest_of_json json)

type problem = { path : string; reason : string }
type report = { checked : int; problems : problem list }

let ok report = report.problems = []

let verify ~dir =
  match load ~dir with
  | Error e -> Error e
  | Ok manifest ->
      let problems = ref [] in
      let checked = ref 0 in
      let flag path reason = problems := { path; reason } :: !problems in
      (* 1. Every pinned artifact re-hashes to its manifest entry. *)
      List.iter
        (fun a ->
          incr checked;
          let abs = Filename.concat dir a.rel_path in
          match Unix.stat abs with
          | exception Unix.Unix_error (e, _, _) ->
              flag a.rel_path ("missing: " ^ Unix.error_message e)
          | st ->
              if st.Unix.st_size <> a.bytes then
                flag a.rel_path
                  (Printf.sprintf "size mismatch: manifest says %d bytes, file has %d"
                     a.bytes st.Unix.st_size)
              else
                let got = Sha256.file abs in
                if got <> a.sha256 then
                  flag a.rel_path
                    (Printf.sprintf "sha256 mismatch: manifest pins %s, file hashes %s"
                       a.sha256 got))
        manifest.artifacts;
      (* 2. SHA256SUMS.txt agrees with the manifest and with the manifest
         file's actual bytes — a flipped byte in either file shows up as a
         disagreement here. *)
      (match read_file (Filename.concat dir sums_file) with
      | exception Sys_error _ -> flag sums_file "missing"
      | text ->
          incr checked;
          let entries, garbled = parse_sums text in
          List.iter (fun line -> flag sums_file ("unparseable line: " ^ line)) garbled;
          let expected =
            List.map (fun a -> (a.rel_path, a.sha256)) manifest.artifacts
            @ [ (manifest_file, Sha256.file (Filename.concat dir manifest_file)) ]
          in
          List.iter
            (fun (rel, sha) ->
              match List.assoc_opt rel entries with
              | None -> flag sums_file ("no entry for " ^ rel)
              | Some listed when listed <> sha ->
                  flag rel
                    (Printf.sprintf "sha256 disagreement: SHA256SUMS.txt says %s, expected %s"
                       listed sha)
              | Some _ -> ())
            expected;
          List.iter
            (fun (rel, _) ->
              if not (List.mem_assoc rel expected) then
                flag sums_file ("entry for unknown file " ^ rel))
            entries);
      Ok (manifest, { checked = !checked; problems = List.rev !problems })

(* ------------------------------------------------------------------ *)
(* Campaign bundles                                                    *)
(* ------------------------------------------------------------------ *)

let of_campaign ~dir ~workers (result : Campaign.result) =
  let module E = Interferometry.Experiment in
  let module D = Interferometry.Dataset_io in
  let m = result.Campaign.manifest in
  let bench_names =
    List.map
      (fun (o : Campaign.bench_outcome) -> o.Campaign.entry.Manifest.bench)
      result.Campaign.outcomes
  in
  let config_json =
    canonical_string
      (J.Obj
         [
           ("config_args", J.Obj m.Manifest.config_args);
           ("config_digest", J.String m.Manifest.config_digest);
           ("n_layouts", J.Int m.Manifest.n_layouts);
           ("benches", J.List (List.map (fun b -> J.String b) bench_names));
         ])
    ^ "\n"
  in
  (* The pinned input for each benchmark: not the trace bytes (hundreds
     of MB re-derivable from config alone) but a fingerprint of the
     deterministic build products — enough for [verify] to prove the
     replay ran from the same program and trace, at a few hundred bytes. *)
  let fingerprint (o : Campaign.bench_outcome) (ds : E.dataset) =
    let p = ds.E.prepared in
    ( Obs_cache.sanitize_bench_name o.Campaign.entry.Manifest.bench ^ ".fingerprint.json",
      canonical_string
        (J.Obj
           [
             ("bench", J.String o.Campaign.entry.Manifest.bench);
             ("suite", J.String o.Campaign.entry.Manifest.suite);
             ("warmup_blocks", J.Int p.E.warmup_blocks);
             ("blocks_executed", J.Int (Pi_isa.Trace.blocks_executed p.E.trace));
             ( "program_sha256",
               J.String (Sha256.string (Pi_isa.Program.static_stats p.E.program)) );
             ("trace_sha256", J.String (Sha256.string (Pi_isa.Trace.summary p.E.trace)));
           ])
      ^ "\n" )
  in
  let observations_csv (ds : E.dataset) =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (D.header_line ^ "\n");
    Array.iter
      (fun obs -> Buffer.add_string buf (D.observation_to_row obs ^ "\n"))
      ds.E.observations;
    Buffer.contents buf
  in
  let with_dataset f =
    List.filter_map
      (fun (o : Campaign.bench_outcome) -> Option.map (f o) o.Campaign.dataset)
      result.Campaign.outcomes
  in
  write ~dir ~kind:"campaign" ~label:m.Manifest.label
    ~config_digest:m.Manifest.config_digest ~config_args:m.Manifest.config_args
    ~benches:bench_names ~n_layouts:m.Manifest.n_layouts ~workers
    ~created_at:m.Manifest.started_at
    ~metrics:(Manifest.history_metrics m)
    ~inputs:(("config.json", config_json) :: with_dataset fingerprint)
    ~outputs:
      (with_dataset (fun o ds ->
           ( Obs_cache.sanitize_bench_name o.Campaign.entry.Manifest.bench ^ ".csv",
             observations_csv ds )))
    ~meta:[ ("run_manifest.json", canonical_string (Manifest.to_json m) ^ "\n") ]
    ()

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let diff ?rules ~(before : manifest) ~(after : manifest) () =
  Pi_obs.History.compare_metrics ?rules ~before:before.metrics ~after:after.metrics ()
