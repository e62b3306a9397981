(** Content-addressed run bundles.

    A bundle is a self-describing directory that pins one campaign or
    sweep run well enough to re-verify and byte-replay it later (the RGSR
    run-bundle discipline: {e replayable only if hashes match}):

    {v
    <dir>/
      MANIFEST.json      canonical JSON: run identity + artifact pins
      SHA256SUMS.txt     sha256sum-compatible; artifacts + MANIFEST.json
      inputs/            pinned run inputs (config, bench fingerprints)
      outputs/           pinned run products (per-bench observation CSVs)
      meta/              unpinned context (run manifest with wall times)
    v}

    Everything under [inputs/] and [outputs/] is an {e artifact}: its
    SHA-256 and byte count are recorded in the manifest, and the manifest
    itself is hashed into [SHA256SUMS.txt], so a single flipped byte
    anywhere in the pinned set is caught by {!verify}. [meta/] carries
    useful-but-nondeterministic context (wall-clock timings) and is
    deliberately outside the hash tree: a replay must reproduce the
    {e outputs} byte-for-byte, not the weather. *)

(** {1 Canonical JSON} *)

val canonical_string : Pi_obs.Json.t -> string
(** Render with object keys sorted bytewise, recursively (the RFC 8785
    ordering for ASCII keys). {!Pi_obs.Json.to_string}'s float form is
    already canonical, so serialization is a function of content alone
    and equal manifests hash equal. *)

(** {1 Manifest} *)

type role = Input | Output

type artifact = {
  rel_path : string;  (** bundle-relative, e.g. ["outputs/429.mcf.csv"] *)
  sha256 : string;  (** 64 lowercase hex chars *)
  bytes : int;
  role : role;
}

type manifest = {
  version : int;
  kind : string;  (** ["campaign"] | ["sweep"] *)
  label : string;
  config_digest : string;  (** {!Obs_cache.config_digest} of the run config *)
  config_args : (string * Pi_obs.Json.t) list;
      (** the caller-facing knobs that rebuild the config — what [bundle
          replay] re-runs from *)
  benches : string list;
  n_layouts : int;
  workers : int;
  created_at : float;  (** unix seconds *)
  metrics : (string * float) list;
      (** the {!Pi_obs.History} metric bag; [bundle diff] gates on it *)
  artifacts : artifact list;  (** sorted by [rel_path] *)
}

val manifest_file : string

(** {1 Writing} *)

val write :
  dir:string ->
  kind:string ->
  label:string ->
  config_digest:string ->
  config_args:(string * Pi_obs.Json.t) list ->
  benches:string list ->
  n_layouts:int ->
  workers:int ->
  created_at:float ->
  metrics:(string * float) list ->
  inputs:(string * string) list ->
  outputs:(string * string) list ->
  ?meta:(string * string) list ->
  unit ->
  manifest
(** Materialize a bundle under [dir] (created if needed). [inputs],
    [outputs] and [meta] are [(relative-name, contents)] pairs written
    under their respective subdirectories; inputs and outputs become
    pinned artifacts, meta files do not. Existing files are overwritten. *)

val fingerprint : Interferometry.Experiment.prepared -> string * string
(** [(<bench>.fingerprint.json, contents)]: the pinned input naming one
    prepared benchmark — its name and suite, warmup and executed block
    counts, and the SHA-256 of its deterministic program stats and trace
    summary. Proof a replay ran from the same build products without
    shipping the trace bytes. Campaign and sweep bundles both pin it. *)

val of_campaign : dir:string -> workers:int -> Campaign.result -> manifest
(** Materialize a campaign's bundle: [inputs/config.json] (the pinned
    config_args + digest + bench list), one {!fingerprint} per prepared
    benchmark, one [outputs/<bench>.csv] of observations per benchmark,
    and the run manifest under [meta/]. *)

(** {1 Loading and verification} *)

val load : dir:string -> (manifest, string) result
(** Parse [MANIFEST.json]. [Error] on a missing, unparseable or
    wrong-version manifest. *)

type problem = { path : string; reason : string }

type report = { checked : int  (** files re-hashed *); problems : problem list }

val ok : report -> bool

val verify : dir:string -> (manifest * report, string) result
(** Re-hash every pinned artifact against the manifest (existence, size,
    SHA-256), then cross-check [SHA256SUMS.txt] against both the manifest
    entries and the manifest file's actual bytes. [Error] only when the
    manifest itself cannot be loaded; integrity failures come back as
    {!report} problems. *)

(** {1 Diff} *)

val diff :
  ?rules:Pi_obs.History.rule list ->
  before:manifest ->
  after:manifest ->
  unit ->
  Pi_obs.History.delta list
(** Compare two bundles' metric bags under the {!Pi_obs.History}
    threshold rules (default {!Pi_obs.History.default_rules}) — the same
    gate as [interferometry compare], applied bundle-to-bundle. *)
