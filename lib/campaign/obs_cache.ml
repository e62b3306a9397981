module E = Interferometry.Experiment
module Dataset_io = Interferometry.Dataset_io
module Pipeline = Pi_uarch.Pipeline
module Counters = Pi_uarch.Counters
module Cache = Pi_uarch.Cache

type t = { dir : string }

(* Distinguishes concurrent writers within one process (scheduler domains
   or parallel campaigns in tests); the pid distinguishes processes. *)
let tmp_counter = Atomic.make 0

(* A crashed (or killed) writer leaves its unique temp file behind; the
   entry itself is intact, so the orphan is pure garbage. Reap it on the
   next [create] — but only once it is old enough that it cannot belong to
   a still-running campaign sharing this directory. *)
let orphan_tmp_age = 600.0

let cleanup_orphan_tmps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      let now = Unix.time () in
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            let path = Filename.concat dir name in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
              when now -. st_mtime > orphan_tmp_age -> (
                try Sys.remove path with Sys_error _ -> ())
            | _ | (exception Unix.Unix_error _) -> ())
        entries

let create ~dir =
  Pi_obs.Fs.mkdir_p dir;
  cleanup_orphan_tmps dir;
  { dir }

type stats = { entries : int; bytes : int }

let m_entries =
  Pi_obs.Metrics.gauge ~help:"observation-cache entries (CSV files) on disk"
    "pi_obs_obs_cache_entries"

let m_bytes =
  Pi_obs.Metrics.gauge ~help:"observation-cache bytes on disk"
    "pi_obs_obs_cache_bytes"

(* One readdir + one stat per entry: cheap enough for a /metrics scrape.
   In-flight [*.tmp] files are a writer's scratch, not cache content. *)
let stats t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> { entries = 0; bytes = 0 }
  | names ->
      Array.fold_left
        (fun acc name ->
          if not (Filename.check_suffix name ".csv") then acc
          else
            match Unix.stat (Filename.concat t.dir name) with
            | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
                { entries = acc.entries + 1; bytes = acc.bytes + st_size }
            | _ | (exception Unix.Unix_error _) -> acc)
        { entries = 0; bytes = 0 } names

let update_gauges t =
  let s = stats t in
  Pi_obs.Metrics.set m_entries (float_of_int s.entries);
  Pi_obs.Metrics.set m_bytes (float_of_int s.bytes);
  s

(* The digest must cover every config field that can change a measurement,
   and must not depend on closure identity: predictors are represented by
   the machine's name. A "v1|" prefix versions the key so a future format
   change invalidates old entries instead of misreading them. *)
let config_key (c : E.config) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "v1|scale=%d|budget=%d|warmup=%.9g|runs=%d|master=%d|heap=%b|aslr=%b" c.E.scale
    c.E.budget_blocks c.E.warmup_fraction c.E.runs_per_group c.E.master_seed c.E.heap_random
    c.E.aslr;
  let n = c.E.noise in
  add "|noise=%.9g,%.9g,%.9g,%.9g,%.9g" n.Counters.cycle_sigma n.Counters.spike_probability
    n.Counters.spike_scale n.Counters.event_sigma n.Counters.os_events_per_run;
  let m = c.E.machine in
  add "|machine=%s" m.Pipeline.name;
  let geometry (g : Cache.geometry) = add ",%d/%d/%d" g.size_bytes g.assoc g.line_bytes in
  geometry m.Pipeline.l1i;
  geometry m.Pipeline.l1d;
  geometry m.Pipeline.l2;
  (match m.Pipeline.trace_cache with
  | None -> add "|tc=none"
  | Some g -> add "|tc=%d/%d" g.Pi_uarch.Trace_cache.entries_log2 g.Pi_uarch.Trace_cache.assoc);
  let p = m.Pipeline.penalties in
  add "|pen=%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" p.Pipeline.mispredict p.Pipeline.btb_miss
    p.Pipeline.l1i_miss p.Pipeline.l1d_miss p.Pipeline.l2_miss p.Pipeline.store_miss_factor;
  let ic = m.Pipeline.costs in
  add "|cost=%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" ic.Pipeline.plain ic.Pipeline.fp ic.Pipeline.mul
    ic.Pipeline.div ic.Pipeline.mem ic.Pipeline.term;
  let o = m.Pipeline.overlap in
  add "|ovl=%.9g,%.9g,%.9g,%.9g" o.Pipeline.chase o.Pipeline.random o.Pipeline.sequential
    o.Pipeline.fixed;
  add "|flags=%b,%b,%b" m.Pipeline.data_prefetcher m.Pipeline.wrong_path m.Pipeline.perfect_btb;
  Buffer.contents buf

let config_digest config = Digest.to_hex (Digest.string (config_key config))

(* Benchmark names come from the registry, but custom benches are
   arbitrary strings; a name containing '/' (or a path escape like "..")
   must not address files outside the cache root. Percent-escaping is
   injective — '%' itself is escaped, so distinct names never collide —
   and keeps registry names (all [A-Za-z0-9_.-]) byte-identical. *)
let sanitize_bench_name bench =
  let plain = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  if bench <> "" && String.for_all plain bench then bench
  else begin
    let buf = Buffer.create (String.length bench + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Printf.bprintf buf "%%%02X" (Char.code c))
      bench;
    Buffer.contents buf
  end

(* Entries are addressed by the FULL config digest. Earlier versions
   truncated it to 16 hex chars (64 bits), which is exactly the silent
   collision a content-addressed store exists to rule out: two distinct
   configs sharing a cache directory could map to one file and
   cross-contaminate observations through the read-merge-write in [store].
   Old-style names are still accepted on read (see [load]) so existing
   caches migrate transparently; [store] always writes the full name,
   seeding a new entry with the truncated one's rows, and retires it. *)
let entry_path t ~bench ~config =
  Filename.concat t.dir
    (Printf.sprintf "%s.%s.csv" (sanitize_bench_name bench) (config_digest config))

let legacy_entry_path t ~bench ~config =
  let digest = String.sub (config_digest config) 0 16 in
  Filename.concat t.dir (Printf.sprintf "%s.%s.csv" (sanitize_bench_name bench) digest)

let m_corrupt =
  Pi_obs.Metrics.counter
    ~help:"observation-cache entries that failed to parse and were treated as misses"
    "pi_obs_obs_cache_corrupt_total"

(* Every reader and writer of this process runs under one mutex. [lockf]
   locks belong to the process, so they cannot keep this process's own
   domains apart; worse, closing any descriptor of a file drops the
   process's lock on it, so a load closing its descriptor mid-store would
   unlock the store. The lock on the entry then only has to keep other
   processes out. *)
let io_mutex = Mutex.create ()

(* An entry is a log: the header line, then one row per stored
   observation in append order, the last row for a seed winning. Only
   complete lines count: a final line without its newline is an append a
   crash cut short, and is dropped without complaint. [Ok (obs,
   canonical)] holds the observations by ascending seed; [canonical] says
   the file is exactly the bytes {!compact} would write — seeds strictly
   ascending, no torn tail, no blank line. [Error] is a corrupt entry: a
   bad header or a bad row before the last newline. *)
let parse_log text =
  let complete = match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0 in
  let lines =
    (* the empty string after the last newline is not a line *)
    match List.rev (String.split_on_char '\n' (String.sub text 0 complete)) with
    | _ :: rev -> List.rev rev
    | [] -> []
  in
  Result.map
    (fun (rows : E.observation array) ->
      let ascending = ref true in
      for i = 1 to Array.length rows - 1 do
        if rows.(i).E.layout_seed <= rows.(i - 1).E.layout_seed then ascending := false
      done;
      if !ascending then
        ( rows,
          complete = String.length text
          && List.length lines = Array.length rows + 1
          && String.starts_with ~prefix:(Dataset_io.header_line ^ "\n") text )
      else begin
        let by_seed = Hashtbl.create (Array.length rows) in
        Array.iter (fun (o : E.observation) -> Hashtbl.replace by_seed o.E.layout_seed o) rows;
        let unique = Array.of_seq (Hashtbl.to_seq_values by_seed) in
        Array.sort (fun (a : E.observation) b -> compare a.E.layout_seed b.E.layout_seed) unique;
        (unique, false)
      end)
    (Dataset_io.observations_of_lines lines)

let rows_bytes observations =
  let buf = Buffer.create (256 * Array.length observations) in
  Array.iter
    (fun o ->
      Buffer.add_string buf (Dataset_io.observation_to_row o);
      Buffer.add_char buf '\n')
    observations;
  Buffer.contents buf

let canonical_bytes observations =
  Dataset_io.header_line ^ "\n" ^ rows_bytes observations

(* Where a corrupt entry goes: neither [*.csv] (so it is no longer an
   entry, and {!stats} skips it) nor [*.tmp] (so the reaper leaves the
   evidence alone). A later corruption of the same entry replaces it. *)
let corrupt_path path = path ^ ".corrupt"

(* One read attempt, opening the file directly: a [Sys.file_exists]
   pre-check would race the orphan reaper or a concurrent rename (TOCTOU)
   — absence is only decided at [open] time, where ENOENT simply means a
   miss. A corrupt entry is a miss too, but never a silent one: it is
   counted, logged, and moved aside, since appends onto it would never
   heal it and its rows are about to be recomputed. *)
let read_log ~bench path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match parse_log text with
      | Ok (observations, _) -> Some observations
      | Error reason ->
          Pi_obs.Metrics.inc m_corrupt;
          let aside = corrupt_path path in
          (try Sys.rename path aside with Sys_error _ -> ());
          Pi_obs.Log.warn
            ~fields:[ ("path", path); ("bench", bench); ("moved_to", aside) ]
            "corrupt observation-cache entry treated as a miss: %s" reason;
          Some [||])

let load t ~bench ~config =
  Mutex.protect io_mutex @@ fun () ->
  match read_log ~bench (entry_path t ~bench ~config) with
  | Some observations -> observations
  | None ->
      (* Migration read: a cache written before full-digest addressing
         holds this entry under the truncated name. Only consulted when
         the full-digest file is absent — once [store] migrates the
         entry, the ambiguous legacy file is never read again. *)
      Option.value ~default:[||] (read_log ~bench (legacy_entry_path t ~bench ~config))

(* Write [bytes] to a fresh unique temp file beside [path] and fsync it.
   Unique per writer: two campaigns sharing a cache directory must never
   clobber each other's in-flight file, and a crash must leave an
   identifiable orphan (reaped by [create]) rather than a stale
   fixed-name ".tmp" blocking the next writer. *)
let write_tmp path bytes =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
  in
  (try
     Out_channel.with_open_bin tmp (fun oc ->
         Out_channel.output_string oc bytes;
         Out_channel.flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  tmp

(* Migration write: the entry now lives under its full-digest name, so a
   leftover truncated-digest file (pre-fix caches) is retired — it is
   ambiguous by construction (any config sharing the 64-bit prefix maps
   to it) and must not shadow future reads. *)
let retire_legacy t ~bench ~config =
  let legacy = legacy_entry_path t ~bench ~config in
  if legacy <> entry_path t ~bench ~config then
    try Sys.remove legacy with Sys_error _ -> ()

(* A missing entry appears atomically and complete: the header plus any
   rows under the legacy name go to an fsynced temp file, which [link]
   installs only if the entry is still absent. A creator that loses the
   race to another process simply appends to the winner's entry. *)
let create_entry t ~bench ~config =
  let legacy_rows =
    Option.value ~default:[||] (read_log ~bench (legacy_entry_path t ~bench ~config))
  in
  let path = entry_path t ~bench ~config in
  let tmp = write_tmp path (canonical_bytes legacy_rows) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      try Unix.link tmp path with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  retire_legacy t ~bench ~config

(* Does [fd] still name the entry at [path]? A compaction or a
   corrupt-entry rename may have replaced or moved it while we waited. *)
let still_at fd path =
  match Unix.stat path with
  | st ->
      let mine = Unix.fstat fd in
      st.Unix.st_ino = mine.Unix.st_ino && st.Unix.st_dev = mine.Unix.st_dev
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

let rec really_read fd buf ofs len =
  if len > 0 then
    match Unix.read fd buf ofs len with
    | 0 -> failwith "Obs_cache: entry shrank while read"
    | n -> really_read fd buf (ofs + n) (len - n)

(* A crash mid-append leaves a final line without its newline; drop it
   before appending, or the next row would be glued onto the fragment. *)
let trim_torn_tail fd =
  let size = (Unix.fstat fd).Unix.st_size in
  if size > 0 then begin
    let last = Bytes.create 1 in
    ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
    really_read fd last 0 1;
    if Bytes.get last 0 <> '\n' then begin
      let rec line_end hi =
        if hi = 0 then 0
        else
          let lo = max 0 (hi - 4096) in
          let buf = Bytes.create (hi - lo) in
          ignore (Unix.lseek fd lo Unix.SEEK_SET);
          really_read fd buf 0 (hi - lo);
          match Bytes.rindex_opt buf '\n' with
          | Some i -> lo + i + 1
          | None -> line_end lo
      in
      Unix.ftruncate fd (line_end size)
    end
  end

(* Open the entry and take its lock, retrying when the file we locked is
   no longer the entry; [None] when there is no entry. The lock is held
   until [fd] is closed. *)
let rec lock_entry path =
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
      (match Unix.lockf fd Unix.F_LOCK 0 with
      | () -> ()
      (* a file system without POSIX locks (NFS without a lock daemon):
         carry on unlocked, losing only the exclusion of other processes *)
      | exception Unix.Unix_error (Unix.ENOLCK, _, _) -> ()
      | exception e ->
          Unix.close fd;
          raise e);
      if still_at fd path then Some fd
      else begin
        Unix.close fd;
        lock_entry path
      end

let with_locked_entry path f =
  match lock_entry path with
  | None -> None
  | Some fd -> Some (Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd))

let store t ~bench ~config observations =
  let path = entry_path t ~bench ~config in
  let rows = rows_bytes observations in
  Pi_obs.Span.with_ ~name:"obs_cache.store" ~args:[ ("bench", bench) ] @@ fun () ->
  Mutex.protect io_mutex @@ fun () ->
  let append fd =
    if rows <> "" then begin
      trim_torn_tail fd;
      Pi_obs.Fs.write_all fd rows;
      Unix.fsync fd
    end
  in
  match with_locked_entry path append with
  | Some () -> ()
  | None -> (
      create_entry t ~bench ~config;
      match with_locked_entry path append with
      | Some () -> ()
      | None -> failwith (Printf.sprintf "Obs_cache.store: %s vanished after creation" path))

let compact t ~bench ~config =
  let path = entry_path t ~bench ~config in
  Pi_obs.Span.with_ ~name:"obs_cache.compact" ~args:[ ("bench", bench) ] @@ fun () ->
  Mutex.protect io_mutex @@ fun () ->
  ignore
    (with_locked_entry path (fun fd ->
         let size = (Unix.fstat fd).Unix.st_size in
         let buf = Bytes.create size in
         ignore (Unix.lseek fd 0 Unix.SEEK_SET);
         really_read fd buf 0 size;
         match parse_log (Bytes.unsafe_to_string buf) with
         | Ok (observations, false) ->
             (* Still holding the lock on the old file: an appender that
                was waiting for it finds the entry replaced and reopens. *)
             Sys.rename (write_tmp path (canonical_bytes observations)) path
         | Ok (_, true) | Error _ -> ()));
  retire_legacy t ~bench ~config
