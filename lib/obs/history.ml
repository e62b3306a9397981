type record = {
  ts : float;
  kind : string;
  label : string;
  config_digest : string;
  metrics : (string * float) list;
}

let make ?ts ~kind ~label ~config_digest metrics =
  let ts = match ts with Some ts -> ts | None -> Clock.wall () in
  let metrics =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) metrics
  in
  { ts; kind; label; config_digest; metrics }

(* ---------------- Records as JSON ----------------

   Metric values and the timestamp render as [Json.number], except that a
   non-finite value renders as 0, not null: the ledger's format promises
   every reader a number. *)

let number v = if Float.is_finite v then Json.number v else Json.Int 0

let to_json r =
  Json.Obj
    [
      ("ts", number r.ts);
      ("kind", Json.String r.kind);
      ("label", Json.String r.label);
      ("config_digest", Json.String r.config_digest);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, number v)) r.metrics));
    ]

let of_json j =
  match
    let metrics = Json.member "metrics" j in
    {
      ts = Json.get_float "ts" j;
      kind = Json.get_string "kind" j;
      label = Json.get_string "label" j;
      config_digest = Json.get_string "config_digest" j;
      metrics =
        List.map (fun (k, _) -> (k, Json.get_float k metrics)) (Json.get_obj "metrics" j);
    }
  with
  | r -> Some r
  | exception Json.Type_error _ -> None

(* ---------------- Ledger I/O ----------------

   Same frame as the serve WAL ({!Framed_log}). Unlike the WAL — whose
   records form a causal sequence, so everything after the first bad
   record is suspect — history records are independent observations: a
   bad line is skipped and counted, the rest still load. Only the torn
   (unterminated) tail is silently expected, from a crash mid-append. *)

let parse_line line =
  Option.bind (Framed_log.unframe line) (fun payload ->
      Option.bind (Result.to_option (Json.parse payload)) of_json)

type replay = { records : record list; invalid_lines : int; torn_tail : bool }

let read ~path =
  if not (Sys.file_exists path) then
    { records = []; invalid_lines = 0; torn_tail = false }
  else begin
    let content = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length content in
    let torn_tail = len > 0 && content.[len - 1] <> '\n' in
    let body =
      if not torn_tail then content
      else
        match String.rindex_opt content '\n' with
        | Some i -> String.sub content 0 (i + 1)
        | None -> ""
    in
    let records, invalid =
      List.fold_left
        (fun (acc, bad) line ->
          if line = "" then (acc, bad)
          else
            match parse_line line with
            | Some r -> (r :: acc, bad)
            | None -> (acc, bad + 1))
        ([], 0)
        (String.split_on_char '\n' body)
    in
    { records = List.rev records; invalid_lines = invalid; torn_tail }
  end

let append ~path r =
  Fs.mkdir_p (Filename.dirname path);
  (* O_RDWR, not O_WRONLY: the torn-tail probe below reads the last byte
     back through this same descriptor. O_APPEND keeps every write at the
     end regardless of where the probe leaves the offset. *)
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* Self-heal a torn tail: if the previous append died mid-line,
         start this record on a fresh line so it frames cleanly; the
         torn fragment becomes one invalid line that [read] skips. *)
      let size = (Unix.fstat fd).Unix.st_size in
      let needs_newline =
        size > 0
        &&
        let buf = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        let n = Unix.read fd buf 0 1 in
        ignore (Unix.lseek fd 0 Unix.SEEK_END);
        n = 1 && Bytes.get buf 0 <> '\n'
      in
      Framed_log.append fd
        ((if needs_newline then "\n" else "") ^ Framed_log.frame (Json.to_string (to_json r))))

(* ---------------- Regression comparison ---------------- *)

type direction = Higher_better | Lower_better

type rule = { suffix : string; direction : direction; tol_percent : float }

let default_rules =
  [
    { suffix = "_per_sec"; direction = Higher_better; tol_percent = 50.0 };
    { suffix = "speedup"; direction = Higher_better; tol_percent = 50.0 };
    { suffix = "r_squared"; direction = Higher_better; tol_percent = 5.0 };
    { suffix = "failed_jobs"; direction = Lower_better; tol_percent = 0.0 };
    (* Surrogate accuracy metrics (steered sweeps, PR-10): prediction
       errors are lower-better, and they live near zero, so relative
       jitter is large — only a doubling trips the gate. *)
    { suffix = "_abs_err"; direction = Lower_better; tol_percent = 100.0 };
    { suffix = "_max_err"; direction = Lower_better; tol_percent = 100.0 };
  ]

let rule_for rules metric =
  List.find_opt
    (fun r ->
      let ls = String.length r.suffix and lm = String.length metric in
      lm >= ls && String.equal (String.sub metric (lm - ls) ls) r.suffix)
    rules

type delta = {
  metric : string;
  before : float;
  after : float;
  delta_percent : float;
  rule : rule option;
  regression : bool;
}

let compare_metrics ?(rules = default_rules) ~before ~after () =
  List.filter_map
    (fun (name, b) ->
      match List.assoc_opt name after with
      | None -> None
      | Some a ->
          let delta_percent =
            if b = 0.0 then if a = 0.0 then 0.0 else Float.infinity *. (if a > 0.0 then 1.0 else -1.0)
            else (a -. b) /. Float.abs b *. 100.0
          in
          let rule = rule_for rules name in
          let regression =
            match rule with
            | None -> false
            | Some r -> (
                match r.direction with
                | Higher_better ->
                    (* A throughput gate needs both sides live: a zero
                       side means "didn't run" (e.g. a fully-cached
                       campaign computed nothing), not a regression. *)
                    b > 0.0 && a > 0.0 && delta_percent < -.r.tol_percent
                | Lower_better -> delta_percent > r.tol_percent)
          in
          Some { metric = name; before = b; after = a; delta_percent; rule; regression })
    before

let regressions deltas = List.filter (fun d -> d.regression) deltas
