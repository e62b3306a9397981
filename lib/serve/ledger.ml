module J = Pi_obs.Json
module Metrics = Pi_obs.Metrics

let m_appends =
  Metrics.counter ~help:"job-ledger records appended (each fsynced before ack)"
    "pi_serve_ledger_appends_total"

let m_replayed =
  Metrics.counter ~help:"job-ledger records recovered by replay at boot"
    "pi_serve_ledger_replayed_records_total"

let m_torn =
  Metrics.counter ~help:"torn job-ledger tails discarded by replay"
    "pi_serve_ledger_torn_tails_total"

type t = { fd : Unix.file_descr; mutex : Mutex.t; mutable open_ : bool }

type replay = {
  records : J.t list;
  valid_bytes : int;
  torn_bytes : int;
}

(* One record line, or None when the line fails its frame or its payload
   does not parse. A single check failing means the record (and by the
   prefix rule, everything after it) cannot be trusted. *)
let parse_record line =
  Option.bind (Pi_obs.Framed_log.unframe line) (fun payload ->
      Result.to_option (J.parse payload))

let read ~path =
  let contents =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error _ -> ""
  in
  let total = String.length contents in
  (* Walk complete lines from the front; the valid prefix ends at the
     first record that is torn (no terminating newline) or fails its
     digest — everything after it is untrusted, because a corrupt record
     means the writer died (or the file was damaged) at that point. *)
  let rec walk offset records =
    if offset >= total then (List.rev records, offset)
    else
      match String.index_from_opt contents offset '\n' with
      | None -> (List.rev records, offset) (* torn tail: no newline *)
      | Some nl -> (
          let line = String.sub contents offset (nl - offset) in
          match parse_record line with
          | Some json -> walk (nl + 1) (json :: records)
          | None -> (List.rev records, offset))
  in
  let records, valid_bytes = walk 0 [] in
  { records; valid_bytes; torn_bytes = total - valid_bytes }

let open_ ~path =
  Pi_obs.Fs.mkdir_p (Filename.dirname path);
  let replay = read ~path in
  Metrics.add m_replayed (List.length replay.records);
  if replay.torn_bytes > 0 then Metrics.inc m_torn;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* Self-heal: drop the torn tail so the next record starts on a clean
     boundary, and make the truncation durable before appending past it. *)
  if replay.torn_bytes > 0 then begin
    Unix.ftruncate fd replay.valid_bytes;
    Unix.fsync fd
  end;
  ignore (Unix.lseek fd replay.valid_bytes Unix.SEEK_SET : int);
  ({ fd; mutex = Mutex.create (); open_ = true }, replay)

let append t json =
  Mutex.protect t.mutex (fun () ->
      if not t.open_ then invalid_arg "Ledger.append: closed";
      Pi_obs.Framed_log.(append t.fd (frame (J.to_string json)));
      Metrics.inc m_appends)

let close t =
  Mutex.protect t.mutex (fun () ->
      if t.open_ then begin
        t.open_ <- false;
        Unix.close t.fd
      end)
