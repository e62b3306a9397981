type level = Debug | Info | Warn | Error

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some (Some Debug)
  | "info" -> Some (Some Info)
  | "warn" | "warning" -> Some (Some Warn)
  | "error" -> Some (Some Error)
  | "quiet" | "off" | "none" -> Some None
  | _ -> None

(* The effective level: 0..3 show that rank and above, 4 shows nothing.
   An int Atomic keeps the hot "is this suppressed?" check a single load. *)
let quiet_rank = 4

let initial =
  match Sys.getenv_opt "PI_LOG" with
  | None -> rank Warn
  | Some raw -> (
      match level_of_string raw with
      | Some (Some l) -> rank l
      | Some None -> quiet_rank
      | None -> rank Warn (* unrecognized: keep the default, warned below *))

let current = Atomic.make initial

let set_level = function
  | Some l -> Atomic.set current (rank l)
  | None -> Atomic.set current quiet_rank


let write_mutex = Mutex.create ()
let custom_writer : (level -> string -> unit) option ref = ref None
let set_writer w = Mutex.protect write_mutex (fun () -> custom_writer := w)

(* Submitted records are counted per level whether or not they are shown:
   a silenced CI run can still see from its scrape that warnings fired. *)
let m_messages =
  let mk l =
    ( l,
      Metrics.counter ~help:"log records submitted, by level"
        ~labels:[ ("level", level_name l) ]
        "pi_obs_log_messages_total" )
  in
  [ mk Debug; mk Info; mk Warn; mk Error ]

let render level msg fields =
  let buf = Buffer.create (String.length msg + 32) in
  Buffer.add_string buf "[pi:";
  Buffer.add_string buf (level_name level);
  Buffer.add_string buf "] ";
  Buffer.add_string buf msg;
  (match fields with
  | [] -> ()
  | fields ->
      Buffer.add_string buf " (";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf k;
          Buffer.add_char buf '=';
          Buffer.add_string buf v)
        fields;
      Buffer.add_char buf ')');
  Buffer.contents buf

let submit level fields msg =
  Metrics.inc (List.assoc level m_messages);
  if rank level >= Atomic.get current then begin
    let line = render level msg fields in
    Mutex.protect write_mutex (fun () ->
        match !custom_writer with
        | Some w -> w level line
        | None -> Printf.eprintf "%s\n%!" line)
  end

let logf level ?(fields = []) fmt = Printf.ksprintf (submit level fields) fmt

let debug ?fields fmt = logf Debug ?fields fmt
let info ?fields fmt = logf Info ?fields fmt
let warn ?fields fmt = logf Warn ?fields fmt
let error ?fields fmt = logf Error ?fields fmt

(* An unrecognized PI_LOG value should not silently fall back. *)
let () =
  match Sys.getenv_opt "PI_LOG" with
  | Some raw when level_of_string raw = None ->
      warn "PI_LOG=%S is not a level (quiet|error|warn|info|debug); using warn" raw
  | _ -> ()
