(* Re-exported from [Pi_obs.Json] for callers that still use these names. *)
type json = Pi_obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

let to_string = Pi_obs.Json.to_string
let parse = Pi_obs.Json.parse

type sink = {
  mutable channel : out_channel option;
  owned : bool;  (* close the channel when the sink is closed *)
  mutex : Mutex.t;
}

let null = { channel = None; owned = false; mutex = Mutex.create () }

let to_file path =
  Pi_obs.Fs.mkdir_p (Filename.dirname path);
  { channel = Some (open_out path); owned = true; mutex = Mutex.create () }

let emit sink ~event fields =
  match sink.channel with
  | None -> ()
  | Some oc ->
      let line =
        to_string
          (Obj (("event", String event) :: ("ts", Float (Unix.gettimeofday ())) :: fields))
      in
      Mutex.protect sink.mutex (fun () ->
          output_string oc line;
          output_char oc '\n';
          flush oc)

let close sink =
  Mutex.protect sink.mutex (fun () ->
      match sink.channel with
      | None -> ()
      | Some oc ->
          flush oc;
          if sink.owned then close_out oc;
          sink.channel <- None)
