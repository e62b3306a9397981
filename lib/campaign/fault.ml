module Metrics = Pi_obs.Metrics

type kind = Exn | Delay | Corrupt_cache

type t = { rate : float; kinds : kind list; seed : int; delay : float }

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "injected fault (%s)" site)
    | _ -> None)

let kind_name = function
  | Exn -> "exn"
  | Delay -> "delay"
  | Corrupt_cache -> "corrupt-cache"

let kind_of_name = function
  | "exn" -> Ok Exn
  | "delay" -> Ok Delay
  | "corrupt-cache" -> Ok Corrupt_cache
  | other ->
      Error
        (Printf.sprintf "unknown fault kind %S (try exn, delay or corrupt-cache)"
           other)

let m_injections kind =
  Metrics.counter ~help:"faults injected by the Pi_campaign.Fault harness, by kind"
    ~labels:[ ("kind", kind_name kind) ]
    "pi_obs_fault_injections_total"

let m_exn = m_injections Exn
let m_delay = m_injections Delay
let m_corrupt = m_injections Corrupt_cache

let describe t =
  Printf.sprintf "rate=%g,kind=%s,seed=%d%s" t.rate
    (String.concat "+" (List.map kind_name t.kinds))
    t.seed
    (if t.delay > 0. then Printf.sprintf ",delay=%g" t.delay else "")

let parse spec =
  let rate = ref None and kinds = ref [ Exn ] and seed = ref 0 and delay = ref 0. in
  let field part =
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "expected key=value, got %S" part)
    | Some i ->
        let key = String.sub part 0 i
        and value = String.sub part (i + 1) (String.length part - i - 1) in
        (match (key, value) with
        | "rate", v -> (
            match float_of_string_opt v with
            | Some r when r >= 0.0 && r <= 1.0 ->
                rate := Some r;
                Ok ()
            | _ -> Error (Printf.sprintf "rate=%S is not a probability in [0, 1]" v))
        | "kind", v -> (
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | name :: rest -> (
                  match kind_of_name name with
                  | Ok k -> collect (k :: acc) rest
                  | Error _ as e -> e)
            in
            match collect [] (String.split_on_char '+' v) with
            | Ok ks ->
                kinds := ks;
                Ok ()
            | Error e -> Error e)
        | "seed", v -> (
            match int_of_string_opt v with
            | Some s ->
                seed := s;
                Ok ()
            | None -> Error (Printf.sprintf "seed=%S is not an integer" v))
        | "delay", v -> (
            match float_of_string_opt v with
            | Some d when d >= 0.0 ->
                delay := d;
                Ok ()
            | _ -> Error (Printf.sprintf "delay=%S is not a nonnegative duration" v))
        | key, _ ->
            Error (Printf.sprintf "unknown fault field %S (try rate, kind, seed, delay)" key))
  in
  let parts =
    List.filter (fun p -> p <> "") (List.map String.trim (String.split_on_char ',' spec))
  in
  let rec go = function
    | [] -> (
        match !rate with
        | None -> Error "fault spec needs rate=R (e.g. rate=0.3,kind=exn,seed=7)"
        | Some rate -> Ok { rate; kinds = !kinds; seed = !seed; delay = !delay })
    | part :: rest -> ( match field part with Ok () -> go rest | Error _ as e -> e)
  in
  go parts

let of_env ?(warn = fun msg -> Pi_obs.Log.warn "%s" msg) () =
  match Sys.getenv_opt "PI_FAULT" with
  | None -> None
  | Some spec when String.trim spec = "" -> None (* PI_FAULT= disables *)
  | Some spec -> (
      match parse spec with
      | Ok t -> Some t
      | Error msg ->
          warn (Printf.sprintf "PI_FAULT=%S ignored: %s" spec msg);
          None)

(* 56 bits of an MD5 over (seed, key), scaled to [0, 1). Independent of
   any global PRNG state: two domains drawing the same site agree, and the
   experiment's own random streams are untouched. *)
let hash_uniform ~seed key =
  let d = Digest.string (Printf.sprintf "pi-fault|%d|%s" seed key) in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  float_of_int !v /. 72057594037927936.0 (* 2^56 *)

let draw t ~site ~attempt =
  match t.kinds with
  | [] -> None
  | kinds ->
      let key = Printf.sprintf "%s|attempt=%d" site attempt in
      if hash_uniform ~seed:t.seed key >= t.rate then None
      else
        let pick = hash_uniform ~seed:t.seed (key ^ "|kind") in
        let n = List.length kinds in
        Some (List.nth kinds (min (n - 1) (int_of_float (pick *. float_of_int n))))

let delay_seconds t ~site ~attempt =
  if t.delay > 0. then t.delay
  else 0.001 +. (0.02 *. hash_uniform ~seed:t.seed (Printf.sprintf "%s|attempt=%d|delay" site attempt))

let inject t ~site ~attempt =
  match draw t ~site ~attempt with
  | Some Exn ->
      Metrics.inc m_exn;
      raise (Injected (Printf.sprintf "%s attempt=%d" site attempt))
  | Some Delay ->
      Metrics.inc m_delay;
      Unix.sleepf (delay_seconds t ~site ~attempt)
  | Some Corrupt_cache | None -> ()

let maybe_corrupt t ~site path =
  match draw t ~site ~attempt:1 with
  | Some Corrupt_cache when Sys.file_exists path ->
      Metrics.inc m_corrupt;
      (* Damage no crash of the cache's own writers can cause: a wrong
         header followed by a truncated row, as from a non-atomic external
         tool. A torn final row alone would be a crashed append, which
         loaders drop quietly; the bad header makes the whole entry corrupt,
         so loaders must count it, move it aside and treat it as a miss. *)
      Pi_obs.Fs.write_file ~path "layout_seed,cpi,mpki\n1,0.93,";
      true
  | _ -> false
