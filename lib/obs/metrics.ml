(* Sharded instruments: every domain updates its own Atomic.t slot, picked
   by domain id. Domain ids grow monotonically over the process lifetime,
   so they are folded into a fixed power-of-two shard array; a collision
   (two live domains masking to the same slot) only costs an occasionally
   contended fetch-and-add — updates stay atomic, nothing is lost. *)

let shard_count = 64 (* power of two; >> any realistic --jobs value *)
let[@inline] shard_index () = (Domain.self () :> int) land (shard_count - 1)

type counter = int Atomic.t array

type gauge = float Atomic.t

type histogram = {
  bounds : float array;
  (* shard -> bucket -> count; one extra overflow bucket past the last bound *)
  h_counts : int Atomic.t array array;
  h_sums : float Atomic.t array;
}

let inc (c : counter) = ignore (Atomic.fetch_and_add (Array.unsafe_get c (shard_index ())) 1)
let add (c : counter) n = ignore (Atomic.fetch_and_add (Array.unsafe_get c (shard_index ())) n)
let counter_value (c : counter) = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

let set (g : gauge) v = Atomic.set g v
let gauge_value (g : gauge) = Atomic.get g

(* CAS loop over the boxed float, same shape as the histogram sums: an
   in-flight gauge is bumped and dropped from many server threads, so the
   read-modify-write must be atomic end to end. *)
let rec gauge_add (g : gauge) v =
  let old = Atomic.get g in
  if not (Atomic.compare_and_set g old (old +. v)) then gauge_add g v

let default_buckets =
  [|
    1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
    2.5; 5.0; 10.0; 30.0; 60.0; 120.0; 300.0;
  |]

(* First bucket whose upper bound admits [v]; the overflow bucket is
   [Array.length bounds]. Binary search: bounds are tiny but this keeps
   observe O(log n) regardless of caller-supplied bucket counts. *)
let bucket_for bounds v =
  let n = Array.length bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= Array.unsafe_get bounds mid then hi := mid else lo := mid + 1
  done;
  !lo

(* CAS loop over the boxed float: [Atomic.compare_and_set] compares the
   box physically, so re-reading on failure is exactly the retry we want.
   Contention is already rare thanks to sharding. *)
let rec atomic_float_add a v =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. v)) then atomic_float_add a v

let observe (h : histogram) v =
  let s = shard_index () in
  let counts = Array.unsafe_get h.h_counts s in
  ignore (Atomic.fetch_and_add (Array.unsafe_get counts (bucket_for h.bounds v)) 1);
  atomic_float_add (Array.unsafe_get h.h_sums s) v

type hist_snapshot = {
  bounds : float array;
  bucket_counts : int array;
  count : int;
  sum : float;
}

let snapshot (h : histogram) =
  let n_buckets = Array.length h.bounds + 1 in
  let bucket_counts = Array.make n_buckets 0 in
  Array.iter
    (fun shard ->
      Array.iteri (fun b a -> bucket_counts.(b) <- bucket_counts.(b) + Atomic.get a) shard)
    h.h_counts;
  {
    bounds = h.bounds;
    bucket_counts;
    count = Array.fold_left ( + ) 0 bucket_counts;
    sum = Array.fold_left (fun acc a -> acc +. Atomic.get a) 0.0 h.h_sums;
  }

let quantile s q =
  if s.count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int s.count in
    let n = Array.length s.bounds in
    let rec find b cum =
      if b >= n then s.bounds.(n - 1) (* overflow: clamp to the last bound *)
      else
        let cum' = cum + s.bucket_counts.(b) in
        if float_of_int cum' >= rank && s.bucket_counts.(b) > 0 then begin
          let lower = if b = 0 then 0.0 else s.bounds.(b - 1) in
          let upper = s.bounds.(b) in
          let within = (rank -. float_of_int cum) /. float_of_int s.bucket_counts.(b) in
          lower +. ((upper -. lower) *. Float.max 0.0 (Float.min 1.0 within))
        end
        else find (b + 1) cum'
    in
    if n = 0 then s.sum /. float_of_int s.count else find 0 0
  end

(* ---------------- Registry ---------------- *)

type metric = C of counter | G of gauge | H of histogram

type entry = { e_name : string; e_help : string; e_labels : (string * string) list; e_metric : metric }

let registry : (string * (string * string) list, entry) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register ~name ~help ~labels make check =
  Mutex.protect registry_mutex (fun () ->
      let key = (name, labels) in
      match Hashtbl.find_opt registry key with
      | Some e -> check e
      | None ->
          let e = { e_name = name; e_help = help; e_labels = labels; e_metric = make () } in
          Hashtbl.replace registry key e;
          check e)

let mismatch name wanted e =
  invalid_arg
    (Printf.sprintf "Pi_obs.Metrics: %s already registered as a %s, wanted a %s" name
       (kind_name e.e_metric) wanted)

let counter ?(help = "") ?(labels = []) name =
  register ~name ~help ~labels
    (fun () -> C (Array.init shard_count (fun _ -> Atomic.make 0)))
    (fun e -> match e.e_metric with C c -> c | _ -> mismatch name "counter" e)

let gauge ?(help = "") ?(labels = []) name =
  register ~name ~help ~labels
    (fun () -> G (Atomic.make 0.0))
    (fun e -> match e.e_metric with G g -> g | _ -> mismatch name "gauge" e)

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg
          (Printf.sprintf "Pi_obs.Metrics: %s buckets must be strictly increasing" name))
    buckets;
  register ~name ~help ~labels
    (fun () ->
      H
        {
          bounds = Array.copy buckets;
          h_counts =
            Array.init shard_count (fun _ ->
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0));
          h_sums = Array.init shard_count (fun _ -> Atomic.make 0.0);
        })
    (fun e ->
      match e.e_metric with
      | H h ->
          if h.bounds <> buckets then
            invalid_arg
              (Printf.sprintf "Pi_obs.Metrics: %s re-registered with different buckets" name);
          h
      | _ -> mismatch name "histogram" e)

(* ---------------- Scraping ---------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of hist_snapshot

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

let scrape () =
  let entries = Mutex.protect registry_mutex (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) registry []) in
  entries
  |> List.map (fun e ->
         {
           name = e.e_name;
           help = e.e_help;
           labels = e.e_labels;
           value =
             (match e.e_metric with
             | C c -> Counter (counter_value c)
             | G g -> Gauge (gauge_value g)
             | H h -> Histogram (snapshot h));
         })
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

(* Prometheus text exposition. Finite floats render as [Json.number]
   does; NaN and the infinities keep their Prometheus spellings. *)
let float_repr f =
  if Float.is_finite f then Json.to_string (Json.number f) else Printf.sprintf "%.17g" f

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)
      ^ "}"

let to_prometheus () =
  let buf = Buffer.create 4096 in
  let last_header = ref "" in
  List.iter
    (fun s ->
      let kind =
        match s.value with Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"
      in
      if !last_header <> s.name then begin
        last_header := s.name;
        if s.help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.name s.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" s.name kind)
      end;
      match s.value with
      | Counter v ->
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" s.name (render_labels s.labels) v)
      | Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" s.name (render_labels s.labels) (float_repr v))
      | Histogram h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun b count ->
              cumulative := !cumulative + count;
              let le =
                if b < Array.length h.bounds then float_repr h.bounds.(b) else "+Inf"
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.name
                   (render_labels (s.labels @ [ ("le", le) ]))
                   !cumulative))
            h.bucket_counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.name (render_labels s.labels) (float_repr h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" s.name (render_labels s.labels) h.count))
    (scrape ());
  Buffer.contents buf

(* ---------------- The JSON twin ---------------- *)

let sample_to_json s =
  let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.labels) in
  let help = match s.help with "" -> [] | h -> [ ("help", Json.String h) ] in
  Json.Obj
    ((("name", Json.String s.name) :: ("labels", labels) :: help)
    @
    match s.value with
    | Counter n -> [ ("type", Json.String "counter"); ("value", Json.Int n) ]
    | Gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
    | Histogram h ->
        let n = Array.length h.bounds in
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.count);
          ("sum", Json.Float h.sum);
          ( "buckets",
            Json.List
              (List.init n (fun b ->
                   Json.Obj
                     [
                       ("le", Json.Float h.bounds.(b)); ("count", Json.Int h.bucket_counts.(b));
                     ])) );
          ("overflow", Json.Int h.bucket_counts.(n));
        ])

let to_json samples = Json.Obj [ ("metrics", Json.List (List.map sample_to_json samples)) ]

let sample_of_json j =
  let value =
    match Json.get_string "type" j with
    | "counter" -> Counter (Json.get_int "value" j)
    | "gauge" -> Gauge (Json.get_float "value" j)
    | "histogram" ->
        let buckets = Json.get_list "buckets" j in
        let bounds = Array.of_list (List.map (Json.get_float "le") buckets) in
        let counts = List.map (Json.get_int "count") buckets @ [ Json.get_int "overflow" j ] in
        Histogram
          {
            bounds;
            bucket_counts = Array.of_list counts;
            count = Json.get_int "count" j;
            sum = Json.get_float "sum" j;
          }
    | other -> raise (Json.Type_error (Printf.sprintf "unknown metric type %S" other))
  in
  {
    name = Json.get_string "name" j;
    help = Option.value ~default:"" (Json.opt Json.get_string "help" j);
    labels =
      List.map
        (fun (k, _) -> (k, Json.get_string k (Json.member "labels" j)))
        (Json.get_obj "labels" j);
    value;
  }

let of_json j =
  match List.map sample_of_json (Json.get_list "metrics" j) with
  | samples -> Ok samples
  | exception Json.Type_error msg -> Error msg

let save ~path =
  Fs.write_file ~path
    (if Filename.check_suffix path ".json" then Json.to_string (to_json (scrape ())) ^ "\n"
     else to_prometheus ())
