type event = {
  name : string;
  cat : string;
  ts : float;
  dur : float;
  tid : int;
  depth : int;
  alloc_bytes : float;
  args : (string * string) list;
}

(* [hot] is the single flag the disabled fast path loads: it is true iff
   global collection is enabled OR at least one per-thread collector is
   attached. [state_mutex] guards every transition that could change it. *)
let enabled_flag = Atomic.make false
let hot = Atomic.make false
let state_mutex = Mutex.create ()

let buffer_mutex = Mutex.create ()
let recorded : event list ref = ref [] (* reverse completion order *)
let buffer_count = ref 0
let default_buffer_capacity = 65_536
let buffer_cap = Atomic.make default_buffer_capacity

(* Per-domain nesting depth; domain-local so worker spans never race. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let m_spans = Metrics.counter ~help:"completed trace spans" "pi_obs_spans_total"

let m_dropped =
  Metrics.counter
    ~help:"spans discarded because a span buffer was at capacity"
    "pi_obs_spans_dropped_total"

(* ---------------- Per-thread collectors ---------------- *)

(* A collector captures the spans of one logical unit of work (a daemon
   job) without touching the global buffer. Server workers are threads,
   not domains — they all share domain 0 — so collectors are keyed by
   [Thread.id], never [Domain.self]. *)
type collector = {
  c_capacity : int;
  c_mutex : Mutex.t;
  mutable c_events : event list; (* reverse completion order *)
  mutable c_count : int;
}

let collectors : (int, collector) Hashtbl.t = Hashtbl.create 8
let active_collectors = Atomic.make 0

let refresh_hot () =
  Atomic.set hot (Atomic.get enabled_flag || Atomic.get active_collectors > 0)

let set_enabled b =
  Mutex.protect state_mutex (fun () ->
      Atomic.set enabled_flag b;
      refresh_hot ())

let enabled () = Atomic.get enabled_flag

let set_buffer_capacity n =
  if n < 1 then invalid_arg "Span.set_buffer_capacity: capacity must be >= 1";
  Atomic.set buffer_cap n

let buffer_capacity () = Atomic.get buffer_cap

let collector ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Span.collector: capacity must be >= 1";
  { c_capacity = capacity; c_mutex = Mutex.create (); c_events = []; c_count = 0 }

let collector_add c e =
  Mutex.protect c.c_mutex (fun () ->
      if c.c_count >= c.c_capacity then Metrics.inc m_dropped
      else begin
        c.c_events <- e :: c.c_events;
        c.c_count <- c.c_count + 1
      end)

let add_event c e = collector_add c e

let collector_events c =
  Mutex.protect c.c_mutex (fun () -> List.rev c.c_events)

let with_collector c f =
  let tid = Thread.id (Thread.self ()) in
  let prev =
    Mutex.protect state_mutex (fun () ->
        let prev = Hashtbl.find_opt collectors tid in
        Hashtbl.replace collectors tid c;
        if prev = None then Atomic.incr active_collectors;
        refresh_hot ();
        prev)
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect state_mutex (fun () ->
          (match prev with
          | Some p -> Hashtbl.replace collectors tid p
          | None ->
              Hashtbl.remove collectors tid;
              Atomic.decr active_collectors);
          refresh_hot ()))
    f

let current_collector () =
  if Atomic.get active_collectors = 0 then None
  else
    let tid = Thread.id (Thread.self ()) in
    Mutex.protect state_mutex (fun () -> Hashtbl.find_opt collectors tid)

let record e =
  Metrics.inc m_spans;
  (if Atomic.get enabled_flag then
     Mutex.protect buffer_mutex (fun () ->
         if !buffer_count >= Atomic.get buffer_cap then Metrics.inc m_dropped
         else begin
           recorded := e :: !recorded;
           incr buffer_count
         end));
  match current_collector () with
  | Some c -> collector_add c e
  | None -> ()

let with_ ?(cat = "pi") ?(args = []) ~name f =
  if not (Atomic.get hot) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let a0 = Gc.allocated_bytes () in
    let t0 = Clock.now () in
    let finish () =
      let dur = Clock.now () -. t0 in
      let alloc = Gc.allocated_bytes () -. a0 in
      depth := d;
      record
        {
          name;
          cat;
          ts = t0;
          dur;
          tid = (Domain.self () :> int);
          depth = d;
          alloc_bytes = alloc;
          args;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception exn ->
        finish ();
        raise exn
  end

let events () = Mutex.protect buffer_mutex (fun () -> List.rev !recorded)

let clear () =
  Mutex.protect buffer_mutex (fun () ->
      recorded := [];
      buffer_count := 0)

(* ---------------- Chrome trace-event export ---------------- *)

(* Chrome trace timestamps are microseconds, kept to three decimals; the
   epoch is arbitrary (monotonic), only differences matter to the viewer. *)
let micros seconds = Json.Float (Float.round (seconds *. 1e9) /. 1e3)

let event_to_json e =
  Json.Obj
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String "X");
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
      ("ts", micros e.ts);
      ("dur", micros e.dur);
      ( "args",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.String v)) e.args
          @ [
              ("alloc_bytes", Json.number (Float.round e.alloc_bytes));
              ("depth", Json.Int e.depth);
            ]) );
    ]

let events_to_chrome_json evs =
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ("traceEvents", Json.List (List.map event_to_json evs));
       ])

let to_chrome_json () = events_to_chrome_json (events ())

let save ~path = Fs.write_file ~path (to_chrome_json () ^ "\n")
