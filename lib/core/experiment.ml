module Counters = Pi_uarch.Counters
module Pipeline = Pi_uarch.Pipeline
module Span = Pi_obs.Span

(* One tick per observation replayed (computed, not served from a cache);
   the acceptance metric for a cold campaign is
   pi_obs_observations_total = manifest total_jobs. *)
let m_observations =
  Pi_obs.Metrics.counter ~help:"interferometry observations replayed"
    "pi_obs_observations_total"

type config = {
  scale : int;
  budget_blocks : int;
  warmup_fraction : float;
  runs_per_group : int;
  noise : Counters.noise;
  heap_random : bool;
  aslr : bool;
  machine : Pipeline.config;
  master_seed : int;
}

let default_config =
  {
    scale = 8;
    budget_blocks = 220_000;
    warmup_fraction = 0.25;
    runs_per_group = 5;
    noise = Counters.default_noise;
    heap_random = false;
    aslr = false;
    machine = Pi_uarch.Machine.xeon_e5440;
    master_seed = 1;
  }

let quick_config =
  { default_config with scale = 2; budget_blocks = 60_000 }

let make_config ?(quick = false) ?seed ?scale ?heap_random () =
  let base = if quick then quick_config else default_config in
  {
    base with
    master_seed = Option.value seed ~default:base.master_seed;
    scale = Option.value scale ~default:base.scale;
    heap_random = Option.value heap_random ~default:base.heap_random;
  }

type prepared = {
  bench : Pi_workloads.Bench.t;
  config : config;
  program : Pi_isa.Program.t;
  trace : Pi_isa.Trace.t;
  warmup_blocks : int;
  plan : Pi_uarch.Replay.plan;
      (* compiled once here; every observation replays it, and campaign
         workers share it read-only across domains *)
  data : Pi_layout.Data_layout.t option;
      (* the seed-invariant data layout, built once here when the config
         makes one (bump heap, no ASLR); shared read-only like [plan] *)
  data_side : Pi_uarch.Replay.data_side option;
      (* [data]'s L1D and prefetcher behaviour, simulated once here *)
}

let prepare ?(config = default_config) (bench : Pi_workloads.Bench.t) =
  let name = bench.Pi_workloads.Bench.name in
  Span.with_ ~name:"prepare" ~args:[ ("bench", name) ] (fun () ->
      let program =
        Span.with_ ~name:"build" ~args:[ ("bench", name) ] (fun () ->
            bench.Pi_workloads.Bench.build ~scale:config.scale)
      in
      let trace =
        Span.with_ ~name:"trace" ~args:[ ("bench", name) ] (fun () ->
            Pi_layout.Run_limiter.trace ~seed:config.master_seed program
              ~budget_blocks:config.budget_blocks)
      in
      let warmup_blocks =
        int_of_float
          (config.warmup_fraction *. float_of_int (Pi_isa.Trace.blocks_executed trace))
      in
      let data =
        Pi_layout.Placement.shared_data ~heap_random:config.heap_random ~aslr:config.aslr
          program
      in
      let plan, data_side =
        Span.with_ ~name:"compile" ~args:[ ("bench", name) ] (fun () ->
            let plan = Pi_uarch.Replay.compile config.machine trace in
            (plan, Option.map (Pi_uarch.Replay.data_side plan) data))
      in
      { bench; config; program; trace; warmup_blocks; plan; data; data_side })

type observation = {
  layout_seed : int;
  measurement : Counters.measurement;
}

type dataset = { prepared : prepared; observations : observation array }

(* Per-(benchmark, seed) noise stream so reruns reproduce measurements. *)
let measurement_seed prepared layout_seed =
  let h = Hashtbl.hash (prepared.bench.Pi_workloads.Bench.name, layout_seed) in
  (prepared.config.master_seed * 1_000_003) + h

let placement prepared ~seed =
  match prepared.data with
  | Some data -> Pi_layout.Placement.with_data data ~seed
  | None ->
      Pi_layout.Placement.make ~heap_random:prepared.config.heap_random
        ~aslr:prepared.config.aslr prepared.program ~seed

let exact_counts prepared ~seed =
  let placement = Span.with_ ~name:"layout" (fun () -> placement prepared ~seed) in
  (* Without a shared data side (heap_random, aslr), the replay builds this
     seed's own, inside the span. *)
  Span.with_ ~name:"replay" (fun () ->
      Pi_uarch.Replay.run ~warmup_blocks:prepared.warmup_blocks ?data_side:prepared.data_side
        prepared.plan placement)

let observe_seed prepared layout_seed =
  Span.with_ ~name:"observe"
    ~args:
      [
        ("bench", prepared.bench.Pi_workloads.Bench.name);
        ("seed", string_of_int layout_seed);
      ]
    (fun () ->
      let counts = exact_counts prepared ~seed:layout_seed in
      let measurement =
        Counters.measure ~noise:prepared.config.noise
          ~runs_per_group:prepared.config.runs_per_group
          ~seed:(measurement_seed prepared layout_seed)
          counts
      in
      Pi_obs.Metrics.inc m_observations;
      { layout_seed; measurement })

let observe prepared ~n_layouts =
  if n_layouts < 1 then invalid_arg "Experiment.observe: n_layouts < 1";
  {
    prepared;
    observations = Array.init n_layouts (fun i -> observe_seed prepared (i + 1));
  }

let extend dataset ~n_layouts =
  let have = Array.length dataset.observations in
  if n_layouts <= have then dataset
  else
    let extra =
      Array.init (n_layouts - have) (fun i -> observe_seed dataset.prepared (have + i + 1))
    in
    { dataset with observations = Array.append dataset.observations extra }

let run ?config bench ~n_layouts = observe (prepare ?config bench) ~n_layouts

let column f dataset = Array.map (fun o -> f o.measurement) dataset.observations

let cpis = column (fun m -> m.Counters.cpi)
let mpkis = column (fun m -> m.Counters.mpki)
let l1i_mpkis = column (fun m -> m.Counters.l1i_mpki)
let l1d_mpkis = column (fun m -> m.Counters.l1d_mpki)
let l2_mpkis = column (fun m -> m.Counters.l2_mpki)
