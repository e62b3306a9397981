module Counters = Pi_uarch.Counters

let header_line =
  "layout_seed,cpi,mpki,l1i_mpki,l1d_mpki,l2_mpki,cycles,instructions,mispredicts,l1i_misses,l1d_misses,l2_misses"

let observation_to_row (o : Experiment.observation) =
  let m = o.Experiment.measurement in
  (* %.17g round-trips every float exactly: the campaign observation cache
     replays these rows in place of simulation, so a refit from CSV must
     reproduce the in-memory coefficients bit for bit. *)
  Printf.sprintf "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
    o.Experiment.layout_seed m.Counters.cpi m.Counters.mpki m.Counters.l1i_mpki
    m.Counters.l1d_mpki m.Counters.l2_mpki m.Counters.cycles m.Counters.instructions
    m.Counters.mispredicts m.Counters.l1i_misses m.Counters.l1d_misses m.Counters.l2_misses

let observation_of_row line =
  match String.split_on_char ',' (String.trim line) with
  | [ seed; cpi; mpki; l1i; l1d; l2; cycles; instructions; mispredicts; l1im; l1dm; l2m ]
    -> (
      let f name s =
        match float_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "bad %s field: %S" name s)
      in
      let ( let* ) r k = Result.bind r k in
      match int_of_string_opt seed with
      | None -> Error (Printf.sprintf "bad layout_seed: %S" seed)
      | Some layout_seed ->
          let* cpi = f "cpi" cpi in
          let* mpki = f "mpki" mpki in
          let* l1i_mpki = f "l1i_mpki" l1i in
          let* l1d_mpki = f "l1d_mpki" l1d in
          let* l2_mpki = f "l2_mpki" l2 in
          let* cycles = f "cycles" cycles in
          let* instructions = f "instructions" instructions in
          let* mispredicts = f "mispredicts" mispredicts in
          let* l1i_misses = f "l1i_misses" l1im in
          let* l1d_misses = f "l1d_misses" l1dm in
          let* l2_misses = f "l2_misses" l2m in
          Ok
            {
              Experiment.layout_seed;
              measurement =
                {
                  Counters.cpi;
                  mpki;
                  l1i_mpki;
                  l1d_mpki;
                  l2_mpki;
                  cycles;
                  instructions;
                  mispredicts;
                  l1i_misses;
                  l1d_misses;
                  l2_misses;
                };
            })
  | _ -> Error (Printf.sprintf "expected 12 fields: %S" line)

let save path (dataset : Experiment.dataset) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_line ^ "\n");
      Array.iter
        (fun o -> output_string oc (observation_to_row o ^ "\n"))
        dataset.Experiment.observations)

let observations_of_lines = function
  | [] -> Error "empty file"
  | header :: rows when String.trim header = header_line ->
      let rec parse acc index = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | row :: rest when String.trim row = "" -> parse acc (index + 1) rest
        | row :: rest -> (
            match observation_of_row row with
            | Ok o -> parse (o :: acc) (index + 1) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" index e))
      in
      parse [] 2 rows
  | _ -> Error "missing or unexpected header line"

let load_observations path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      observations_of_lines (List.rev !lines))

let reattach prepared observations = { Experiment.prepared; observations }
