module Interp = Pi_isa.Interp
module Program = Pi_isa.Program

type t = { stop_proc : int; stop_count : int; profiled_blocks : int }

(* The paper's criterion: low dynamic count AND executed near the end of
   the budget — in its final 10% — so stopping at the same invocation count
   ends the run at nearly the same point. *)
let near_end blocks = blocks * 9 / 10

let profile_limits budget_blocks = { Interp.max_blocks = budget_blocks; stop_proc = None }

(* The choice over a machine that has run the profile. *)
let choose_in (program : Program.t) m ~budget_blocks =
  let len = Interp.blocks_executed m in
  if len < budget_blocks then
    (* The program ended on its own inside the budget. *)
    None
  else begin
    (* Find each procedure's invocation count and the position of its last
       invocation by scanning the block sequence for procedure entries. *)
    let n_procs = Array.length program.procs in
    let entry_of = Array.make (Array.length program.blocks) (-1) in
    Array.iter (fun (p : Program.procedure) -> entry_of.(p.entry) <- p.proc_id) program.procs;
    let counts = Array.make n_procs 0 in
    let last_seen = Array.make n_procs (-1) in
    for i = 0 to len - 1 do
      let proc = entry_of.(Interp.block m i) in
      if proc >= 0 then begin
        counts.(proc) <- counts.(proc) + 1;
        last_seen.(proc) <- i
      end
    done;
    let near_end = near_end len in
    let best = ref None in
    for proc = 0 to n_procs - 1 do
      if counts.(proc) > 0 && last_seen.(proc) >= near_end then
        match !best with
        | None -> best := Some (proc, counts.(proc))
        | Some (_, best_count) ->
            if counts.(proc) < best_count then best := Some (proc, counts.(proc))
    done;
    match !best with
    | None -> None
    | Some (stop_proc, stop_count) -> Some { stop_proc; stop_count; profiled_blocks = len }
  end

let choose ?(seed = 42) program ~budget_blocks =
  if budget_blocks < 1 then invalid_arg "Run_limiter.choose: budget_blocks < 1";
  let limits = profile_limits budget_blocks in
  let m = Interp.start ~seed ~limits program in
  Interp.advance m ~limits;
  choose_in program m ~budget_blocks

let limits t =
  {
    Interp.max_blocks = t.profiled_blocks * 2;
    stop_proc = Some (t.stop_proc, t.stop_count);
  }

let trace ?(seed = 42) program ~budget_blocks =
  if budget_blocks < 1 then invalid_arg "Run_limiter.trace: budget_blocks < 1";
  let profile = profile_limits budget_blocks in
  let m = Interp.start ~seed ~limits:profile program in
  (* The instrumented run is the profile up to the halting invocation of the
     chosen procedure, whose entry block sits at index [near_end] or later;
     that invocation runs while block [near_end - 1] ends. Pause there. *)
  let resume_at = near_end budget_blocks - 1 in
  let snapshot =
    if resume_at < 0 then None
    else begin
      Interp.advance m ~limits:{ profile with max_blocks = resume_at };
      Some (Interp.snapshot m)
    end
  in
  Interp.advance m ~limits:profile;
  match choose_in program m ~budget_blocks with
  | None ->
      (* The instrumented run would repeat the profile: same seed, same
         limits. *)
      Interp.trace m
  | Some t ->
      let limits = limits t in
      let m =
        match snapshot with
        | Some s -> Interp.resume s
        | None -> Interp.start ~seed ~limits program
      in
      Interp.advance m ~limits;
      Interp.trace m
