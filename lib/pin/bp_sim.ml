module Program = Pi_isa.Program
module Trace = Pi_isa.Trace

type result = {
  predictor_name : string;
  branches : int;
  mispredicted : int;
  instructions : int;
  mpki : float;
}

(* The dynamic conditional-branch stream of a trace, packed one int per
   branch as [(branch_id lsl 1) lor taken]. Placement-invariant (branch ids
   and outcomes come from the trace alone; the code layout only fixes PCs),
   so one stream serves every layout seed and every predictor sweep. *)
type stream = int array

let compile_stream trace =
  let program = trace.Trace.program in
  let seq = trace.Trace.block_seq in
  let n = Array.length seq in
  let count = ref 0 in
  for i = 0 to n - 2 do
    match program.Program.blocks.(seq.(i)).Program.term with
    | Program.Branch _ -> incr count
    | Program.Jump _ | Program.Call _ | Program.Indirect_call _ | Program.Switch _
    | Program.Return | Program.Halt ->
        ()
  done;
  let out = Array.make !count 0 in
  let cursor = ref 0 in
  for i = 0 to n - 2 do
    match program.Program.blocks.(seq.(i)).Program.term with
    | Program.Branch { branch; taken; not_taken = _ } ->
        out.(!cursor) <- (branch lsl 1) lor (if seq.(i + 1) = taken then 1 else 0);
        incr cursor
    | Program.Jump _ | Program.Call _ | Program.Indirect_call _ | Program.Switch _
    | Program.Return | Program.Halt ->
        ()
  done;
  out

let stream_length (s : stream) = Array.length s

let measured_instructions ?(warmup_branches = 0) trace =
  (* Approximate post-warmup instruction count by scaling: the Pin tool
     reports MPKI over the measured window. *)
  let total_branches = trace.Trace.cond_branches in
  if total_branches = 0 then trace.Trace.instructions
  else
    let fraction =
      float_of_int (max 0 (total_branches - warmup_branches)) /. float_of_int total_branches
    in
    int_of_float (fraction *. float_of_int trace.Trace.instructions)

let run ?(warmup_branches = 0) ?stream trace code makes =
  let stream = match stream with Some s -> s | None -> compile_stream trace in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let predictors = Array.of_list (List.map (fun make -> make ()) makes) in
  let np = Array.length predictors in
  let branch_counts = Array.make np 0 in
  let mispredict_counts = Array.make np 0 in
  let n = Array.length stream in
  (* One pass per predictor: its tables stay hot in cache for the whole
     stream. *)
  for j = 0 to np - 1 do
    let p = predictors.(j) in
    let on_branch = p.Pi_uarch.Predictor.on_branch in
    let measured_branches = ref 0 in
    let mispredicted = ref 0 in
    for i = 0 to n - 1 do
      let packed = Array.unsafe_get stream i in
      let pc = Array.unsafe_get branch_pc (packed lsr 1) in
      let taken = packed land 1 = 1 in
      let correct = on_branch ~pc ~taken in
      if i >= warmup_branches then begin
        incr measured_branches;
        if not correct then incr mispredicted
      end
    done;
    branch_counts.(j) <- !measured_branches;
    mispredict_counts.(j) <- !mispredicted
  done;
  let instructions = measured_instructions ~warmup_branches trace in
  Array.to_list
    (Array.mapi
       (fun j p ->
         {
           predictor_name = p.Pi_uarch.Predictor.name;
           branches = branch_counts.(j);
           mispredicted = mispredict_counts.(j);
           instructions;
           mpki =
             (if instructions = 0 then 0.0
              else 1000.0 *. float_of_int mispredict_counts.(j) /. float_of_int instructions);
         })
       predictors)

let per_branch_mispredicts ?(warmup_branches = 0) ?stream trace code make =
  let stream = match stream with Some s -> s | None -> compile_stream trace in
  let branch_pc = code.Pi_layout.Code_layout.branch_pc in
  let p = make () in
  let on_branch = p.Pi_uarch.Predictor.on_branch in
  let n = Array.length trace.Trace.program.Program.branches in
  let executions = Array.make n 0 in
  let mispredicts = Array.make n 0 in
  for i = 0 to Array.length stream - 1 do
    let packed = Array.unsafe_get stream i in
    let branch = packed lsr 1 in
    let taken = packed land 1 = 1 in
    let correct = on_branch ~pc:(Array.unsafe_get branch_pc branch) ~taken in
    if i >= warmup_branches then begin
      executions.(branch) <- executions.(branch) + 1;
      if not correct then mispredicts.(branch) <- mispredicts.(branch) + 1
    end
  done;
  Array.init n (fun i -> (executions.(i), mispredicts.(i)))
