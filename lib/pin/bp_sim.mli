(** Pin-style functional branch-predictor simulation.

    The paper instruments every branch of the *native executable* with a
    callback that drives a set of simulated predictors, counting executed
    and mispredicted branches per predictor — no timing, no noise, one run
    per code reordering. Here the "instrumented executable" is a trace plus
    the code layout that fixes its branch addresses; the callback drives any
    number of predictors in one pass. *)

type result = {
  predictor_name : string;
  branches : int;  (** dynamic conditional branches *)
  mispredicted : int;
  instructions : int;
  mpki : float;
}

type stream
(** The dynamic conditional-branch stream, packed one int per branch as
    [(branch_id lsl 1) lor taken]. Placement-invariant: compile it once per
    trace and reuse it across layout seeds and predictor sweeps. *)

val compile_stream : Pi_isa.Trace.t -> stream
(** Extract the packed branch stream from a trace (one pass over
    [block_seq]). *)

val stream_length : stream -> int
(** Dynamic conditional branches in the stream. *)

val run :
  ?warmup_branches:int ->
  ?stream:stream ->
  Pi_isa.Trace.t ->
  Pi_layout.Code_layout.t ->
  (unit -> Pi_uarch.Predictor.t) list ->
  result list
(** Simulate all predictors over the conditional-branch stream. Every
    predictor sees the identical stream (fresh instances, deterministic).
    [warmup_branches] excludes the leading branches from the counts while
    still training the predictors. [stream] supplies a precompiled branch
    stream (must come from [trace]); otherwise one is compiled per call.
    Each predictor makes its own pass over the stream. *)

val per_branch_mispredicts :
  ?warmup_branches:int ->
  ?stream:stream ->
  Pi_isa.Trace.t ->
  Pi_layout.Code_layout.t ->
  (unit -> Pi_uarch.Predictor.t) ->
  (int * int) array
(** Per static branch id: (executions, mispredictions) — the profile a Pin
    tool would emit per instrumentation site. *)
