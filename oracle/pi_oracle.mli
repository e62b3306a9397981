(** The golden references, linked only by the tests and the bench harness.
    Every faster path is checked against one of them field for field. *)

val run_unoptimized :
  ?warmup_blocks:int ->
  Pi_uarch.Pipeline.config ->
  Pi_isa.Trace.t ->
  Pi_layout.Placement.t ->
  Pi_uarch.Pipeline.counts
(** The legacy interpreter: recomputes every trace-derived table per call and
    pattern-matches terminators per dynamic block. Kept as the reference
    implementation for the golden-equivalence tests and the perf baseline;
    produces bit-identical {!Pi_uarch.Pipeline.counts} to
    {!Pi_uarch.Pipeline.replay}. *)

val two_pass_trace : ?seed:int -> Pi_isa.Program.t -> budget_blocks:int -> Pi_isa.Trace.t
(** The reference for {!Pi_layout.Run_limiter.trace}: the paper's two
    separate executions, composed from {!Pi_layout.Run_limiter.choose},
    {!Pi_layout.Run_limiter.limits} and {!Pi_isa.Interp.run} — profile,
    then run again under the instrumentation's limits (or the profile's
    own, when there is nothing to instrument). *)
