(** The paper's two-pass run-length instrumentation.

    SPEC benchmarks run far too long for 100+ measured executions, so the
    paper profiles each benchmark once, finds a procedure with a low dynamic
    invocation count that is reached near the end of a fixed time budget,
    and instruments the benchmark to stop when that procedure has executed
    the same number of times. Counting procedure invocations rather than
    elapsed time guarantees every perturbed executable retires the same
    number of instructions.

    Here the "time budget" is an executed-block budget and the
    instrumentation is an interpreter stop condition — same mechanism,
    simulated substrate. The interpreter is deterministic, so the two
    executions share everything up to the stop, and {!trace} interprets the
    benchmark only once. *)

type t = {
  stop_proc : int;  (** procedure id *)
  stop_count : int;  (** invocation count at which execution ends *)
  profiled_blocks : int;  (** blocks executed by the profiling pass *)
}

val choose : ?seed:int -> Pi_isa.Program.t -> budget_blocks:int -> t option
(** Profile the program for [budget_blocks] and select the cut-off
    procedure: among the procedures whose last profiled entry lies in the
    final 10% of the profile (block index [>= budget_blocks * 9 / 10]), the
    one entered least often; ties go to the lowest procedure id. Entries are
    counted as executions of the procedure's entry block, which is at least
    its invocation count. Returns [None] when the program halts on its own
    within the budget — then no instrumentation is needed, mirroring the
    paper's benchmarks that "naturally run for less than two minutes" — or
    when no procedure qualifies. *)

val limits : t -> Pi_isa.Interp.limits
(** Interpreter limits enforcing the instrumentation (with a generous
    block-count safety net: twice the profiled blocks). *)

val trace : ?seed:int -> Pi_isa.Program.t -> budget_blocks:int -> Pi_isa.Trace.t
(** Profile, instrument, and produce the bounded trace in one step — the
    trace every layout of this benchmark will replay. It equals
    [Interp.run ~seed ~limits:(limits t)] after [choose] returns [Some t],
    and the profile itself after [None], field for field.

    The benchmark is interpreted once. The chosen procedure's halting
    invocation runs while block [budget_blocks * 9 / 10 - 1] or a later one
    ends, and before that point its invocation count is below [stop_count],
    so the instrumented run is the profile up to there. The profiling pass
    takes an {!Pi_isa.Interp.snapshot} at that block, and the instrumented
    run resumes from it under [limits t]. (The instrumented run can go past
    the profile's end when an entry block is also reached without a call.)
    A budget of one block has no such point and runs the instrumented
    execution from the start. *)
