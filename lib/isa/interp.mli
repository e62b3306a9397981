(** Program interpreter: executes a program's CFG and records a
    layout-independent {!Trace}.

    Execution is deterministic given [seed]: branch behaviours, indirect
    selectors and randomized memory patterns all draw from streams derived
    from it. Interferometry interprets each benchmark once and reuses the
    trace for every layout; even the run-length instrumentation's second
    run ({!Pi_layout.Run_limiter.trace}) resumes from a {!snapshot} of the
    profiling run instead of interpreting the benchmark again.

    Execution stops at the first of: the entry procedure returning, a [Halt]
    terminator, [max_blocks] executed blocks, or — mirroring the paper's
    run-length instrumentation — a designated procedure reaching its target
    invocation count ([stop_proc]). *)

type limits = {
  max_blocks : int;
  stop_proc : (int * int) option;  (** procedure id, invocation count *)
}

val default_limits : limits
(** [{ max_blocks = 2_000_000; stop_proc = None }]. *)

exception Stack_overflow_in_program of string
(** Raised when call depth exceeds the interpreter's safety bound,
    indicating runaway recursion in a workload definition. *)

val run : ?seed:int -> ?limits:limits -> Program.t -> Trace.t
(** [start], one [advance] under [limits], then [trace]. *)

(** {2 Resumable execution}

    A machine is a paused execution. It pauses at the top of its loop,
    before the next block is recorded, so [advance] with a larger limit
    continues exactly where the previous one stopped. *)

type t

val start : ?seed:int -> limits:limits -> Program.t -> t
(** A machine about to execute the entry procedure's first block. Entering
    that procedure is its first invocation, checked against
    [limits.stop_proc]. *)

val advance : t -> limits:limits -> unit
(** Execute blocks until [limits] (which from now on also govern every
    procedure invocation) or the program stops the machine. A machine that
    already holds [limits.max_blocks] blocks executes none. *)

val blocks_executed : t -> int

val block : t -> int -> int
(** [block t i] is the id of the [i]-th executed block. *)

val trace : t -> Trace.t
(** The execution so far, as a trace. *)

type snapshot
(** Every piece of a machine's mutable state — pc, halted flag, counters,
    call stack, procedure invocation counts, the three random streams,
    branch-behaviour and selector state, and each memory op's state — plus
    the lengths of its block and memory-event vectors. The vectors
    themselves are shared with the machine, not copied. *)

val snapshot : t -> snapshot

val resume : snapshot -> t
(** A machine in the snapshot's state. It truncates the shared vectors to
    the snapshot's lengths and appends from there, so no other machine
    sharing them (the one the snapshot came from, or one resumed from it
    earlier) may be used afterwards. Invariant: resuming and
    then advancing under limits [l] gives the same trace as a fresh run
    under [l] whenever that fresh run would not have stopped before the
    snapshot point, because the execution up to that point does not depend
    on the limits. *)
