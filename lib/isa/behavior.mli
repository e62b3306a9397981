(** Branch direction behaviours.

    Each static conditional branch in a program carries a behaviour that
    decides its direction at every dynamic execution. Behaviours are chosen
    to span the predictability spectrum the paper's benchmarks exhibit:

    - [Always_taken]/[Never_taken]/strongly biased [Bernoulli]: easy for a
      bimodal predictor;
    - short [Periodic] patterns and small [Loop_trip] counts: captured by a
      two-level (GAs/gshare) predictor whose history register covers the
      period;
    - long [Periodic] patterns and large [Loop_trip] counts: beyond GAs
      history but captured by L-TAGE's long geometric histories and loop
      predictor;
    - [Correlated]: direction follows an earlier branch's latest outcome
      (optionally inverted, with flip noise) — predictable from global
      history;
    - [Bernoulli ~p:0.5]: irreducibly hard.

    Behaviour evaluation is deterministic given the interpreter seed, so the
    dynamic branch-outcome stream is identical across code layouts — the
    property program interferometry depends on. *)

type t =
  | Always_taken
  | Never_taken
  | Bernoulli of { p_taken : float }
  | Periodic of { pattern : bool array }  (** repeats forever; non-empty *)
  | Loop_trip of { trips : int }
      (** taken [trips - 1] times then not-taken once, repeating; [trips >= 1] *)
  | Alternating
  | Correlated of { src : string; invert : bool; noise : float }
      (** follows the labelled branch [src]'s most recent outcome *)

val validate : t -> (unit, string) result

val loop_pattern : trips:int -> bool array
(** The explicit pattern equivalent of [Loop_trip]. *)

val pp : Format.formatter -> t -> unit

(** Runtime evaluation state for a program's branches. *)
module State : sig
  type behavior = t
  type t

  val create : rng:Pi_stats.Rng.t -> resolved_src:int array -> behavior array -> t
  (** [resolved_src.(i)] is the branch id [Correlated] branch [i] follows
      (or [-1] for other behaviours). *)

  val next_outcome : t -> int -> bool
  (** [next_outcome state branch_id] produces the branch's next direction and
      advances its state. *)

  val copy : t -> t
  (** Independent copy with identical future outcomes. *)
end

(** Target selectors for indirect branches. *)
module Selector : sig
  type t =
    | Round_robin
    | Random_target
    | Periodic_targets of int array  (** indices into the target array *)

  val validate : n_targets:int -> t -> (unit, string) result

  module State : sig
    type selector = t
    type t

    val create : rng:Pi_stats.Rng.t -> (selector * int) array -> t
    (** One [(selector, n_targets)] pair per indirect branch. *)

    val next_target : t -> int -> int
    (** Index of the chosen target; advances the state. *)

    val copy : t -> t
    (** Independent copy with identical future targets. *)
  end
end
