module Rng = Pi_stats.Rng

type t =
  | Always_taken
  | Never_taken
  | Bernoulli of { p_taken : float }
  | Periodic of { pattern : bool array }
  | Loop_trip of { trips : int }
  | Alternating
  | Correlated of { src : string; invert : bool; noise : float }

let validate = function
  | Always_taken | Never_taken | Alternating -> Ok ()
  | Bernoulli { p_taken } ->
      if p_taken >= 0.0 && p_taken <= 1.0 then Ok ()
      else Error "Bernoulli probability out of [0,1]"
  | Periodic { pattern } ->
      if Array.length pattern > 0 then Ok () else Error "empty periodic pattern"
  | Loop_trip { trips } -> if trips >= 1 then Ok () else Error "loop trips < 1"
  | Correlated { noise; src; _ } ->
      if noise < 0.0 || noise > 1.0 then Error "correlation noise out of [0,1]"
      else if String.length src = 0 then Error "empty correlation source label"
      else Ok ()

let loop_pattern ~trips =
  if trips < 1 then invalid_arg "Behavior.loop_pattern: trips < 1";
  Array.init trips (fun i -> i < trips - 1)

let pp ppf = function
  | Always_taken -> Format.fprintf ppf "always-taken"
  | Never_taken -> Format.fprintf ppf "never-taken"
  | Bernoulli { p_taken } -> Format.fprintf ppf "bernoulli(%.2f)" p_taken
  | Periodic { pattern } -> Format.fprintf ppf "periodic(%d)" (Array.length pattern)
  | Loop_trip { trips } -> Format.fprintf ppf "loop(%d)" trips
  | Alternating -> Format.fprintf ppf "alternating"
  | Correlated { src; invert; noise } ->
      Format.fprintf ppf "correlated(%s%s, noise=%.2f)" src
        (if invert then ", inverted" else "")
        noise

module State = struct
  type behavior = t

  type t = {
    behaviors : behavior array;
    resolved_src : int array;
    counters : int array;  (** position for periodic / loop / alternating *)
    last_outcome : bool array;  (** most recent outcome of every branch *)
    rng : Rng.t;
  }

  let create ~rng ~resolved_src behaviors =
    let n = Array.length behaviors in
    if Array.length resolved_src <> n then
      invalid_arg "Behavior.State.create: resolved_src length mismatch";
    {
      behaviors;
      resolved_src;
      counters = Array.make n 0;
      last_outcome = Array.make n false;
      rng;
    }

  let next_outcome t id =
    let outcome =
      match t.behaviors.(id) with
      | Always_taken -> true
      | Never_taken -> false
      | Bernoulli { p_taken } -> Rng.bernoulli t.rng p_taken
      | Periodic { pattern } ->
          let pos = t.counters.(id) in
          t.counters.(id) <- (pos + 1) mod Array.length pattern;
          pattern.(pos)
      | Loop_trip { trips } ->
          let pos = t.counters.(id) in
          t.counters.(id) <- (pos + 1) mod trips;
          pos < trips - 1
      | Alternating ->
          let pos = t.counters.(id) in
          t.counters.(id) <- pos lxor 1;
          pos = 0
      | Correlated { invert; noise; _ } ->
          let src = t.resolved_src.(id) in
          let base = t.last_outcome.(src) in
          let base = if invert then not base else base in
          if noise > 0.0 && Rng.bernoulli t.rng noise then not base else base
    in
    t.last_outcome.(id) <- outcome;
    outcome

  let copy t =
    {
      t with
      counters = Array.copy t.counters;
      last_outcome = Array.copy t.last_outcome;
      rng = Rng.copy t.rng;
    }
end

module Selector = struct
  type t = Round_robin | Random_target | Periodic_targets of int array

  let validate ~n_targets = function
    | Round_robin | Random_target ->
        if n_targets >= 1 then Ok () else Error "indirect branch with no targets"
    | Periodic_targets seq ->
        if Array.length seq = 0 then Error "empty periodic target sequence"
        else if Array.exists (fun i -> i < 0 || i >= n_targets) seq then
          Error "periodic target index out of range"
        else Ok ()

  module State = struct
    type selector = t

    type t = {
      selectors : (selector * int) array;
      counters : int array;
      rng : Rng.t;
    }

    let create ~rng selectors =
      { selectors; counters = Array.make (Array.length selectors) 0; rng }

    let next_target t id =
      let selector, n_targets = t.selectors.(id) in
      match selector with
      | Round_robin ->
          let pos = t.counters.(id) in
          t.counters.(id) <- (pos + 1) mod n_targets;
          pos
      | Random_target -> Rng.int t.rng n_targets
      | Periodic_targets seq ->
          let pos = t.counters.(id) in
          t.counters.(id) <- (pos + 1) mod Array.length seq;
          seq.(pos)

    let copy t = { t with counters = Array.copy t.counters; rng = Rng.copy t.rng }
  end
end
