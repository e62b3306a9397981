(* The steering kernels as they were before the sort-free rewrite, kept
   only as bit-identity oracles for test_surrogate_identity.ml: the
   per-round-sort stump search, the Matrix-based ridge solve, the
   list-built ensemble folds and the list-sort nearest-neighbour query.
   Slow by design; never used outside the tests. *)

module M = Pi_stats.Matrix
module S = Pi_stats.Surrogate

let cholesky_condition l p =
  let mx = ref 0.0 and mn = ref infinity in
  for i = 0 to p - 1 do
    let d = M.get l i i in
    if d > !mx then mx := d;
    if d < !mn then mn := d
  done;
  if !mn <= 0.0 then infinity else (!mx /. !mn) ** 2.0

let ridge_fit ?(lambda = 1e-4) xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Surrogate.ridge_fit: length mismatch";
  if n = 0 then invalid_arg "Surrogate.ridge_fit: empty";
  let d = Array.length xs.(0) in
  if d = 0 then invalid_arg "Surrogate.ridge_fit: no features";
  let nf = float_of_int n in
  let x_mean = Array.make d 0.0 in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Surrogate.ridge_fit: ragged rows";
      Array.iteri (fun j v -> x_mean.(j) <- x_mean.(j) +. v) row)
    xs;
  Array.iteri (fun j s -> x_mean.(j) <- s /. nf) x_mean;
  let y_mean = Array.fold_left ( +. ) 0.0 ys /. nf in
  let a0 = M.create ~rows:d ~cols:d in
  let b = Array.make d 0.0 in
  for i = 0 to n - 1 do
    let row = xs.(i) in
    let yc = ys.(i) -. y_mean in
    for j = 0 to d - 1 do
      let xj = row.(j) -. x_mean.(j) in
      b.(j) <- b.(j) +. (xj *. yc);
      for k = j to d - 1 do
        let v = M.get a0 j k +. (xj *. (row.(k) -. x_mean.(k))) in
        M.set a0 j k v;
        if k <> j then M.set a0 k j v
      done
    done
  done;
  let trace = ref 0.0 in
  for j = 0 to d - 1 do
    trace := !trace +. M.get a0 j j
  done;
  let diag_unit = Float.max (!trace /. float_of_int d) 1e-30 in
  let rec solve lam attempt =
    let a = M.create ~rows:d ~cols:d in
    for j = 0 to d - 1 do
      for k = 0 to d - 1 do
        M.set a j k (M.get a0 j k)
      done;
      M.set a j j (M.get a0 j j +. (lam *. diag_unit))
    done;
    let escalate () =
      if attempt >= 8 then
        invalid_arg "Surrogate.ridge_fit: normal equations unsolvable (escalation cap)"
      else solve (Float.max (lam *. 10.0) 1e-10) (attempt + 1)
    in
    match M.cholesky a with
    | exception Failure _ -> escalate ()
    | l ->
        if cholesky_condition l d > 1e10 then escalate ()
        else (M.solve_cholesky l b, lam)
  in
  let weights, lambda_used = solve lambda 0 in
  let bias =
    y_mean -. Array.fold_left ( +. ) 0.0 (Array.mapi (fun j w -> w *. x_mean.(j)) weights)
  in
  { S.weights; bias; lambda_used }

let best_stump xs res =
  let n = Array.length xs in
  let d = Array.length xs.(0) in
  let total = Array.fold_left ( +. ) 0.0 res in
  let best = ref None in
  let best_gain = ref 1e-12 in
  for j = 0 to d - 1 do
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare xs.(a).(j) xs.(b).(j) in
        if c <> 0 then c else compare a b)
      order;
    let sum = ref 0.0 in
    for k = 0 to n - 2 do
      let i = order.(k) in
      sum := !sum +. res.(i);
      let xa = xs.(i).(j) and xb = xs.(order.(k + 1)).(j) in
      if xb > xa then begin
        let nl = float_of_int (k + 1) and nr = float_of_int (n - k - 1) in
        let sl = !sum and sr = total -. !sum in
        let gain =
          (sl *. sl /. nl) +. (sr *. sr /. nr) -. (total *. total /. float_of_int n)
        in
        if gain > !best_gain +. 1e-15 then begin
          best_gain := gain;
          best :=
            Some
              { S.feat = j; thresh = (xa +. xb) /. 2.0; left = sl /. nl; right = sr /. nr }
        end
      end
    done
  done;
  !best

let stump_eval (s : S.stump) x = if x.(s.S.feat) <= s.S.thresh then s.S.left else s.S.right

let boost_fit ?(rounds = 24) ?(rate = 0.5) xs ys =
  let n = Array.length ys in
  if n = 0 || Array.length xs <> n then invalid_arg "Surrogate.boost_fit: bad input";
  let res = Array.copy ys in
  let acc = ref [] in
  (try
     for _ = 1 to rounds do
       match best_stump xs res with
       | None -> raise Exit
       | Some s ->
           let s = { s with S.left = s.S.left *. rate; right = s.S.right *. rate } in
           acc := s :: !acc;
           for i = 0 to n - 1 do
             res.(i) <- res.(i) -. stump_eval s xs.(i)
           done
     done
   with Exit -> ());
  Array.of_list (List.rev !acc)

type member = { m_ridge : S.ridge; m_stumps : S.stump array }

let member_fit ~lambda ~boost_rounds zs ys =
  let r = ridge_fit ~lambda zs ys in
  let res = Array.mapi (fun i z -> ys.(i) -. S.ridge_predict r z) zs in
  let stumps =
    if boost_rounds > 0 && Array.length ys >= 4 then boost_fit ~rounds:boost_rounds zs res
    else [||]
  in
  { m_ridge = r; m_stumps = stumps }

let member_predict m z = S.ridge_predict m.m_ridge z +. S.boost_predict m.m_stumps z

type t = {
  scaler : S.scaler;
  full : member;
  fold_members : member array;
  oof : float array;
  oof_p90 : float;
  fallback_sigma : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let fit ?(lambda = 1e-4) ?(boost_rounds = 24) ?(folds = 5) xs ys =
  let n = Array.length xs in
  let sc = S.scaler_fit xs in
  let zs = Array.map (S.scaler_transform sc) xs in
  let full = member_fit ~lambda ~boost_rounds zs ys in
  let fallback_sigma =
    let ss =
      Array.fold_left ( +. ) 0.0
        (Array.mapi
           (fun i z ->
             let e = ys.(i) -. member_predict full z in
             e *. e)
           zs)
    in
    sqrt (ss /. float_of_int n)
  in
  let nfolds = min folds n in
  if n < 4 || nfolds < 2 then
    { scaler = sc; full; fold_members = [||]; oof = [||]; oof_p90 = fallback_sigma; fallback_sigma }
  else begin
    let oof = Array.make n 0.0 in
    let members =
      Array.init nfolds (fun k ->
          let keep = ref [] and keep_y = ref [] in
          for i = n - 1 downto 0 do
            if i mod nfolds <> k then begin
              keep := zs.(i) :: !keep;
              keep_y := ys.(i) :: !keep_y
            end
          done;
          let m =
            member_fit ~lambda ~boost_rounds (Array.of_list !keep) (Array.of_list !keep_y)
          in
          for i = 0 to n - 1 do
            if i mod nfolds = k then oof.(i) <- ys.(i) -. member_predict m zs.(i)
          done;
          m)
    in
    let abs_sorted = Array.map Float.abs oof in
    Array.sort compare abs_sorted;
    {
      scaler = sc;
      full;
      fold_members = members;
      oof;
      oof_p90 = percentile abs_sorted 0.9;
      fallback_sigma;
    }
  end

let predict t x = member_predict t.full (S.scaler_transform t.scaler x)

let uncertainty t x =
  let z = S.scaler_transform t.scaler x in
  let center = member_predict t.full z in
  let spread =
    Array.fold_left
      (fun acc m -> Float.max acc (Float.abs (member_predict m z -. center)))
      0.0 t.fold_members
  in
  if Array.length t.fold_members = 0 then t.fallback_sigma +. spread else spread +. t.oof_p90

let oof_p90 t = if Array.length t.fold_members = 0 then 0.0 else t.oof_p90
let oof_residuals t = Array.copy t.oof

(* Steering's neighbour query: every (squared distance, index) pair,
   sorted, first [k] kept. *)
let nearest ~k zs ks z =
  let dist2 a b =
    let d = ref 0.0 in
    Array.iteri
      (fun j v ->
        let dd = v -. b.(j) in
        d := !d +. (dd *. dd))
      a;
    !d
  in
  let rec take k = function [] -> [] | x :: tl -> if k = 0 then [] else x :: take (k - 1) tl in
  let ds = Array.to_list (Array.map (fun j -> (dist2 z zs.(j), j)) ks) in
  take k (List.sort compare ds)
