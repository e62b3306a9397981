(* Learned response-surface surrogates: ridge + boosted stumps on
   standardized features, leave-out ensemble uncertainty, deterministic
   farthest-point sampling. See surrogate.mli for the contracts. *)

(* ---------------- Standardization ---------------- *)

type scaler = { means : float array; stds : float array }

let scaler_fit xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Surrogate.scaler_fit: empty";
  let d = Array.length xs.(0) in
  let means = Array.make d 0.0 in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Surrogate.scaler_fit: ragged rows";
      Array.iteri (fun j v -> means.(j) <- means.(j) +. v) row)
    xs;
  let nf = float_of_int n in
  Array.iteri (fun j s -> means.(j) <- s /. nf) means;
  let stds = Array.make d 0.0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          let dv = v -. means.(j) in
          stds.(j) <- stds.(j) +. (dv *. dv))
        row)
    xs;
  Array.iteri (fun j s -> stds.(j) <- sqrt (s /. nf)) stds;
  { means; stds }

let constant_eps = 1e-12

let scaler_transform s x =
  if Array.length x <> Array.length s.means then
    invalid_arg "Surrogate.scaler_transform: wrong arity";
  Array.mapi
    (fun j v ->
      if s.stds.(j) <= constant_eps then 0.0 else (v -. s.means.(j)) /. s.stds.(j))
    x

let scaler_inverse s z =
  if Array.length z <> Array.length s.means then
    invalid_arg "Surrogate.scaler_inverse: wrong arity";
  Array.mapi
    (fun j v ->
      if s.stds.(j) <= constant_eps then s.means.(j) else (v *. s.stds.(j)) +. s.means.(j))
    z

(* ---------------- Ridge ---------------- *)

type ridge = { weights : float array; bias : float; lambda_used : float }

(* One float workspace serves every ridge solve of a fit: the normal
   equations [rw_a] (upper triangle, row-major [d x d]) and the Cholesky
   factor [rw_l] (lower triangle). Nothing in it outlives a solve, so the
   members of one ensemble reuse it back to back. *)
type ridge_ws = { rw_d : int; rw_a : float array; rw_l : float array }

let ridge_ws d = { rw_d = d; rw_a = Array.make (d * d) 0.0; rw_l = Array.make (d * d) 0.0 }

(* Cholesky factor of [A + shift I] into [l], where [A] is read from the
   upper triangle of [a]: the same operations in the same order as
   {!Matrix.cholesky} on the mirrored matrix. False where a pivot is not
   positive. *)
let cholesky_into a l d shift =
  match
    for i = 0 to d - 1 do
      for j = 0 to i do
        let s = ref (if i = j then a.((i * d) + i) +. shift else a.((j * d) + i)) in
        for k = 0 to j - 1 do
          s := !s -. (l.((i * d) + k) *. l.((j * d) + k))
        done;
        if i = j then begin
          if !s <= 0.0 then raise_notrace Exit;
          l.((i * d) + j) <- sqrt !s
        end
        else l.((i * d) + j) <- !s /. l.((j * d) + j)
      done
    done
  with
  | () -> true
  | exception Exit -> false

(* Condition estimate from the Cholesky factor: diag(L) are the square
   roots of the pivots, so (max/min)^2 tracks the spectral condition
   number closely enough to decide when to shrink harder. *)
let cholesky_condition l d =
  let mx = ref 0.0 and mn = ref infinity in
  for i = 0 to d - 1 do
    let v = l.((i * d) + i) in
    if v > !mx then mx := v;
    if v < !mn then mn := v
  done;
  if !mn <= 0.0 then infinity else (!mx /. !mn) ** 2.0

(* Forward then back substitution through [l], as {!Matrix.solve_cholesky}. *)
let solve_into l d b =
  let y = Array.make d 0.0 in
  for i = 0 to d - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (l.((i * d) + k) *. y.(k))
    done;
    y.(i) <- !s /. l.((i * d) + i)
  done;
  let x = Array.make d 0.0 in
  for i = d - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to d - 1 do
      s := !s -. (l.((k * d) + i) *. x.(k))
    done;
    x.(i) <- !s /. l.((i * d) + i)
  done;
  x

(* Ridge over the rows [xs.(rows.(p))] with targets [ys.(p)]. *)
let ridge_rows ws ~lambda xs rows ys =
  let d = ws.rw_d in
  if d = 0 then invalid_arg "Surrogate.ridge_fit: no features";
  let m = Array.length rows in
  let nf = float_of_int m in
  (* Center so the intercept is not penalized. *)
  let x_mean = Array.make d 0.0 in
  for p = 0 to m - 1 do
    let row = xs.(rows.(p)) in
    if Array.length row <> d then invalid_arg "Surrogate.ridge_fit: ragged rows";
    for j = 0 to d - 1 do
      x_mean.(j) <- x_mean.(j) +. row.(j)
    done
  done;
  for j = 0 to d - 1 do
    x_mean.(j) <- x_mean.(j) /. nf
  done;
  let y_sum = ref 0.0 in
  for p = 0 to m - 1 do
    y_sum := !y_sum +. ys.(p)
  done;
  let y_mean = !y_sum /. nf in
  (* Normal equations on centered data, upper triangle only. *)
  let a = ws.rw_a and b = Array.make d 0.0 and xc = Array.make d 0.0 in
  Array.fill a 0 (d * d) 0.0;
  for p = 0 to m - 1 do
    let row = xs.(rows.(p)) in
    let yc = ys.(p) -. y_mean in
    for j = 0 to d - 1 do
      xc.(j) <- row.(j) -. x_mean.(j)
    done;
    for j = 0 to d - 1 do
      let xj = xc.(j) in
      b.(j) <- b.(j) +. (xj *. yc);
      let o = j * d in
      for k = j to d - 1 do
        a.(o + k) <- a.(o + k) +. (xj *. xc.(k))
      done
    done
  done;
  (* Scale-aware ridge floor: lambda multiplies the mean diagonal so the
     shrinkage is invariant to feature scale. *)
  let trace = ref 0.0 in
  for j = 0 to d - 1 do
    trace := !trace +. a.((j * d) + j)
  done;
  let diag_unit = Float.max (!trace /. float_of_int d) 1e-30 in
  let rec solve lam attempt =
    let escalate () =
      if attempt >= 8 then
        invalid_arg "Surrogate.ridge_fit: normal equations unsolvable (escalation cap)"
      else solve (Float.max (lam *. 10.0) 1e-10) (attempt + 1)
    in
    if not (cholesky_into a ws.rw_l d (lam *. diag_unit)) then escalate ()
    else if cholesky_condition ws.rw_l d > 1e10 then escalate ()
    else (solve_into ws.rw_l d b, lam)
  in
  let weights, lambda_used = solve lambda 0 in
  let wm = ref 0.0 in
  for j = 0 to d - 1 do
    wm := !wm +. (weights.(j) *. x_mean.(j))
  done;
  { weights; bias = y_mean -. !wm; lambda_used }

let ridge_fit ?(lambda = 1e-4) xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Surrogate.ridge_fit: length mismatch";
  if n = 0 then invalid_arg "Surrogate.ridge_fit: empty";
  ridge_rows (ridge_ws (Array.length xs.(0))) ~lambda xs (Array.init n Fun.id) ys

let ridge_predict r x =
  if Array.length x <> Array.length r.weights then
    invalid_arg "Surrogate.ridge_predict: wrong arity";
  let acc = ref r.bias in
  Array.iteri (fun j w -> acc := !acc +. (w *. x.(j))) r.weights;
  !acc

(* ---------------- Boosted stumps ---------------- *)

type stump = { feat : int; thresh : float; left : float; right : float }

(* Feature columns of [m] rows, each in ascending (value, position) order:
   [ord.(j*m + k)] is the position (into the caller's row list) of the
   k-th smallest value of feature [j], and [vals.(j*m + k)] that value.
   The columns never change while a model trains, so one sort per fit
   serves every boosting round. *)
type presorted = { ps_m : int; ps_d : int; ord : int array; vals : float array }

let presort xs rows =
  let m = Array.length rows in
  let d = if m = 0 then 0 else Array.length xs.(rows.(0)) in
  let ord = Array.make (d * m) 0 and vals = Array.make (d * m) 0.0 in
  for j = 0 to d - 1 do
    let order = Array.init m Fun.id in
    Array.sort
      (fun a b ->
        let c = Float.compare xs.(rows.(a)).(j) xs.(rows.(b)).(j) in
        if c <> 0 then c else compare a b)
      order;
    Array.iteri
      (fun k p ->
        ord.((j * m) + k) <- p;
        vals.((j * m) + k) <- xs.(rows.(p)).(j))
      order
  done;
  { ps_m = m; ps_d = d; ord; vals }

(* The presort of a row subset, written into [into]'s buffers: dropping
   the rows with [keep.(p) < 0] and renumbering the rest to [keep.(p)]
   preserves their relative order, and positions are renumbered
   monotonically, so this equals sorting the subset itself. *)
let presort_subset ps keep ~m ~into =
  let n = ps.ps_m in
  for j = 0 to ps.ps_d - 1 do
    let k = ref (j * m) in
    for q = j * n to (j * n) + n - 1 do
      let p' = keep.(ps.ord.(q)) in
      if p' >= 0 then begin
        into.ord.(!k) <- p';
        into.vals.(!k) <- ps.vals.(q);
        incr k
      end
    done
  done;
  { into with ps_m = m }

(* Best single stump for the current residual (indexed by row position),
   by exact SSE over midpoint thresholds of every feature. O(d m) per
   call on the presorted columns. *)
let best_stump ps res =
  let m = ps.ps_m in
  let total = ref 0.0 in
  for p = 0 to m - 1 do
    total := !total +. res.(p)
  done;
  let total = !total in
  let base = total *. total /. float_of_int m in
  let ord = ps.ord and vals = ps.vals in
  let best_gain = ref 1e-12 and best_feat = ref (-1) in
  let best_thresh = ref 0.0 and best_left = ref 0.0 and best_right = ref 0.0 in
  for j = 0 to ps.ps_d - 1 do
    let o = j * m in
    (* A constant column has no midpoint to split on. *)
    if m > 1 && vals.(o) <> vals.(o + m - 1) then begin
      (* Prefix sums over the sorted order: left = first k+1 points. *)
      let sum = ref 0.0 in
      for k = 0 to m - 2 do
        sum := !sum +. res.(ord.(o + k));
        let xa = vals.(o + k) and xb = vals.(o + k + 1) in
        if xb > xa then begin
          let nl = float_of_int (k + 1) and nr = float_of_int (m - k - 1) in
          let sl = !sum and sr = total -. !sum in
          (* SSE reduction of replacing one mean with two. *)
          let gain = (sl *. sl /. nl) +. (sr *. sr /. nr) -. base in
          if gain > !best_gain +. 1e-15 then begin
            best_gain := gain;
            best_feat := j;
            best_thresh := (xa +. xb) /. 2.0;
            best_left := sl /. nl;
            best_right := sr /. nr
          end
        end
      done
    end
  done;
  if !best_feat < 0 then None
  else Some { feat = !best_feat; thresh = !best_thresh; left = !best_left; right = !best_right }

let stump_eval s x = if x.(s.feat) <= s.thresh then s.left else s.right

(* Boosting over the rows [xs.(rows.(p))], targets [ys.(p)], with [ps]
   their presort. *)
let boost_rows ~rounds ~rate xs rows ps ys =
  let m = Array.length ys in
  let res = Array.copy ys in
  let acc = ref [] in
  (try
     for _ = 1 to rounds do
       match best_stump ps res with
       | None -> raise_notrace Exit
       | Some s ->
           let s = { s with left = s.left *. rate; right = s.right *. rate } in
           acc := s :: !acc;
           for p = 0 to m - 1 do
             res.(p) <- res.(p) -. stump_eval s xs.(rows.(p))
           done
     done
   with Exit -> ());
  Array.of_list (List.rev !acc)

let boost_fit ?(rounds = 24) ?(rate = 0.5) xs ys =
  let n = Array.length ys in
  if n = 0 || Array.length xs <> n then invalid_arg "Surrogate.boost_fit: bad input";
  let rows = Array.init n Fun.id in
  boost_rows ~rounds ~rate xs rows (presort xs rows) ys

let boost_predict stumps x =
  Array.fold_left (fun acc s -> acc +. stump_eval s x) 0.0 stumps

(* ---------------- The ensemble model ---------------- *)

type member = { m_ridge : ridge; m_stumps : stump array }

let member_fit ws ~lambda ~boost_rounds zs rows ps ys =
  let r = ridge_rows ws ~lambda zs rows ys in
  let res = Array.mapi (fun p y -> y -. ridge_predict r zs.(rows.(p))) ys in
  let stumps =
    if boost_rounds > 0 && Array.length ys >= 4 then
      boost_rows ~rounds:boost_rounds ~rate:0.5 zs rows ps res
    else [||]
  in
  { m_ridge = r; m_stumps = stumps }

let member_predict m z = ridge_predict m.m_ridge z +. boost_predict m.m_stumps z

type t = {
  t_scaler : scaler;
  full : member;
  fold_members : member array;
  t_oof : float array;  (* signed held-out residuals, aligned with training rows *)
  t_oof_p90 : float;
  fallback_sigma : float;  (* full-fit residual RMS; the degenerate-ensemble floor *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let fit ?(lambda = 1e-4) ?(boost_rounds = 24) ?(folds = 5) xs ys =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Surrogate.fit: need at least 2 points";
  if Array.length ys <> n then invalid_arg "Surrogate.fit: length mismatch";
  let sc = scaler_fit xs in
  let zs = Array.map (scaler_transform sc) xs in
  let ws = ridge_ws (Array.length zs.(0)) in
  let all = Array.init n Fun.id in
  let ps = presort zs all in
  let full = member_fit ws ~lambda ~boost_rounds zs all ps ys in
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
    {
      t_scaler = sc;
      full;
      fold_members = [||];
      t_oof = [||];
      t_oof_p90 = fallback_sigma;
      fallback_sigma;
    }
  else begin
    (* Deterministic round-robin folds: point i belongs to fold (i mod k),
       so the held-out slices interleave any ordering the caller used.
       Members train one after another, so they share one presort buffer. *)
    let oof = Array.make n 0.0 in
    let keep = Array.make n (-1) in
    let buf = { ps with ord = Array.copy ps.ord; vals = Array.copy ps.vals } in
    let members =
      Array.init nfolds (fun k ->
          let m = ref 0 in
          for i = 0 to n - 1 do
            if i mod nfolds <> k then begin
              keep.(i) <- !m;
              incr m
            end
            else keep.(i) <- -1
          done;
          let rows = Array.make !m 0 in
          Array.iteri (fun i p -> if p >= 0 then rows.(p) <- i) keep;
          let ps_k = presort_subset ps keep ~m:!m ~into:buf in
          let mb =
            member_fit ws ~lambda ~boost_rounds zs rows ps_k (Array.map (fun i -> ys.(i)) rows)
          in
          for i = 0 to n - 1 do
            if i mod nfolds = k then oof.(i) <- ys.(i) -. member_predict mb zs.(i)
          done;
          mb)
    in
    let abs_sorted = Array.map Float.abs oof in
    Array.sort Float.compare abs_sorted;
    {
      t_scaler = sc;
      full;
      fold_members = members;
      t_oof = oof;
      t_oof_p90 = percentile abs_sorted 0.9;
      fallback_sigma;
    }
  end

let predict t x = member_predict t.full (scaler_transform t.t_scaler x)

let uncertainty t x =
  let z = scaler_transform t.t_scaler x in
  let center = member_predict t.full z in
  let spread =
    Array.fold_left
      (fun acc m -> Float.max acc (Float.abs (member_predict m z -. center)))
      0.0 t.fold_members
  in
  if Array.length t.fold_members = 0 then t.fallback_sigma +. spread
  else spread +. t.t_oof_p90

let oof_p90 t = if Array.length t.fold_members = 0 then 0.0 else t.t_oof_p90
let oof_residuals t = Array.copy t.t_oof

(* ---------------- Deterministic space-filling sampling ---------------- *)

let sample_order ?(anchors = [ 0 ]) xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let sc = scaler_fit xs in
    let zs = Array.map (scaler_transform sc) xs in
    let d = Array.length zs.(0) in
    let dist2 a b =
      let acc = ref 0.0 in
      for j = 0 to d - 1 do
        let dv = a.(j) -. b.(j) in
        acc := !acc +. (dv *. dv)
      done;
      !acc
    in
    let chosen = Array.make n false in
    let mind = Array.make n infinity in
    let order = ref [] in
    let count = ref 0 in
    let add i =
      if not chosen.(i) then begin
        chosen.(i) <- true;
        order := i :: !order;
        incr count;
        for k = 0 to n - 1 do
          if not chosen.(k) then mind.(k) <- Float.min mind.(k) (dist2 zs.(k) zs.(i))
        done
      end
    in
    List.iter (fun a -> if a >= 0 && a < n then add a) anchors;
    if !count = 0 then add 0;
    while !count < n do
      (* Farthest point from the chosen set; ties to the lowest index. *)
      let best = ref (-1) and best_d = ref neg_infinity in
      for k = 0 to n - 1 do
        if (not chosen.(k)) && mind.(k) > !best_d then begin
          best := k;
          best_d := mind.(k)
        end
      done;
      add !best
    done;
    Array.of_list (List.rev !order)
  end

(* ---------------- Nearest neighbours ---------------- *)

let nearest zs ks z ~dist ~idx =
  let k = min (Array.length idx) (Array.length dist) in
  let d = Array.length z in
  (* [(d2, j)] precedes slot [q] in the tuple order [compare] gives. *)
  let before d2 j q =
    let c = Float.compare d2 dist.(q) in
    c < 0 || (c = 0 && j < idx.(q))
  in
  let count = ref 0 in
  Array.iter
    (fun j ->
      let row = zs.(j) in
      let d2 = ref 0.0 in
      for f = 0 to d - 1 do
        let dv = z.(f) -. row.(f) in
        d2 := !d2 +. (dv *. dv)
      done;
      let d2 = !d2 in
      if !count < k || (k > 0 && before d2 j (k - 1)) then begin
        (* Insertion into the sorted prefix; when full, the last slot drops. *)
        let q = ref (if !count < k then !count else k - 1) in
        while !q > 0 && before d2 j (!q - 1) do
          dist.(!q) <- dist.(!q - 1);
          idx.(!q) <- idx.(!q - 1);
          decr q
        done;
        dist.(!q) <- d2;
        idx.(!q) <- j;
        if !count < k then incr count
      end)
    ks;
  !count

(* ---------------- Feature extraction ---------------- *)

let predictor_feature_dim = 25

(* Families in the order of the one-hot block. *)
let family_bimodal = 0
let family_gshare = 1
let family_gas = 2
let family_hybrid = 3
let family_static_taken = 4
let family_static_not_taken = 5

let predictor_features name =
  let fail () =
    invalid_arg
      (Printf.sprintf "Surrogate.predictor_features: %S is not a sweep-grid name" name)
  in
  let parse_el_h prefix =
    let rest =
      String.sub name (String.length prefix) (String.length name - String.length prefix)
    in
    match String.index_opt rest '/' with
    | Some i -> (
        match
          ( int_of_string_opt (String.sub rest 0 i),
            int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) )
        with
        | Some el, Some h when el > 0 && h >= 0 -> (float_of_int el, float_of_int h)
        | _ -> fail ())
    | None -> fail ()
  in
  let family, el, h =
    if name = "static-taken" then (family_static_taken, 0.0, 0.0)
    else if name = "static-not-taken" then (family_static_not_taken, 0.0, 0.0)
    else if String.length name > 8 && String.sub name 0 8 = "bimodal-" then
      match int_of_string_opt (String.sub name 8 (String.length name - 8)) with
      | Some el when el > 0 -> (family_bimodal, float_of_int el, 0.0)
      | _ -> fail ()
    else if String.length name > 7 && String.sub name 0 7 = "gshare-" then
      let el, h = parse_el_h "gshare-" in
      (family_gshare, el, h)
    else if String.length name > 4 && String.sub name 0 4 = "gas-" then
      let el, h = parse_el_h "gas-" in
      (family_gas, el, h)
    else if String.length name > 7 && String.sub name 0 7 = "hybrid-" then
      let el, h = parse_el_h "hybrid-" in
      (family_hybrid, el, h)
    else fail ()
  in
  let f = Array.make predictor_feature_dim 0.0 in
  f.(family) <- 1.0;
  f.(6) <- el;
  f.(7) <- h;
  (* Per-family response blocks: the one-hots partition the rows, so with
     an unpenalized intercept the ridge solves what amounts to a separate
     quadratic surface in (log2 entries, history bits) for every family —
     the classic shape of a predictor's accuracy-vs-geometry curve — while
     the shared el/h columns let sparsely-sampled families borrow the
     global trend. *)
  if family = family_bimodal then begin
    f.(8) <- el;
    f.(9) <- el *. el
  end;
  let quad base family' =
    if family = family' then begin
      f.(base) <- el;
      f.(base + 1) <- h;
      f.(base + 2) <- el *. el;
      f.(base + 3) <- h *. h;
      f.(base + 4) <- el *. h
    end
  in
  quad 10 family_gshare;
  quad 15 family_gas;
  quad 20 family_hybrid;
  f

let geometry_feature_dim = 4

let log2f v = log (float_of_int v) /. log 2.0

let geometry_features ~sets ~ways ~line_bytes ~size_bytes =
  if sets <= 0 || ways <= 0 || line_bytes <= 0 || size_bytes <= 0 then
    invalid_arg "Surrogate.geometry_features: nonpositive geometry";
  [| log2f sets; log2f ways; log2f line_bytes; log2f size_bytes |]
