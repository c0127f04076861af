(* The five running floats live in one flat [float array] so [add]
   updates them in place: as mutable fields of a record that also holds
   the int count they would each be boxed on every write. *)
type t = { mutable n : int; f : float array }

let mean_ = 0
and m2_ = 1
and min_ = 2
and max_ = 3
and sum_ = 4

let create () = { n = 0; f = [| 0.; 0.; infinity; neg_infinity; 0. |] }

let[@inline] add t x =
  let f = t.f in
  let n = t.n + 1 in
  t.n <- n;
  let mean = Array.unsafe_get f mean_ in
  let delta = x -. mean in
  let mean = mean +. (delta /. float_of_int n) in
  Array.unsafe_set f mean_ mean;
  Array.unsafe_set f m2_ (Array.unsafe_get f m2_ +. (delta *. (x -. mean)));
  if x < Array.unsafe_get f min_ then Array.unsafe_set f min_ x;
  if x > Array.unsafe_get f max_ then Array.unsafe_set f max_ x;
  Array.unsafe_set f sum_ (Array.unsafe_get f sum_ +. x)

let merge a b =
  if a.n = 0 then { n = b.n; f = Array.copy b.f }
  else if b.n = 0 then { n = a.n; f = Array.copy a.f }
  else begin
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let fn = float_of_int n in
    let delta = b.f.(mean_) -. a.f.(mean_) in
    let mean = a.f.(mean_) +. (delta *. fb /. fn) in
    let m2 = a.f.(m2_) +. b.f.(m2_) +. (delta *. delta *. fa *. fb /. fn) in
    {
      n;
      f =
        [|
          mean;
          m2;
          Float.min a.f.(min_) b.f.(min_);
          Float.max a.f.(max_) b.f.(max_);
          a.f.(sum_) +. b.f.(sum_);
        |];
    }
  end

let count t = t.n

let mean t = if t.n = 0 then nan else t.f.(mean_)

let variance t = if t.n < 2 then 0. else t.f.(m2_) /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.f.(min_)

let max t = t.f.(max_)

let sum t = t.f.(sum_)

(* Two-sided 97.5% Student-t quantiles by degrees of freedom. With the
   handful of replicates a matrix run typically has (3-10), the normal
   z=1.96 understates the interval badly: at df=2 the true critical
   value is 4.30, so a flat 1.96 reported intervals less than half as
   wide as they should be. *)
let t_crit_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_crit df =
  if df < 1 then nan
  else if df <= 30 then t_crit_table.(df - 1)
  else if df <= 40 then 2.021
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.96

let ci95_halfwidth t =
  if t.n < 2 then 0.
  else t_crit (t.n - 1) *. stddev t /. sqrt (float_of_int t.n)

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.6g±%.2g min=%.6g max=%.6g" t.n (mean t)
      (ci95_halfwidth t) (min t) (max t)

let to_json_string t =
  Printf.sprintf
    "{\"count\":%d,\"mean\":%s,\"stddev\":%s,\"min\":%s,\"max\":%s,\"sum\":%s}"
    t.n
    (Jsonstr.float_repr (mean t))
    (Jsonstr.float_repr (stddev t))
    (Jsonstr.float_repr (min t))
    (Jsonstr.float_repr (max t))
    (Jsonstr.float_repr (sum t))
