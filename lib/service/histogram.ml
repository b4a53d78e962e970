(* Geometric buckets spanning 1 ns .. 1000 s: bucket [i] covers
   [lo * ratio^i, lo * ratio^(i+1)) with 20 buckets per decade
   (ratio = 10^(1/20) ≈ 1.122), so any reported quantile is within
   ~6% of the true sample value — plenty for latency percentiles —
   while the whole histogram is one small int array. *)

let lo = 1e-9
let buckets_per_decade = 20
let decades = 12
let nbuckets = buckets_per_decade * decades
let log10_lo = -9.0

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make nbuckets 0;
    n = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity }

let bucket_of v =
  if Float.is_nan v || v <= lo then 0
  else
    let i =
      int_of_float
        (Float.of_int buckets_per_decade *. (Float.log10 v -. log10_lo))
    in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

(* geometric midpoint of the bucket: the representative value returned
   by quantile estimation *)
let bucket_mid i =
  let step = 1.0 /. Float.of_int buckets_per_decade in
  lo *. (10.0 ** ((Float.of_int i +. 0.5) *. step))

(* top of the representable range: 1000 s *)
let hi = lo *. (10.0 ** Float.of_int decades)

let add t v =
  let v =
    if Float.is_nan v || v < 0.0 then 0.0 else if v > hi then hi else v
  in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. v;
  if Float.compare v t.min_v < 0 then t.min_v <- v;
  if Float.compare v t.max_v > 0 then t.max_v <- v

let count t = t.n

let sum t = t.sum

let mean t = if t.n = 0 then 0.0 else t.sum /. Float.of_int t.n

let min_value t = if t.n = 0 then 0.0 else t.min_v

let max_value t = if t.n = 0 then 0.0 else t.max_v

(* Quantile by cumulative walk; the answer is the geometric midpoint of
   the bucket where the cumulative count crosses [q * n], clamped to
   the observed extremes so p0/p100 stay honest. *)
let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. Float.of_int t.n in
    let rank = Float.max 1.0 (Float.round target) in
    let acc = ref 0 and found = ref (nbuckets - 1) and i = ref 0 in
    while !i < nbuckets && Float.of_int !acc < rank do
      acc := !acc + t.counts.(!i);
      if Float.of_int !acc >= rank then found := !i;
      incr i
    done;
    let v = bucket_mid !found in
    Float.max t.min_v (Float.min t.max_v v)
  end

let to_json t =
  let qname q =
    (* 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9" *)
    let pct = q *. 100.0 in
    if Float.equal (Float.round pct) pct then
      Printf.sprintf "p%d" (int_of_float pct)
    else Printf.sprintf "p%g" pct
  in
  Json.Obj
    ([ ("count", Json.Int t.n);
       ("mean", Json.Float (mean t));
       ("min", Json.Float (min_value t));
       ("max", Json.Float (max_value t)) ]
     @ List.map
         (fun q -> (qname q, Json.Float (quantile t q)))
         [ 0.50; 0.95; 0.99 ])
