(* Struct-of-arrays storage: pieces and slope-change events live in
   flat parallel arrays so a curve can be [reset] and refilled with no
   allocation once the buffers are warm. Events are sorted in place by
   the canonical (x, dv) order, which makes the sweep's float
   accumulation independent of insertion order. *)

(* piece kinds *)
let k_target = 0
let k_left = 1
let k_right = 2

type t = {
  (* pieces *)
  mutable pk : int array;      (* kind *)
  mutable pw : float array;    (* weight *)
  mutable pcur : int array;    (* cur (unused for target) *)
  mutable pgp : int array;
  mutable pdist : int array;   (* dist (unused for target) *)
  mutable np : int;
  mutable const : float;
  (* slope-change events (x, dv); the slope left of every event is
     [base_slope] *)
  mutable xs : int array;
  mutable dvs : float array;
  mutable ne : int;
  mutable base_slope : float;
  mutable sorted : bool;
}

let create () =
  { pk = Array.make 16 0; pw = Array.make 16 0.0; pcur = Array.make 16 0;
    pgp = Array.make 16 0; pdist = Array.make 16 0; np = 0; const = 0.0;
    xs = Array.make 16 0; dvs = Array.make 16 0.0; ne = 0;
    base_slope = 0.0; sorted = true }

let reset t =
  t.np <- 0;
  t.const <- 0.0;
  t.ne <- 0;
  t.base_slope <- 0.0;
  t.sorted <- true

let grow_pieces t =
  let cap = Array.length t.pk in
  let n = 2 * cap in
  let blit_i a = let a' = Array.make n 0 in Array.blit a 0 a' 0 cap; a' in
  let pw' = Array.make n 0.0 in
  Array.blit t.pw 0 pw' 0 cap;
  t.pk <- blit_i t.pk;
  t.pcur <- blit_i t.pcur;
  t.pgp <- blit_i t.pgp;
  t.pdist <- blit_i t.pdist;
  t.pw <- pw'

let push_piece t ~kind ~weight ~cur ~gp ~dist =
  if t.np = Array.length t.pk then grow_pieces t;
  let i = t.np in
  t.pk.(i) <- kind;
  t.pw.(i) <- weight;
  t.pcur.(i) <- cur;
  t.pgp.(i) <- gp;
  t.pdist.(i) <- dist;
  t.np <- i + 1

let push_event t x dv =
  if t.ne = Array.length t.xs then begin
    let cap = Array.length t.xs in
    let n = 2 * cap in
    let xs' = Array.make n 0 and dvs' = Array.make n 0.0 in
    Array.blit t.xs 0 xs' 0 cap;
    Array.blit t.dvs 0 dvs' 0 cap;
    t.xs <- xs';
    t.dvs <- dvs'
  end;
  t.xs.(t.ne) <- x;
  t.dvs.(t.ne) <- dv;
  t.ne <- t.ne + 1;
  t.sorted <- false

let add_target t ~weight ~gp =
  push_piece t ~kind:k_target ~weight ~cur:0 ~gp ~dist:0;
  t.base_slope <- t.base_slope -. weight;
  push_event t gp (2.0 *. weight)

(* f(x) = w * |min(cur, x - dist) - gp|.
   Kinks: at [gp + dist] the moving part crosses gp (if it does so
   before saturating) and at [cur + dist] the shift saturates. *)
let add_left t ~weight ~cur ~gp ~dist =
  push_piece t ~kind:k_left ~weight ~cur ~gp ~dist;
  let a = gp + dist and b = cur + dist in
  t.base_slope <- t.base_slope -. weight;
  if a < b then begin
    push_event t a (2.0 *. weight);
    push_event t b (-.weight)
  end
  else push_event t b weight

(* f(x) = w * |max(cur, x + dist) - gp|. *)
let add_right t ~weight ~cur ~gp ~dist =
  push_piece t ~kind:k_right ~weight ~cur ~gp ~dist;
  let a = gp - dist and b = cur - dist in
  if a > b then begin
    push_event t b (-.weight);
    push_event t a (2.0 *. weight)
  end
  else push_event t b weight

let add_const t c = t.const <- t.const +. c

(* Pieces were historically a prepend-built list folded left-to-right;
   folding the arrays from the last piece down reproduces that float
   summation order bit-for-bit. *)
let eval t x =
  let acc = ref t.const in
  for i = t.np - 1 downto 0 do
    let v =
      let k = t.pk.(i) in
      if k = k_target then
        t.pw.(i) *. float_of_int (abs (x - t.pgp.(i)))
      else if k = k_left then
        t.pw.(i)
        *. float_of_int (abs (Int.min t.pcur.(i) (x - t.pdist.(i)) - t.pgp.(i)))
      else
        t.pw.(i)
        *. float_of_int (abs (Int.max t.pcur.(i) (x + t.pdist.(i)) - t.pgp.(i)))
    in
    acc := !acc +. v
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* In-place dual-pivot sort of the (xs, dvs) event pairs by (x, dv)    *)
(* ------------------------------------------------------------------ *)

(* typed, so both comparisons compile to machine compares rather than
   calls to the polymorphic compare *)
let ev_lt (x1 : int) (d1 : float) x2 d2 = x1 < x2 || (x1 = x2 && d1 < d2)

let swap xs dvs i j =
  let tx = xs.(i) and td = dvs.(i) in
  xs.(i) <- xs.(j);
  dvs.(i) <- dvs.(j);
  xs.(j) <- tx;
  dvs.(j) <- td

let insertion_sort xs (dvs : float array) lo hi =
  for i = lo + 1 to hi do
    let x = xs.(i) and d = dvs.(i) in
    let j = ref (i - 1) in
    while !j >= lo && ev_lt x d xs.(!j) dvs.(!j) do
      xs.(!j + 1) <- xs.(!j);
      dvs.(!j + 1) <- dvs.(!j);
      decr j
    done;
    xs.(!j + 1) <- x;
    dvs.(!j + 1) <- d
  done

(* Yaroslavskiy dual-pivot quicksort over [lo, hi] inclusive. *)
let rec dp_sort xs dvs lo hi =
  if hi - lo < 24 then insertion_sort xs dvs lo hi
  else begin
    if ev_lt xs.(hi) dvs.(hi) xs.(lo) dvs.(lo) then swap xs dvs lo hi;
    let p1x = xs.(lo) and p1d = dvs.(lo) in
    let p2x = xs.(hi) and p2d = dvs.(hi) in
    let l = ref (lo + 1) and g = ref (hi - 1) in
    let k = ref (lo + 1) in
    while !k <= !g do
      if ev_lt xs.(!k) dvs.(!k) p1x p1d then begin
        swap xs dvs !k !l;
        incr l
      end
      else if ev_lt p2x p2d xs.(!k) dvs.(!k) then begin
        while !k < !g && ev_lt p2x p2d xs.(!g) dvs.(!g) do
          decr g
        done;
        swap xs dvs !k !g;
        decr g;
        if ev_lt xs.(!k) dvs.(!k) p1x p1d then begin
          swap xs dvs !k !l;
          incr l
        end
      end;
      incr k
    done;
    decr l;
    incr g;
    swap xs dvs lo !l;
    swap xs dvs hi !g;
    dp_sort xs dvs lo (!l - 1);
    dp_sort xs dvs (!l + 1) (!g - 1);
    dp_sort xs dvs (!g + 1) hi
  end

let ensure_sorted t =
  if not t.sorted then begin
    if t.ne > 1 then dp_sort t.xs t.dvs 0 (t.ne - 1);
    t.sorted <- true
  end

(* ------------------------------------------------------------------ *)
(* Minimization (Algorithm 1 lines 3-9): breakpoint sweep              *)
(* ------------------------------------------------------------------ *)

(* sweep one range over the already-sorted events *)
let sweep t ~lo ~hi =
  let n = t.ne in
  let xs = t.xs and dvs = t.dvs in
  (* slope just right of lo, folding in all events at or before lo *)
  let slope = ref t.base_slope in
  let i = ref 0 in
  while !i < n && xs.(!i) <= lo do
    slope := !slope +. dvs.(!i);
    incr i
  done;
  let best_x = ref lo and best_v = ref (eval t lo) in
  let x = ref lo and v = ref !best_v in
  while !i < n && xs.(!i) < hi do
    let bx = xs.(!i) and dv = dvs.(!i) in
    (* advance to the breakpoint *)
    v := !v +. (!slope *. float_of_int (bx - !x));
    x := bx;
    slope := !slope +. dv;
    if !v < !best_v then begin
      best_v := !v;
      best_x := bx
    end;
    incr i
  done;
  if hi > !x then begin
    let v_hi = !v +. (!slope *. float_of_int (hi - !x)) in
    if v_hi < !best_v then begin
      best_v := v_hi;
      best_x := hi
    end
  end;
  (!best_x, !best_v)

let minimize t ~lo ~hi =
  if hi < lo then invalid_arg "Curve.minimize: hi < lo";
  ensure_sorted t;
  sweep t ~lo ~hi

let minimize_many t ranges =
  ensure_sorted t;
  Array.map
    (fun (lo, hi) ->
       if hi < lo then invalid_arg "Curve.minimize_many: hi < lo";
       sweep t ~lo ~hi)
    ranges

(* Emit directly from the sorted event array; duplicates are adjacent
   after the sort, so a single backwards pass dedups in place. *)
let breakpoints t ~lo ~hi =
  ensure_sorted t;
  let out = ref [] in
  let last = ref min_int in
  for i = t.ne - 1 downto 0 do
    let x = t.xs.(i) in
    if x > lo && x < hi && x <> !last then begin
      out := x :: !out;
      last := x
    end
  done;
  !out
