(** Piecewise-linear displacement curves (paper Sec. 3.1, Fig. 4).

    A curve is the total displacement cost of an insertion point as a
    function of the target cell's x position [x_t]. Local cells
    contribute saturating-shift pieces; the target contributes a plain
    V. The four shapes of Fig. 4 arise from {!add_left} / {!add_right}
    depending on where the GP position sits relative to the current
    position:

    - [add_left]  models [p(x_t) = min (cur, x_t - dist)] — a cell left
      of the insertion point, pushed further left as the target moves
      left (types B and D);
    - [add_right] models [p(x_t) = max (cur, x_t + dist)] — a cell
      right of the insertion point (types A and C);

    each costing [weight * |p(x_t) - gp|]. *)

type t

val create : unit -> t

(** Empty the curve, keeping its buffers, so one [t] can be refilled
    per candidate evaluation without allocating. *)
val reset : t -> unit

(** V-shaped cost [weight * |x - gp|] of the target cell itself. *)
val add_target : t -> weight:float -> gp:int -> unit

val add_left : t -> weight:float -> cur:int -> gp:int -> dist:int -> unit
val add_right : t -> weight:float -> cur:int -> gp:int -> dist:int -> unit

(** Constant penalty added to every position. *)
val add_const : t -> float -> unit

(** Naive O(pieces) evaluation at an arbitrary integer x. *)
val eval : t -> int -> float

(** [minimize t ~lo ~hi] is [(x*, cost)] minimizing over integer
    [x] in [lo, hi], found by sweeping the breakpoints (Algorithm 1
    lines 3-9). Raises [Invalid_argument] if [hi < lo]. *)
val minimize : t -> lo:int -> hi:int -> int * float

(** [minimize_many t ranges] minimizes over several [(lo, hi)] ranges
    reusing one in-place sort of the event set — the per-range result
    is identical to calling {!minimize} on that range. Raises
    [Invalid_argument] on a range with [hi < lo]. *)
val minimize_many : t -> (int * int) array -> (int * float) array

(** Breakpoint x positions within (lo, hi), for tests and the Fig. 4
    bench rendering. *)
val breakpoints : t -> lo:int -> hi:int -> int list
