(** Insertion-point enumeration and evaluation inside an MGL window
    (paper Sec. 3.1, Algorithm 1).

    Given a target cell and a window, every way of inserting the target
    into [height] consecutive rows is enumerated: a bottom row [y0]
    (P/G-parity and horizontal-rail feasible), a {e common interval}
    where each target row is covered by one obstacle-free sub-span, and
    a {e cut} that splits the window's local cells into a left and a
    right group. Pushing is propagated through multi-row cells with a
    longest-chain DP, which yields both the feasible x-range of the
    target and the saturating shift distance of every local cell — the
    ingredients of the displacement curve. *)

open Mcl_netlist

type ctx = {
  design : Design.t;
  placement : Placement.t;
  segments : Segment.t;
  config : Config.t;
  routability : Routability.t option;
  disp_from : [ `Gp | `Current ];
      (** [`Gp] measures local-cell displacement from GP positions
          (MGL); [`Current] from current positions (the MLL baseline). *)
  weights : float array;  (** curve weight per cell id *)
  utilization : float;    (** design utilization, computed once here *)
  reach : int;
      (** widest cell type of the design, fixed macros included: a
          cell that ends after site [x] starts after [x - reach]. Bounds
          the row scan of {!row_subspans}. *)
  clip_pad : int;
      (** the largest spacing rule ({!Mcl_netlist.Floorplan.max_spacing})
          when [config.consider_routability], else 0: how far a window
          edge pulls in the free spans it clips, and the margin
          {!Mgl.place_fallback} keeps around the gap it takes *)
  arena : Arena.t;
      (** scratch arena for {!best}; single-owner, so contexts that run
          concurrently (the sharded path's stripe jobs) are record
          copies that each carry their own *)
  log : Arena.Ibuf.t option;
      (** undo log of the mutation in progress, when the context keeps
          one (the service's resident ECO context, see {!Eco.context});
          [None] for batch flows, which pay one branch per move. Every
          move made through {!apply}, {!Mgl.place_fallback} or the
          refiner is logged before it happens. *)
}

(** Placement-area utilization of a design (used area / die area). *)
val utilization : Design.t -> float

val make_ctx :
  ?disp_from:[ `Gp | `Current ] -> Config.t -> Design.t ->
  placement:Placement.t -> segments:Segment.t ->
  routability:Routability.t option -> ctx

(** {2 Window rules}

    The kernel builds and prices its windows with these, and so does
    the exact solver ({!Mcl_exact.Solver}), so its window and cost are
    the kernel's; the fallback and both baselines test parity with
    {!parity_ok}. [Legality], [Lint] and the test oracle state the
    rules again on purpose, as the independent checks the legalizers
    are audited against. *)

(** P/G parity: a cell of height [h] may start on row [y0] (an
    even-height cell must start on an even row). *)
val parity_ok : int -> int -> bool

(** Sites required between a cell of edge type [l] and one of edge
    type [r] to its right: the floorplan's rule with routability on,
    0 without. *)
val spacing : ctx -> l:int -> r:int -> int

(** [penalized ctx ~cell ~x ~y0 cost]: [cost], a displacement cost of
    [cell] at site [x], row [y0], plus the soft term of that
    position: 12 sites of movement per IO-pin conflict (with
    routability). The float operations run in one fixed order, so the
    kernel and the solver price a position to the same bits. *)
val penalized : ctx -> cell:int -> x:int -> y0:int -> float -> float

(** Free spans of [region] in each row of [window], clipped to it, into
    the arena's [cs_off]/[cs_lo]/[cs_hi] (indexed by window row offset).
    An edge the clip creates is pulled in by [ctx.clip_pad]. *)
val clip_spans :
  ctx -> Arena.t -> region:int -> window:Mcl_geom.Rect.t -> unit

(** [row_subspans ctx a ~off ~row ~win_lo ~win_hi] cuts window row
    [off] (die row [row]) after {!clip_spans}: the clipped spans minus
    every cell of the row that [a.marks] leaves unmarked, pushed onto
    [ss_lo]/[ss_hi]/[ss_let]/[ss_ret] in x order with the edge types of
    the bounding obstacles (-1 at a span or window edge; an obstacle
    within [clip_pad] of a clipped edge lends it its type). A marked
    cell is no obstacle: its mark is pushed onto [a.locs]. Only the
    cells with x in [[win_lo - clip_pad - reach, win_hi + clip_pad]]
    are visited, which is exact. *)
val row_subspans :
  ctx -> Arena.t -> off:int -> row:int -> win_lo:int -> win_hi:int -> unit

type shift = { cell : int; dist : int }

type candidate = {
  y0 : int;
  x : int;       (** chosen x of the target's left edge *)
  cost : float;
  lefts : shift list;   (** new x = min (cur, x - dist) *)
  rights : shift list;  (** new x = max (cur, x + dist) *)
}

(** Cheapest insertion of [target] (an unplaced cell id) within
    [window]; [None] when no feasible insertion point exists.

    Runs the allocation-lean arena kernel: scratch comes from
    [ctx.arena], cuts are evaluated cheapest-lower-bound first, and
    cuts whose bound exceeds the incumbent cost are skipped entirely.
    Counters accumulate on [ctx.arena]. [?check_pruning]
    re-evaluates every pruned cut and fails if one would have beaten
    the incumbent (tests only). Raises [Diagnostic.Failed] with
    [S305-window-overlap] when a local cell of the window overlaps an
    obstacle, which only an overlapping placement produces (an ECO on
    a design that was never legalized). *)
val best :
  ?check_pruning:bool ->
  ctx -> target:int -> window:Mcl_geom.Rect.t -> candidate option

(** Commit a candidate: shifts local cells, moves the target and
    registers it in the placement. Logs every cell it moves. *)
val apply : ctx -> target:int -> candidate -> unit

(** {2 Undo log} — no-ops on a context without a log. *)

(** Record a cell's current position before moving it. *)
val log_move : ctx -> Cell.t -> unit

(** Record a cell's current GP anchor before rebinding it. *)
val log_anchor : ctx -> Cell.t -> unit

(** Empty the log (the start of a new mutation). *)
val clear_log : ctx -> unit

(** Restore every logged position and anchor, newest entry first, so
    the design is back where the log started. The placement is not
    restored: the caller must discard the context. *)
val undo : ctx -> unit

(** [(cell, x, y)] for every cell the log saw move, once, with its
    first logged position (where it stood when the log started), in
    log order. A cell may since have come back to that position. *)
val moved : ctx -> (int * int * int) list
