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
  congest : Mcl_congest.Congestion.t option;
      (** congestion prior for the soft insertion penalty; [Some] only
          when [config.congestion_weight > 0] (scoring-only: the map is
          never mutated here, so concurrent stripe jobs stay safe) *)
  disp_from : [ `Gp | `Current ];
      (** [`Gp] measures local-cell displacement from GP positions
          (MGL); [`Current] from current positions (the MLL baseline). *)
  weights : float array;  (** curve weight per cell id *)
  utilization : float;    (** design utilization, computed once here *)
  reach : int;
      (** widest cell type of the design, fixed macros included: a
          cell that ends after site [x] starts after [x - reach]. Bounds
          the row scans of {!best} and of the exact solver. *)
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
  ?disp_from:[ `Gp | `Current ] -> ?congest:Mcl_congest.Congestion.t ->
  Config.t -> Design.t ->
  placement:Placement.t -> segments:Segment.t ->
  routability:Routability.t option -> ctx

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
    the incumbent (tests only). *)
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
