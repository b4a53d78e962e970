(** Multi-row global legalization (paper Sec. 3.1, Algorithm 1): cells
    are legalized sequentially; each is inserted at the cheapest
    insertion point of a window around its GP position, growing the
    window on failure. Displacement is measured from GP positions
    ([`Gp], the paper's MGL) or from current positions ([`Current],
    which turns this into the MLL baseline of Chow et al.). *)

open Mcl_netlist

type stats = {
  legalized : int;
  window_growths : int;   (** total window enlargements *)
  fallbacks : int;        (** cells placed by the emergency first-fit *)
  kernel : Arena.counters;
      (** insertion-kernel counters for this run (windows built, cuts
          evaluated/pruned) *)
}

(** [run ?disp_from ?budget config design] legalizes all movable cells
    in place. Raises {!Mcl_analysis.Diagnostic.Failed} with
    [S301-unplaceable-cell] if some cell cannot be placed at all (the
    design is over-capacity). [budget] is polled at every window
    attempt; an expired budget raises
    {!Mcl_resilience.Budget.Deadline_exceeded} (the caller is expected
    to roll back). Returns per-run statistics. *)
val run :
  ?disp_from:[ `Gp | `Current ] -> ?budget:Mcl_resilience.Budget.t ->
  Config.t -> Design.t -> stats

(** As {!run}, but reusing an existing context whose placement holds
    every cell except those in [order]; each cell of [order] goes
    through {!legalize_one} bounded by the die, then {!place_fallback}.
    The sequential loop behind {!run}, the ECO flow and the sharded
    scheduler's boundary pass. [greedy] skips the windowed search and
    places every cell with {!place_fallback} directly — bounded cost
    per cell, the degraded mode the service answers with under
    deadline pressure (it therefore ignores [budget]). *)
val run_with_ctx :
  ?budget:Mcl_resilience.Budget.t -> ?greedy:bool -> Insertion.ctx ->
  order:int array -> stats

(** [context ?disp_from config design ~placement] is the
    insertion context every full-design flow runs on: segments built
    with {!boundary_gap} and the config's fence setting, routability
    tables when [config.consider_routability], over [placement] (which
    the context then owns and keeps current). {!run} passes the fixed
    cells only, the refiner and the ECO flow every cell; the sharded
    scheduler copies the record with a placement per stripe. *)
val context :
  ?disp_from:[ `Gp | `Current ] -> Config.t -> Design.t ->
  placement:Placement.t -> Insertion.ctx

(** A placement holding the design's fixed cells only. *)
val fixed_placement : Design.t -> Placement.t

(** Boundary padding used when building segments for this config:
    half the largest edge-spacing rule when routability is on. *)
val boundary_gap : Config.t -> Mcl_netlist.Design.t -> int

(** The MGL legalization order: taller, then wider, cells first. *)
val default_order : Design.t -> int array

(** Initial window around a cell's GP position; [util] is the design
    utilization (see {!Insertion.utilization}), which widens windows on
    dense designs. *)
val initial_window :
  Config.t -> Design.t -> Cell.t -> h:int -> w:int -> util:float ->
  Mcl_geom.Rect.t

(** Window enlargement used after a failed insertion. *)
val grow_window :
  Mcl_geom.Rect.t -> die:Mcl_geom.Rect.t -> factor:int -> Mcl_geom.Rect.t

(** [legalize_one ctx ~bound ~target ~growths] is the windowed
    insertion search for one unplaced cell: the initial window, then
    growth retries up to [max_window_tries], applying the winning
    candidate. [`Die] bounds the windows by the die; an anchor past
    the die edge starts from an empty window and grows onto the die.
    [`Stripe r] bounds them by [r] (the sharded scheduler's stripe
    jobs) and gives up at once when the initial window misses [r].
    [false] when no window up to the bound has a feasible insertion
    point. [growths] accumulates window enlargements; [budget] is
    polled at every attempt. *)
val legalize_one :
  ?budget:Mcl_resilience.Budget.t -> Insertion.ctx ->
  bound:[ `Die | `Stripe of Mcl_geom.Rect.t ] -> target:int ->
  growths:int ref -> bool

(** [place_fallback ctx target] is the last resort after
    {!legalize_one}: the nearest existing gap that fits the cell
    without moving anything (a margin of the largest spacing rule on
    both sides), first at a pin-access-clean x, then ignoring pin
    access, since routability is a soft constraint. Raises
    {!Mcl_analysis.Diagnostic.Failed} with [S301-unplaceable-cell]
    (stage ["mgl"]) when no gap fits. Logs the move. *)
val place_fallback : Insertion.ctx -> int -> unit

(** [free_gaps design placement segments ~region ~y0 ~h] is the list of
    x-intervals of [region] free in every one of the [h] rows from
    [y0], with each cell of [placement] as an obstacle. The gap scan
    of {!place_fallback} and of {!Baseline_greedy}. *)
val free_gaps :
  Design.t -> Placement.t -> Segment.t -> region:int -> y0:int -> h:int ->
  Mcl_geom.Interval.t list
