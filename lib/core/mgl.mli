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

(** As {!run}, but reusing an existing context (placement must contain
    only fixed cells). Exposed for the scheduler and the ECO flow.
    [greedy] skips the windowed search and places every cell with the
    emergency first-fit directly — bounded cost per cell, the degraded
    mode the service answers with under deadline pressure (it
    therefore ignores [budget]). *)
val run_with_ctx :
  ?budget:Mcl_resilience.Budget.t -> ?greedy:bool -> Insertion.ctx ->
  order:int array -> stats

(** [context ?disp_from ?congest config design ~placement] is the
    insertion context every full-design flow runs on: segments built
    with {!boundary_gap} and the config's fence setting, routability
    tables when [config.consider_routability], over [placement] (which
    the context then owns and keeps current). {!run} passes the fixed
    cells only, the refiner and the ECO flow every cell. [congest] is
    the soft-penalty prior (see {!congest_map}). *)
val context :
  ?disp_from:[ `Gp | `Current ] -> ?congest:Mcl_congest.Congestion.t ->
  Config.t -> Design.t -> placement:Placement.t -> Insertion.ctx

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

(** Emergency first-fit placement (see implementation notes); exposed
    for the scheduler. *)
val fallback_place : ?relax_routability:bool -> Insertion.ctx -> int -> bool

(** [legalize_one ctx ~target ~growths] runs the windowed insertion
    search for one cell (initial window, growth retries up to the full
    die), applying the winning candidate; [false] when even the
    full-die window has no feasible insertion point (callers fall back
    to {!fallback_place}). [growths] accumulates window enlargements.
    Exposed for the sharded scheduler's boundary-reconciliation pass. *)
val legalize_one :
  ?budget:Mcl_resilience.Budget.t -> Insertion.ctx -> target:int ->
  growths:int ref -> bool

(** Congestion prior for the soft insertion penalty: [Some] (built
    from the design's current positions) iff
    [config.congestion_weight > 0]. Shared by the scheduler and the
    ECO path. *)
val congest_map : Config.t -> Design.t -> Mcl_congest.Congestion.t option
