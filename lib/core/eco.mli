(** Incremental re-legalization (ECO flow).

    After an engineering change moves, resizes or adds a handful of
    cells, re-running the whole pipeline is wasteful: [relegalize]
    plucks only the given cells out of the placement and re-inserts
    them with the same GP-referenced window machinery as MGL, leaving
    every other cell where it is (cells inside the insertion windows
    may still shift slightly — that is MGL's job).

    Cells are re-inserted at minimum displacement from their GP
    anchors; [targets] rebinds the anchors of moved cells first, so an
    ECO that relocates a cell passes [(id, (new_x, new_y))].

    Failures are typed {!Mcl_analysis.Diagnostic.Failed} raises with
    stable [S3xx]-family codes (README.md §Diagnostics), matching the
    rest of the flow: [S302-eco-unknown-cell] for an id outside the
    design, [S303-eco-fixed-cell] for a fixed cell, and
    [S301-unplaceable-cell] bubbling up from the insertion machinery
    when a cell fits nowhere. Request validation runs {e before} any
    anchor is rebound, so a rejected call leaves the design
    bit-identical. *)

open Mcl_netlist

type stats = {
  relegalized : int;
  window_growths : int;
  fallbacks : int;
  total_disp_rows : float;
      (** summed displacement of the re-inserted cells from their GP
          anchors, in row heights (quality signal for service metrics
          and the ECO-trace bench) *)
  max_disp_rows : float;  (** worst single re-inserted cell *)
  kernel : Arena.counters;
      (** insertion-kernel counters for this ECO (see {!Mgl.stats}) *)
}

(** [relegalize ?targets config design ~cells] re-inserts [cells]
    (ids) plus every cell named in [targets]. The rest of the placement
    must be legal. Raises {!Mcl_analysis.Diagnostic.Failed} as
    documented above.

    [budget] is polled at every insertion-window attempt; expiry
    raises {!Mcl_resilience.Budget.Deadline_exceeded} mid-mutation, so
    budgeted callers must checkpoint (the service engine snapshots
    positions and anchors). [greedy] places the ECO cells with the
    bounded-cost emergency first-fit instead of windowed insertion —
    the degraded mode served under deadline pressure (ignores
    [budget]). *)
val relegalize :
  ?targets:(int * (int * int)) list -> ?budget:Mcl_resilience.Budget.t ->
  ?greedy:bool -> Config.t -> Design.t -> cells:int list -> stats
