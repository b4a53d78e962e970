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
    bit-identical.

    An ECO runs on a resident context ({!context}) that holds every
    cell: it unregisters its own cells, re-inserts them, and so leaves
    the context current for the next ECO. Every move and anchor rebind
    is logged on the context first; on any failure the log is replayed
    newest first, restoring the design exactly, and the context must
    be discarded (its placement is not rolled back). *)

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

(** [context config design] is a resident ECO context: {!Mgl.context}
    over a placement holding every cell at its current position, with
    an undo log. Build it once and pass it to every {!relegalize} on
    the design while no other code moves its cells. *)
val context : Config.t -> Design.t -> Insertion.ctx

(** [relegalize ?targets ctx ~cells] re-inserts [cells] (ids) plus
    every cell named in [targets] into the design of [ctx]. The rest
    of the placement must be legal. Raises
    {!Mcl_analysis.Diagnostic.Failed} as documented above, and
    [Invalid_argument] on a context without an undo log.

    [budget] is polled at every insertion-window attempt; expiry
    raises {!Mcl_resilience.Budget.Deadline_exceeded} mid-mutation,
    after the log has restored the design. [greedy] places the ECO
    cells with the bounded-cost emergency first-fit instead of
    windowed insertion — the degraded mode served under deadline
    pressure (ignores [budget]). On success, {!Insertion.moved} lists
    the cells the run moved, with their positions before it. *)
val relegalize :
  ?targets:(int * (int * int)) list -> ?budget:Mcl_resilience.Budget.t ->
  ?greedy:bool -> Insertion.ctx -> cells:int list -> stats
