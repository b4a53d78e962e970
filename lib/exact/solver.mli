(** Exact window-local legalization by branch-and-bound.

    Given a set of movable {e instance} cells and a bounded window,
    the solver enumerates every site/row assignment of the instance
    cells (everything else is an obstacle) and returns the assignment
    minimizing the paper's Eq. 1/2 objective — the same per-cell cost
    {!Mcl.Insertion.best} charges: curve-weighted displacement from
    the cell's anchor, the row term scaled by row-height/site-width,
    then the IO-conflict penalty of {!Mcl.Insertion.penalized}. The
    window is the kernel's: its sub-spans come from
    {!Mcl.Insertion.clip_spans} and {!Mcl.Insertion.row_subspans} with
    the instance cells as the locals (so clip-pad clipping, the
    obstacle cut and the absorption of obstacle edge types at window
    boundaries are the kernel's own code), and
    {!Mcl.Insertion.parity_ok} and {!Mcl.Insertion.spacing} state the
    P/G-parity and edge-spacing rules. Fences and routability
    blockages constrain the candidate positions as in the kernel.

    Search is depth-first over cells in a fixed order (tallest/widest
    first, ties by id), with candidate positions per cell sorted
    cheapest-first and a suffix-sum lower bound over per-cell minima —
    each minimum obtained by minimizing the cell's displacement
    {!Mcl.Curve} over its feasible per-row interval packing.  Pruning
    uses the kernel's float-safety margin, so the optimal cost is
    bit-identical to exhaustive enumeration that accumulates candidate
    costs in the same slot order.

    One conservative approximation: edge-spacing between two instance
    cells placed in the same sub-span is enforced {e pairwise}, even
    when a third cell would sit between them.  The solver's feasible
    space is therefore a subset of the truly legal space under
    pathological spacing tables (never a superset — results are always
    legal), and coincides with it for the spacing tables the generator
    emits.

    A node budget (and optionally a {!Mcl_resilience.Budget} deadline)
    bounds the search; the verdict says whether the result is a
    certificate ([Proven]) or merely the best assignment found
    ([Budget_exhausted]). *)

type verdict = Proven | Budget_exhausted

(** Candidate position of one instance cell: left edge at site [px],
    bottom row [py], standalone cost [pcost]. *)
type pos = { px : int; py : int; pcost : float }

type move = { mv_cell : int; mv_x : int; mv_y : int }

type t

(** Build an instance over [cells] (movable cell ids, deduplicated; a
    currently unplaced cell — e.g. an insertion target — is allowed).
    [window] must lie inside the die.  Uses the context's arena as
    scratch, so it must not run inside a kernel call on the same
    context.  Raises [Invalid_argument] on a fixed or out-of-range
    cell id. *)
val build : Mcl.Insertion.ctx -> window:Mcl_geom.Rect.t -> cells:int list -> t

(** {2 Introspection} — the exhaustive-enumeration cross-check and the
    bench read the search space through these. *)

(** Instance cells in solve order. *)
val order : t -> int array

(** Candidate positions of slot [i] (index into {!order}), sorted by
    (cost, row, site).  The returned array is fresh. *)
val candidates : t -> int -> pos array

(** Can slots [i] and [j] hold positions [pa] and [pb] simultaneously?
    (No overlap; same-sub-span neighbors satisfy the edge-spacing
    table.) *)
val compatible : t -> int -> pos -> int -> pos -> bool

(** Cost of the currently-placed instance cells at their current
    positions, accumulated in solve order (unplaced cells contribute
    0).  The reference point for refinement acceptance, and the
    locals-only baseline when comparing against insertion costs. *)
val baseline_cost : t -> float

type result = {
  verdict : verdict;
  best_cost : float;
      (** optimal cost, or the best found under [Budget_exhausted];
          [infinity] when no assignment beat [upper_bound] *)
  moves : move list;  (** one per instance cell, solve order *)
  nodes : int;  (** candidate positions expanded *)
  root_bound : float;
      (** admissible root lower bound (suffix sum of per-slot minima) *)
}

(** [solve t] runs the branch-and-bound.  [upper_bound] (default
    [infinity]) prunes assignments not strictly better; [max_nodes]
    (default [500_000]) bounds the search; [budget] is polled every
    1024 nodes and raises {!Mcl_resilience.Budget.Deadline_exceeded}
    like every other stage. *)
val solve :
  ?budget:Mcl_resilience.Budget.t -> ?upper_bound:float -> ?max_nodes:int ->
  t -> result
