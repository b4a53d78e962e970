(** Worst-window refinement: re-solve the top-K windows exactly.

    Windows are ranked by worst cell displacement (via
    {!Mcl_eval.Windows}), each centered on the offending cell's
    {e current} footprint — re-packing the neighborhood it landed in
    (GP-anchor windows measure as almost always full: that is why the
    cell was displaced, so re-solving them never helps).  Each window
    is handed to the exact {!Solver}; a strictly-improving assignment
    is applied only if the full-design legality violation count does
    not grow and the Eq. 10 score does not worsen — so refinement is
    monotone by construction.  Window order, instance selection and
    acceptance are all deterministic.

    [k = 0] is a guaranteed no-op: the design is not touched and the
    score is merely measured. *)

type outcome = {
  o_window : Mcl_geom.Rect.t;
  o_seed : int;  (** seed cell id *)
  o_cells : int;  (** instance size handed to the solver *)
  o_before : float;  (** window cost before (solver baseline) *)
  o_after : float;  (** window cost after ([= o_before] when rejected) *)
  o_verdict : Solver.verdict;
  o_nodes : int;
  o_accepted : bool;
}

type stats = {
  windows : int;
  accepted : int;
  proven : int;  (** windows whose solve is a certificate *)
  budget_exhausted : int;
  nodes : int;
  subopt_cost : float;
      (** total window cost recovered across {e proven} windows — the
          measured optimality gap of the heuristic pipeline on the
          windows examined (0 = window-optimal everywhere proven) *)
  score_before : float;  (** Eq. 10 score entering refinement *)
  score_after : float;
  outcomes : outcome list;  (** window order *)
}

val default_halfwidth : int
val default_halfheight : int

(** Refine the design of [ctx] (already legalized) in place.  [ctx]
    must hold every cell of its design (build it with {!Mcl.Mgl.context}
    over [Placement.of_design], or reuse the service's resident ECO
    context); accepted moves go through it, so its placement stays
    current and its undo log, if any, records them. The solver builds
    and prices each window with the context's own window rules
    ({!Mcl.Insertion.clip_spans}, {!Mcl.Insertion.row_subspans},
    {!Mcl.Insertion.penalized}), and instance cells keep
    [ctx.clip_pad] clear of the window's x-edges, where the kernel's
    clip demotes them to obstacles.  [k] bounds the
    number of windows examined; [node_budget] bounds each solve;
    [max_cells] caps the instance size per window (nearest-to-seed
    wins, deterministically).  [budget] is the usual cooperative
    deadline, checked between windows and inside each solve; on
    expiry the design and the context are left mid-pass, so callers
    roll back and discard the context. *)
val run :
  ?budget:Mcl_resilience.Budget.t -> ?node_budget:int -> ?max_cells:int ->
  ?halfwidth:int -> ?halfheight:int ->
  k:int -> gp_hpwl:int -> Mcl.Insertion.ctx -> stats
