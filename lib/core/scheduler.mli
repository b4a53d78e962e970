(** Deterministic multi-threaded MGL (paper Sec. 3.5).

    Two parallel decompositions live here, selected by
    [config.shards]:

    {b Round-batched} ([shards = 1], the classic path). The scheduler
    maintains the paper's two lists: [L_p], windows under processing
    (pairwise non-overlapping), and [L_w], cells waiting (including
    those whose window grew after a failed insertion). Each round, a
    maximal prefix-greedy batch of non-overlapping windows is selected
    in cell order; their best insertion points are computed read-only
    and then applied in order. Because the windows are disjoint, the
    computed candidates touch disjoint cell sets and the result is
    identical to processing the batch sequentially — determinism
    follows by construction, as the paper argues. A cell whose last
    window fails goes to {!Mgl.place_fallback}. This path runs on the
    calling domain, so [config.threads] has no effect here (DESIGN.md
    §16 gives the measurements behind that choice).

    {b Spatially sharded} ([shards >= 2]). The die is split into
    contiguous column stripes at seams fixed by die geometry and fence
    positions (see {!Shard}), never by cell order. Every movable cell
    is classified interior-to-one-stripe or boundary; interior cells of
    all stripes are legalized concurrently as coarse jobs — one
    stripe per job, each on a copy of the run's {!Insertion.ctx} with
    its own {!Placement} and {!Arena}, running {!Mgl.legalize_one}
    bounded by the stripe — then the per-stripe occupancies are merged
    and {!Mgl.run_with_ctx} legalizes the rest in global order.
    Stripe jobs touch disjoint cells and sites, and the boundary pass
    is sequential, so the output depends on [config.shards] (seam
    geometry) but never on [config.threads], which only sizes the
    domain pool the stripe jobs run on. *)

open Mcl_netlist

type shard_info = {
  shard_count : int;      (** effective stripe count (may be clamped) *)
  seam_margin : int;      (** extra seam clearance used to classify *)
  interior_legalized : int;  (** cells placed inside their stripe *)
  boundary_zone : int;    (** cells classified boundary up front *)
  deferred : int;         (** interior cells that exhausted their stripe
                              and fell through to the boundary pass *)
}

type stats = {
  legalized : int;
  rounds : int;
  window_growths : int;
  fallbacks : int;
  kernel : Arena.counters;
      (** insertion-kernel counters of the run; on the sharded path
          the stripe arenas merge in shard-index order, then the
          boundary arena — byte-stable for any thread count *)
  sharding : shard_info option;
      (** [Some] iff the sharded path ran *)
}

(** [run config design] legalizes like {!Mgl.run} but batch-scheduled.
    [config.shards] >= 2 switches to the sharded path above, whose
    stripe jobs run on [config.threads] domains ([shard_margin] widens
    the seam clearance used when classifying cells as interior,
    default 0). [budget] is polled at round boundaries and per
    candidate evaluation (sharded path: per window attempt); expiry
    raises {!Mcl_resilience.Budget.Deadline_exceeded} (from the calling
    domain — stripe-job raises are funnelled through the pool join). *)
val run :
  ?disp_from:[ `Gp | `Current ] -> ?budget:Mcl_resilience.Budget.t ->
  ?shard_margin:int ->
  Config.t -> Design.t -> stats

(** Batch formation on the round-batched path. An [occupancy] is a
    bucket grid over [die], made once per run and reused by every
    round; windows may lie anywhere, the die only sizes the grid. *)
type occupancy

val occupancy : die:Mcl_geom.Rect.t -> occupancy

(** [greedy_batch occ ~window items len ~batch ~rest] forms one
    round's batch from [items.(0 .. len-1)], in order: an item joins
    iff its [window] overlaps ({!Mcl_geom.Rect.overlaps}, half-open) no
    earlier joined item's, so an empty window always joins. Joined
    items are copied to the front of [batch] and the others to the
    front of [rest], both in order; the result is the number joined.
    Equal to scanning each window against the whole batch so far,
    whatever earlier rounds [occ] served. *)
val greedy_batch :
  occupancy -> window:('a -> Mcl_geom.Rect.t) -> 'a array -> int ->
  batch:'a array -> rest:'a array -> int

(** [run_jobs ~threads jobs] drains [jobs] through a shared work queue
    on [min threads (length jobs)] domains; with [threads <= 1] (or a
    single job) everything runs inline on the calling domain, in list
    order. This is the domain pool behind the sharded path's stripe
    jobs.

    Jobs must not touch shared mutable state without their own
    synchronization. A job that raises kills its worker after the
    current job; the first such exception is re-raised from [run_jobs]
    after all domains are joined. *)
val run_jobs : threads:int -> (unit -> unit) list -> unit
