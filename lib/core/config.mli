(** Tuning knobs of the legalization pipeline. *)

(** The displacement objective MGL and the post-passes minimize:
    [Average_weighted] is the contest's per-height-weighted average
    (paper Eq. 2, Table 1 experiments); [Total] is the plain sum of
    displacements (Table 2 experiments). *)
type objective = Average_weighted | Total

type t = {
  objective : objective;
  consider_fences : bool;       (** honor fence regions (hard) *)
  consider_routability : bool;  (** avoid pin short/access, edge spacing *)
  window_halfwidth : int;       (** initial MGL window, in sites *)
  window_halfheight : int;      (** initial MGL window, in rows *)
  window_growth : int;          (** growth factor numerator / 2 on failure *)
  max_window_tries : int;       (** growth steps before greedy fallback *)
  delta0_rows : float;          (** phi threshold delta_0 (Eq. 3), row heights *)
  matching_neighbors : int;     (** candidate positions per cell in Sec. 3.2 *)
  n0_factor : float;            (** weight of max-disp term in Eq. 8, as a
                                    multiple of the mean cell weight *)
  pivot_rule : Mcl_flow.Network_simplex.pivot_rule;
      (** network-simplex pivot rule of the row-order MCF (Sec. 3.3):
          [Block_search] (the default) or the paper's [First_eligible] *)
  run_matching : bool;          (** enable stage 2 (Sec. 3.2) *)
  run_row_order : bool;         (** enable stage 3 (Sec. 3.3) *)
  threads : int;
      (** domain-pool width for the sharded path's stripe jobs
          ([shards >= 2]); never changes a placement *)
  shards : int;
      (** number of spatial die stripes legalized concurrently; 1 (the
          default) keeps the classic round-batched scheduler, [>= 2]
          switches {!Scheduler.run} to the sharded path (seams fixed by
          die geometry, so the output depends on [shards] but never on
          [threads]) *)
  congestion_bin_sites : int;
      (** bin width, in sites, of the congestion map the program
          reports: the service's [query] and the CLI's SVG heat map.
          The legalizer never reads it. *)
}

val default : t

(** Configuration used for the Table 2 comparison: total-displacement
    objective, fences and routability ignored. *)
val total_displacement : t
