(** Maximum-displacement optimization (paper Sec. 3.2).

    For every (cell type x fence region) group, cells of the group may
    trade their current positions: a min-cost perfect bipartite matching
    between cells and the multiset of group positions is solved with the
    convex cost [phi(d) = d] for [d <= delta0], else [d^5 / delta0^4]
    (Eq. 3) — linear for small displacements (preserving the average),
    explosive for large ones (attacking the maximum). Same-type swaps
    cannot create overlap, parity, fence, edge-spacing or pin
    violations, so legality is preserved by construction.

    Candidate positions per cell are limited to its own position plus
    the [Config.matching_neighbors] nearest group positions; the
    identity edge keeps the matching feasible. *)

open Mcl_netlist

type stats = {
  groups : int;          (** groups with at least two cells *)
  cells_moved : int;
  phi_before : float;    (** total Eq. 3 cost over all groups *)
  phi_after : float;
}

(** [budget] is polled between matching rounds (one round per group);
    expiry raises {!Mcl_resilience.Budget.Deadline_exceeded} with the
    placement consistent. *)
val run : ?budget:Mcl_resilience.Budget.t -> Config.t -> Design.t -> stats

(** The paper's Eq. 3 penalty for a displacement of [d] row heights
    with threshold [delta0]. *)
val phi : delta0:float -> float -> float

(** [sort_by_key key a] sorts the indices [a] by [key.(a.(i))]
    ascending, under [Float.compare]. It is [Array.sort]'s heap sort
    specialised to this key, making the same comparisons, so it leaves
    [a] exactly as [Array.sort (fun i j -> compare key.(i) key.(j)) a]
    would, ties included. *)
val sort_by_key : float array -> int array -> unit
