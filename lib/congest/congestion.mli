(** Grid-binned congestion model: a RUDY-style wiring-demand map plus a
    pin-density map, both incrementally updatable on single-cell moves.

    {b Demand (RUDY).} Every net contributes its bounding-box wire
    demand, spread uniformly over the bins its bbox overlaps: a net
    with an (inclusive) bbox of [w * h] dbu adds
    [overlap_area * (w + h) / (w * h)] to each overlapped bin — the
    bbox HPWL distributed over the bbox area (Rectangular Uniform wire
    DensitY). Contributions are stored as fixed-point integers
    ([scale] units per 1.0 of demand), so removing a net's contribution
    subtracts {e exactly} what was added and an incrementally
    maintained map equals a from-scratch rebuild bit for bit — the
    invariant the debug cross-check ({!equal} against a fresh
    {!create}) and the randomized tests rely on.

    {b Pins.} Each net endpoint adds one count to the bin containing
    it ([Fixed_pin]s at load time, [Cell_pin]s wherever their cell
    currently sits).

    {b Incremental updates.} A single-cell move touches only the bins
    under the net bboxes of the nets incident to that cell, O(bins
    touched): {!apply_move} journals the old position (for {!undo}),
    moves the cell and patches both maps; {!sync} reconciles the map
    after an external mutation (an ECO relegalization, a refine pass)
    from the list of cells it moved. *)

open Mcl_netlist

type t

(** Fixed-point units per 1.0 of wire demand. *)
val scale : float

(** [create ?bin_sites design] builds both maps from the design's
    current cell positions. [bin_sites] defaults to {!Grid.make}'s. *)
val create : ?bin_sites:int -> Design.t -> t

val grid : t -> Grid.t

val design : t -> Design.t

(** Recompute everything from the design's current positions, in
    place; clears the undo journal. *)
val rebuild : t -> unit

(** [apply_move t ~cell ~x ~y] moves [cell] to [(x, y)] (mutating the
    design), updates both maps incrementally and journals the old
    position. Raises [Invalid_argument] on a fixed cell. *)
val apply_move : t -> cell:int -> x:int -> y:int -> unit

(** Undo the most recent not-yet-undone {!apply_move}; [false] when
    the journal is empty. *)
val undo : t -> bool

val journal_depth : t -> int

(** [sync t ~moved] patches the maps after cells were moved outside
    the map's control: each [(cell, old_x, old_y)] names a moved cell
    with the position the map still accounts it at (each cell at most
    once; a cell back at that position is skipped). Costs the moved
    cells' nets, not the design. Does not journal. *)
val sync : t -> moved:(int * int * int) list -> unit

(** {2 Per-bin queries} *)

(** Wire demand of a bin as a dimensionless density (demand per dbu^2
    of the bin). *)
val wire_density : t -> int -> float

(** Pins per site-area of the bin. *)
val pin_density : t -> int -> float

(** [max 0 (wire_density - 1) + max 0 (pin_density - 1)]: how far the
    bin exceeds unit wire and pin capacity. *)
val overflow : t -> int -> float

(** {2 Aggregates} *)

type hotspot = {
  bx : int;
  by : int;
  hs_overflow : float;
  hs_wire : float;  (** wire density *)
  hs_pins : float;  (** pin density *)
}

type summary = {
  bins : int;
  max_overflow : float;
  avg_overflow : float;
  overfull : int;  (** bins with positive overflow *)
  max_pin_density : float;
  hotspots : hotspot list;  (** worst bins, overflow descending *)
}

val summarize : ?top_k:int -> t -> summary

(** Area-weighted mean overflow over the bins a dbu rectangle
    overlaps; 0 when the rectangle misses the die. The service's
    [query] reports each worst window's overflow with this. *)
val cost : t -> rect_dbu:Mcl_geom.Rect.t -> float

(** Same maps (grid shape, demand and pin arrays) — the incremental ==
    rebuilt cross-check. *)
val equal : t -> t -> bool
