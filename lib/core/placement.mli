(** Mutable occupancy structure: which cells currently occupy each row,
    kept sorted by x.

    Invariant maintained by all users: a cell's [x] is only mutated
    while the cell is outside the structure, or through shifts that
    preserve each row's x-order (MGL's left/right spreading does). *)

open Mcl_netlist

type t

(** Empty structure for the design (no cell registered). *)
val create : Design.t -> t

(** Structure with every movable cell registered at its current
    position, plus fixed cells as permanent occupants. *)
val of_design : Design.t -> t

(** [add t id] registers cell [id] at its current coordinates. *)
val add : t -> int -> unit

(** [remove t id] unregisters cell [id] (reads its current rows). *)
val remove : t -> int -> unit

val mem : t -> int -> bool

(** Cells occupying [row], sorted by x ascending; do not mutate. *)
val row_cells : t -> int -> int array * int
(** [(array, len)]: only the first [len] entries are valid. *)

(** [merge design parts] unions per-shard occupancies into a fresh
    structure by a k-way per-row merge (each part's rows are already
    (x, id)-sorted). A cell registered in several parts — fixed cells
    are obstacles in every shard — appears once. All parts must have
    been built for (physically) the same design. *)
val merge : Design.t -> t array -> t

(** [x_range t ~row ~lo ~hi] is [(first, last)]: the entries
    [first .. last - 1] of [row_cells t row] are exactly the cells
    whose left edge x lies in [lo, hi] (inclusive). Found by binary
    search, which the invariant above makes exact. Empty
    ([first = last]) when [hi < lo]. *)
val x_range : t -> row:int -> lo:int -> hi:int -> int * int

(** Check that every row is sorted and overlap-free; for tests. *)
val well_formed : t -> bool
