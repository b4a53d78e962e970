(** Parameters of one synthetic benchmark (our substitution for the
    ICCAD 2017 / ISPD 2015 contest distributions; see DESIGN.md §4). *)

type t = {
  name : string;
  seed : int;
  num_cells : int;
  density : float;                (** target cell-area / placeable-area *)
  height_mix : (int * float) list;(** (height in rows, fraction of cells) *)
  num_fences : int;
  fence_cell_frac : float;        (** fraction of cells fenced *)
  hotspots : int;                 (** GP congestion clusters *)
  gp_noise_rows : float;          (** sigma of GP perturbation, in rows *)
  nets_per_cell : float;
  num_io_pins : int;
  routability : bool;             (** emit P/G grid + IO pins *)
  num_edge_types : int;
  num_macros : int;               (** fixed macro blocks placed pre-GP *)
  replicate : int;
      (** horizontal copies of the whole design, tiled side by side
          ({!Generator.replicate_stripes}): scales cell count linearly
          while keeping local structure — the wide-die inputs of the
          sharded-legalization benchmarks. 1 = no replication. *)
}

(** Sensible defaults: 2000 cells, 60% density, 10% double-height,
    no fences, routability on. *)
val default : t
