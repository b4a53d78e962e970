(** Routability soft-constraint checks (paper Sec. 2 and Fig. 1).

    A signal pin on metal layer [k] is {e short} when it overlaps a P/G
    stripe or IO pin on layer [k], and {e inaccessible} when it
    overlaps one on layer [k+1]. Edge-spacing violations are pairs of
    horizontally adjacent cells closer than the rule distance for
    their edge types. *)

open Mcl_netlist

type pin_violation = {
  cell : int;
  pin_name : string;
  kind : [ `Short | `Access ];
  against : [ `Hrail | `Vrail | `Io ];
}

type edge_violation = { left_cell : int; right_cell : int; need : int; got : int }

(** Pin short/access violations of one cell placed at [(x, y)] in
    site/row coordinates. [cell_pin_violations design] indexes the
    design's stripes and IO pins once; apply it to the design once and
    reuse the result for many cells. *)
val cell_pin_violations : Design.t -> Cell.t -> x:int -> y:int -> pin_violation list

(** All pin violations of the current placement. *)
val pin_violations : Design.t -> pin_violation list

(** All edge-spacing violations of the current placement (per adjacent
    pair in a row, deduplicated across rows). *)
val edge_violations : Design.t -> edge_violation list

(** [counts d] is [(num_pin, num_edge)], the paper's [N_p] and [N_e]. *)
val counts : Design.t -> int * int
