(** Worst-window extraction: where is quality lost?

    Ranks movable cells by displacement from their GP anchors and wraps
    each in a legalization window centered on the anchor, so a refiner
    (or a service client) can see — and re-solve — the regions where
    the heuristic pipeline paid the most.  The order is total and
    deterministic: displacement ties break on cell id. *)

open Mcl_netlist

type worst = {
  w_cell : int;  (** seed cell id *)
  w_disp : float;  (** displacement from GP, in row heights *)
  w_window : Mcl_geom.Rect.t;
      (** site/row window around the cell's current footprint *)
}

(** Window of [2*halfwidth] sites by [2*halfheight] rows centered on
    the cell — on its current footprint ([`Current]) or its GP anchor
    ([`Gp]) — clipped to the die. *)
val cell_window :
  Design.t -> cell:int -> at:[ `Gp | `Current ] ->
  halfwidth:int -> halfheight:int -> Mcl_geom.Rect.t

(** Top-[k] movable cells by displacement (descending, ties by id),
    each with its [`Current] {!cell_window} — the neighborhood the
    cell actually landed in, which is where a refiner can re-pack (the
    GP-anchor window is almost always full: that is {e why} the cell
    was displaced).  Cells with zero displacement are skipped; fewer
    than [k] entries may be returned. *)
val worst_cells :
  ?k:int -> halfwidth:int -> halfheight:int -> Design.t -> worst list
