(** IO pins bucketed by x, so a query about one cell position visits
    only the pins near it instead of every IO pin of the die. Shared
    by the legalizer's routability model and the routability checker. *)

type t

val create : Floorplan.t -> t

(** The floorplan's IO pins in list order; {!iter_near} reports
    indices into this array. *)
val pins : t -> Floorplan.io_pin array

(** [iter_near t shape f] calls [f i] exactly once for each IO pin [i]
    that shares an x-bucket with [shape] (dbu). This includes every pin
    whose rectangle overlaps [shape]; the caller tests the overlap. The
    order of the calls is unspecified. *)
val iter_near : t -> Mcl_geom.Rect.t -> (int -> unit) -> unit
