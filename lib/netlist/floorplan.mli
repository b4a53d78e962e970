(** Chip floorplan: placement rows/sites, the P/G grid, IO pins,
    placement blockages and the edge-spacing rule table.

    Coordinates: x positions are site indices, y positions are row
    indices; [site_width] and [row_height] convert them to database
    units (dbu). Pin and rail geometry is expressed in dbu.

    P/G grid model (paper Sec. 2, Fig. 1):
    - horizontal power stripes on M2 along every [hrail_period]-th row
      boundary, extending [hrail_halfwidth] dbu to each side;
    - vertical power stripes on M3 every [vrail_pitch] sites, each
      [vrail_width] dbu wide, centred on the site boundary;
    - IO pins are fixed rectangles on M2 or M3. *)

type io_pin = { io_layer : Layer.t; io_rect : Mcl_geom.Rect.t }  (** dbu *)

type t = {
  num_sites : int;
  num_rows : int;
  site_width : int;       (** dbu *)
  row_height : int;       (** dbu *)
  hrail_period : int;     (** in rows; 0 disables horizontal stripes *)
  hrail_halfwidth : int;  (** dbu *)
  vrail_pitch : int;      (** in sites; 0 disables vertical stripes *)
  vrail_width : int;      (** dbu *)
  io_pins : io_pin list;
  blockages : Mcl_geom.Rect.t list;  (** site/row coordinates *)
  edge_spacing : int array array;    (** [sites]; indexed by edge types *)
}

val make :
  num_sites:int -> num_rows:int ->
  ?site_width:int -> ?row_height:int ->
  ?hrail_period:int -> ?hrail_halfwidth:int ->
  ?vrail_pitch:int -> ?vrail_width:int ->
  ?io_pins:io_pin list -> ?blockages:Mcl_geom.Rect.t list ->
  ?edge_spacing:int array array -> unit -> t

(** Die area in site/row coordinates. *)
val die : t -> Mcl_geom.Rect.t

(** Minimum spacing in sites required between a cell of edge type [l]
    followed (to its right) by a cell of edge type [r]. Out-of-range
    edge types get spacing 0. *)
val spacing : t -> l:int -> r:int -> int

(** The largest entry of the spacing table (0 when it is empty): the
    widest gap any pair of edge types can demand. *)
val max_spacing : t -> int

(** Horizontal stripe y-extents in dbu, restricted to row boundaries
    that fall inside the die. *)
val hrail_stripes : t -> Mcl_geom.Interval.t list

(** [vrail_x_positions t] enumerates the dbu x-extents of the vertical
    stripes. *)
val vrail_stripes : t -> Mcl_geom.Interval.t list
