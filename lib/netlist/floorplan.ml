module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect

type io_pin = { io_layer : Layer.t; io_rect : Rect.t }

type t = {
  num_sites : int;
  num_rows : int;
  site_width : int;
  row_height : int;
  hrail_period : int;
  hrail_halfwidth : int;
  vrail_pitch : int;
  vrail_width : int;
  io_pins : io_pin list;
  blockages : Rect.t list;
  edge_spacing : int array array;
}

let make ~num_sites ~num_rows ?(site_width = 1) ?(row_height = 10)
    ?(hrail_period = 0) ?(hrail_halfwidth = 0) ?(vrail_pitch = 0)
    ?(vrail_width = 0) ?(io_pins = []) ?(blockages = [])
    ?(edge_spacing = [||]) () =
  if num_sites <= 0 || num_rows <= 0 then
    invalid_arg "Floorplan.make: non-positive die";
  if site_width <= 0 || row_height <= 0 then
    invalid_arg "Floorplan.make: non-positive pitch";
  { num_sites; num_rows; site_width; row_height; hrail_period;
    hrail_halfwidth; vrail_pitch; vrail_width; io_pins; blockages;
    edge_spacing }

let die t = Rect.make ~xl:0 ~yl:0 ~xh:t.num_sites ~yh:t.num_rows

let spacing t ~l ~r =
  let n = Array.length t.edge_spacing in
  if l < 0 || r < 0 || l >= n then 0
  else
    let row = t.edge_spacing.(l) in
    if r >= Array.length row then 0 else row.(r)

let max_spacing t =
  Array.fold_left (fun acc row -> Array.fold_left Int.max acc row) 0
    t.edge_spacing

let hrail_stripes t =
  if t.hrail_period <= 0 then []
  else
    let rec go k acc =
      let row = k * t.hrail_period in
      if row > t.num_rows then List.rev acc
      else
        let y = row * t.row_height in
        go (k + 1) (Interval.make (y - t.hrail_halfwidth) (y + t.hrail_halfwidth) :: acc)
    in
    go 0 []

let vrail_stripes t =
  if t.vrail_pitch <= 0 then []
  else
    let rec go k acc =
      let site = k * t.vrail_pitch in
      if site > t.num_sites then List.rev acc
      else
        let x = site * t.site_width in
        let hw = t.vrail_width / 2 in
        go (k + 1) (Interval.make (x - hw) (x - hw + t.vrail_width) :: acc)
    in
    go 0 []
