module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist

type t = {
  design : Design.t;
  hrail_period : int;  (* rows; 0 = no horizontal stripes *)
  vrail_pitch : int;   (* sites; 0 = no vertical stripes *)
  row_ok_tbl : bool array array;  (* type -> y mod period *)
  x_ok_tbl : bool array array;    (* type -> x mod pitch *)
  (* [io_conflicts] is called once per evaluated candidate, so it asks
     the x-bucketed index instead of scanning every IO pin *)
  io : Io_index.t;
}

let relation ~pin_layer ~obstacle_layer =
  if Layer.equal pin_layer obstacle_layer then true
  else
    match Layer.above pin_layer with
    | Some up -> Layer.equal up obstacle_layer
    | None -> false

(* Does any pin of [ct] placed with bottom row residue [rho] hit a
   horizontal M2 stripe? Stripes sit at y = k * period * row_height,
   extending hrail_halfwidth each way. *)
let row_residue_conflict fp (ct : Cell_type.t) rho =
  let rh = fp.Floorplan.row_height in
  let period_dbu = fp.Floorplan.hrail_period * rh in
  let hw = fp.Floorplan.hrail_halfwidth in
  List.exists
    (fun (p : Cell_type.pin) ->
       relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M2
       &&
       let ylo = (rho * rh) + p.Cell_type.shape.Rect.y.Interval.lo in
       let yhi = (rho * rh) + p.Cell_type.shape.Rect.y.Interval.hi in
       (* candidate stripe indices around the pin span *)
       let k_lo = (ylo - hw) / period_dbu and k_hi = ((yhi + hw) / period_dbu) + 1 in
       let rec any k =
         k <= k_hi
         && ((let c = k * period_dbu in
              ylo < c + hw && yhi > c - hw)
             || any (k + 1))
       in
       any (max 0 k_lo))
    ct.Cell_type.pins

let x_residue_conflict fp (ct : Cell_type.t) rho =
  let sw = fp.Floorplan.site_width in
  let pitch_dbu = fp.Floorplan.vrail_pitch * sw in
  let vw = fp.Floorplan.vrail_width in
  let hw = vw / 2 in
  List.exists
    (fun (p : Cell_type.pin) ->
       relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M3
       &&
       let xlo = (rho * sw) + p.Cell_type.shape.Rect.x.Interval.lo in
       let xhi = (rho * sw) + p.Cell_type.shape.Rect.x.Interval.hi in
       let k_lo = (xlo - vw) / pitch_dbu and k_hi = ((xhi + vw) / pitch_dbu) + 1 in
       let rec any k =
         k <= k_hi
         && ((let c = k * pitch_dbu in
              xlo < c - hw + vw && xhi > c - hw)
             || any (k + 1))
       in
       any (max 0 k_lo))
    ct.Cell_type.pins

let create design =
  let fp = design.Design.floorplan in
  let types = design.Design.cell_types in
  let hrail_period = fp.Floorplan.hrail_period in
  let vrail_pitch = fp.Floorplan.vrail_pitch in
  let row_ok_tbl =
    Array.map
      (fun ct ->
         if hrail_period <= 0 then [||]
         else Array.init hrail_period (fun rho -> not (row_residue_conflict fp ct rho)))
      types
  in
  let x_ok_tbl =
    Array.map
      (fun ct ->
         if vrail_pitch <= 0 then [||]
         else Array.init vrail_pitch (fun rho -> not (x_residue_conflict fp ct rho)))
      types
  in
  { design; hrail_period; vrail_pitch; row_ok_tbl; x_ok_tbl;
    io = Io_index.create fp }

let row_ok t ~type_id ~y =
  t.hrail_period <= 0
  || t.row_ok_tbl.(type_id).(((y mod t.hrail_period) + t.hrail_period) mod t.hrail_period)

let x_ok t ~type_id ~x =
  t.vrail_pitch <= 0
  || t.x_ok_tbl.(type_id).(((x mod t.vrail_pitch) + t.vrail_pitch) mod t.vrail_pitch)

let nearest_ok_x t ~type_id ~x ~lo ~hi =
  if x_ok t ~type_id ~x && x >= lo && x <= hi then Some x
  else begin
    (* residues repeat with the pitch: beyond one pitch nothing new *)
    let limit =
      Int.min (Int.max (x - lo) (hi - x)) (Int.max 1 t.vrail_pitch)
    in
    let rec search d =
      if d > limit then None
      else if x - d >= lo && x_ok t ~type_id ~x:(x - d) then Some (x - d)
      else if x + d <= hi && x_ok t ~type_id ~x:(x + d) then Some (x + d)
      else search (d + 1)
    in
    search 1
  end

(* IO pins of a layer related to pin [p]'s that overlap [shape], [p]'s
   rect placed somewhere (dbu). *)
let io_hits t (p : Cell_type.pin) shape =
  let ios = Io_index.pins t.io in
  let acc = ref 0 in
  Io_index.iter_near t.io shape (fun id ->
      let io = ios.(id) in
      if relation ~pin_layer:p.Cell_type.layer
          ~obstacle_layer:io.Floorplan.io_layer
      && Rect.overlaps shape io.Floorplan.io_rect
      then incr acc);
  !acc

(* Count of (cell pin, IO pin) conflict pairs. *)
let io_conflicts t ~type_id ~x ~y =
  if Array.length (Io_index.pins t.io) = 0 then 0
  else begin
    let fp = t.design.Design.floorplan in
    let ox = x * fp.Floorplan.site_width
    and oy = y * fp.Floorplan.row_height in
    List.fold_left
      (fun acc (p : Cell_type.pin) ->
         acc + io_hits t p (Rect.shift p.Cell_type.shape ~dx:ox ~dy:oy))
      0 t.design.Design.cell_types.(type_id).Cell_type.pins
  end

let position_clean t ~type_id ~x ~y =
  x_ok t ~type_id ~x && io_conflicts t ~type_id ~x ~y = 0

(* No IO pin of a related layer overlaps any pin of the type swept
   over left edges [lo, hi] in row [y]. One index query per pin; a pin
   shifted to any x in [lo, hi] lies inside its swept shape, so when
   this holds, [io_conflicts] is 0 at every such x. *)
let sweep_io_free t ~type_id ~y ~lo ~hi =
  Array.length (Io_index.pins t.io) = 0
  || begin
    let fp = t.design.Design.floorplan in
    let sw = fp.Floorplan.site_width and oy = y * fp.Floorplan.row_height in
    List.for_all
      (fun (p : Cell_type.pin) ->
         let s = p.Cell_type.shape in
         io_hits t p
           (Rect.make ~xl:((lo * sw) + s.Rect.x.Interval.lo)
              ~xh:((hi * sw) + s.Rect.x.Interval.hi)
              ~yl:(oy + s.Rect.y.Interval.lo) ~yh:(oy + s.Rect.y.Interval.hi))
         = 0)
      t.design.Design.cell_types.(type_id).Cell_type.pins
  end

let feasible_x_range t ~type_id ~x ~y ~span_lo ~span_hi ~max_reach =
  (* the walk below probes left edges in [probe_lo, probe_hi] and
     nothing else: when no IO pin touches that range, only the rail
     residues can stop it, and the per-site IO queries are skipped *)
  let probe_lo = Int.min x (Int.max span_lo (x - max_reach))
  and probe_hi = Int.max x (Int.min span_hi (x + max_reach)) in
  let clean =
    if sweep_io_free t ~type_id ~y ~lo:probe_lo ~hi:probe_hi then
      fun x -> x_ok t ~type_id ~x
    else fun x -> position_clean t ~type_id ~x ~y
  in
  if not (clean x) then (x, x)
  else begin
    let lo = ref x in
    while !lo > span_lo && x - !lo < max_reach && clean (!lo - 1) do
      decr lo
    done;
    let hi = ref x in
    while !hi < span_hi && !hi - x < max_reach && clean (!hi + 1) do
      incr hi
    done;
    (!lo, !hi)
  end
