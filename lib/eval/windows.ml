open Mcl_netlist
module Rect = Mcl_geom.Rect

type worst = {
  w_cell : int;
  w_disp : float;
  w_window : Rect.t;
}

let die_clip (fp : Floorplan.t) ~xl ~yl ~xh ~yh =
  let xl = Int.max 0 xl and yl = Int.max 0 yl in
  let xh = Int.min fp.Floorplan.num_sites (Int.max xl xh) in
  let yh = Int.min fp.Floorplan.num_rows (Int.max yl yh) in
  Rect.make ~xl ~yl ~xh ~yh

let cell_window design ~cell ~at ~halfwidth ~halfheight =
  let c = design.Design.cells.(cell) in
  let w = Design.width design c and h = Design.height design c in
  let x, y = match at with
    | `Gp -> (c.Cell.gp_x, c.Cell.gp_y)
    | `Current -> (c.Cell.x, c.Cell.y)
  in
  let cx = x + (w / 2) and cy = y + (h / 2) in
  die_clip design.Design.floorplan
    ~xl:(cx - halfwidth) ~yl:(cy - halfheight)
    ~xh:(cx + halfwidth) ~yh:(cy + halfheight)

let worst_cells ?(k = 8) ~halfwidth ~halfheight design =
  (* the [k] most displaced movable cells so far, worst first:
     displacement descending (Float.compare), id ascending. Cells
     arrive by ascending id, so an equal displacement never outranks a
     kept one. *)
  let k = Int.max 0 (Int.min k (Design.num_cells design)) in
  let top_d = Array.make k 0.0 and top_id = Array.make k 0 in
  let kept = ref 0 in
  let outranks d j = Float.compare d top_d.(j) > 0 in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.Cell.is_fixed then begin
         let d = Metrics.displacement design c in
         if d > 0.0 && (!kept < k || (k > 0 && outranks d (k - 1))) then begin
           let p = ref (if !kept < k then !kept else k - 1) in
           if !kept < k then incr kept;
           while !p > 0 && outranks d (!p - 1) do
             top_d.(!p) <- top_d.(!p - 1);
             top_id.(!p) <- top_id.(!p - 1);
             decr p
           done;
           top_d.(!p) <- d;
           top_id.(!p) <- c.Cell.id
         end
       end)
    design.Design.cells;
  List.init !kept (fun j ->
      let id = top_id.(j) in
      { w_cell = id; w_disp = top_d.(j);
        w_window =
          cell_window design ~cell:id ~at:`Current ~halfwidth ~halfheight })
