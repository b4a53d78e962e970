module Interval = Mcl_geom.Interval
open Mcl_netlist

type stats = { legalized : int }

let place_one design placement segments target =
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt and w = Design.width design tgt in
  let fp = design.Design.floorplan in
  let region = Segment.region_of segments tgt in
  let dy_cost = fp.Floorplan.row_height / fp.Floorplan.site_width in
  let best = ref None in
  let consider ~y0 ~x =
    let cost = abs (x - tgt.Cell.gp_x) + (abs (y0 - tgt.Cell.gp_y) * dy_cost) in
    match !best with
    | Some (_, _, c) when c <= cost -> ()
    | Some _ | None -> best := Some (y0, x, cost)
  in
  (* scan rows outward from the GP row; stop expanding once even the
     y-distance alone exceeds the best cost found *)
  let num_rows = fp.Floorplan.num_rows in
  let try_row y0 =
    if y0 >= 0 && y0 + h <= num_rows && Insertion.parity_ok h y0 then begin
      let beatable =
        match !best with
        | Some (_, _, c) -> abs (y0 - tgt.Cell.gp_y) * dy_cost < c
        | None -> true
      in
      if beatable then
        List.iter
          (fun (g : Interval.t) ->
             if Interval.length g >= w then
               consider ~y0
                 ~x:(Interval.clamp (Interval.make g.Interval.lo (g.Interval.hi - w + 1))
                       tgt.Cell.gp_x))
          (Mgl.free_gaps design placement segments ~region ~y0 ~h)
    end
  in
  try_row tgt.Cell.gp_y;
  let radius = ref 1 in
  let continue = ref true in
  while !continue do
    let y_up = tgt.Cell.gp_y + !radius and y_dn = tgt.Cell.gp_y - !radius in
    try_row y_up;
    try_row y_dn;
    let exhausted = y_up + h > num_rows && y_dn < 0 in
    let good_enough =
      match !best with
      | Some (_, _, c) -> (!radius - 1) * dy_cost > c
      | None -> false
    in
    if exhausted || good_enough then continue := false else incr radius
  done;
  match !best with
  | Some (y0, x, _) ->
    tgt.Cell.x <- x;
    tgt.Cell.y <- y0;
    Placement.add placement target;
    true
  | None -> false

let run config design =
  let segments =
    Segment.build ~respect_fences:config.Config.consider_fences design
  in
  let placement = Mgl.fixed_placement design in
  let order =
    Array.to_list design.Design.cells
    |> List.filter (fun (c : Cell.t) -> not c.Cell.is_fixed)
    |> List.map (fun (c : Cell.t) -> c.Cell.id)
    |> List.sort (fun a b ->
        let ca = design.Design.cells.(a) and cb = design.Design.cells.(b) in
        compare
          (-Design.height design ca, ca.Cell.gp_x, a)
          (-Design.height design cb, cb.Cell.gp_x, b))
    |> Array.of_list
  in
  let count = ref 0 in
  Array.iter
    (fun id ->
       if place_one design placement segments id then incr count
       else
         Mcl_analysis.Diagnostic.(
           fail
             [ error ~code:"S301-unplaceable-cell" ~stage:"greedy" ~loc:(Cell id)
                 "no free span can take the cell" ]))
    order;
  { legalized = !count }
