module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist

type stats = {
  legalized : int;
  window_growths : int;
  fallbacks : int;
  kernel : Arena.counters;
}

(* Free x-intervals of [region] common to the [h] rows from [y0], with
   every cell of [placement] as an obstacle. *)
let free_gaps design placement segments ~region ~y0 ~h =
  let row_free row =
    let cuts = ref [] in
    let arr, len = Placement.row_cells placement row in
    for i = 0 to len - 1 do
      let c = design.Design.cells.(arr.(i)) in
      cuts := Interval.make c.Cell.x (c.Cell.x + Design.width design c) :: !cuts
    done;
    Segment.spans segments ~row ~region
    |> List.concat_map (fun s -> Interval.subtract s !cuts)
  in
  let free = ref (row_free y0) in
  for k = 1 to h - 1 do
    let next = row_free (y0 + k) in
    free :=
      List.concat_map
        (fun a ->
           List.filter_map
             (fun b ->
                let i = Interval.inter a b in
                if Interval.is_empty i then None else Some i)
             next)
        !free
  done;
  !free

(* Emergency placement: nearest gap that fits the cell without moving
   anything else. Only used when windowed insertion failed at the
   largest window (e.g. a fragmented, nearly-full region). A safety
   margin of the largest spacing rule is kept on both sides so no edge
   violation can appear. *)
let fallback_place ~relax_routability (ctx : Insertion.ctx) target =
  let design = ctx.Insertion.design in
  let placement = ctx.Insertion.placement in
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt and w = Design.width design tgt in
  let fp = design.Design.floorplan in
  let region = Segment.region_of ctx.Insertion.segments tgt in
  let margin = ctx.Insertion.clip_pad in
  let best = ref None in
  let consider ~y0 ~x cost =
    match !best with
    | Some (_, _, c) when c <= cost -> ()
    | Some _ | None -> best := Some (y0, x, cost)
  in
  let num_rows = fp.Floorplan.num_rows in
  for y0 = 0 to num_rows - h do
    let row_feasible =
      Insertion.parity_ok h y0
      && (relax_routability
          ||
          match ctx.Insertion.routability with
          | None -> true
          | Some r -> Routability.row_ok r ~type_id:tgt.Cell.type_id ~y:y0)
    in
    if row_feasible then
      List.iter
        (fun (g : Interval.t) ->
           let lo = g.Interval.lo + margin and hi = g.Interval.hi - margin - w in
           if hi >= lo then begin
             let x0 = Interval.clamp (Interval.make lo (hi + 1)) tgt.Cell.gp_x in
             let x =
               match ctx.Insertion.routability with
               | None -> Some x0
               | Some _ when relax_routability -> Some x0
               | Some r ->
                 Routability.nearest_ok_x r ~type_id:tgt.Cell.type_id ~x:x0 ~lo ~hi
             in
             match x with
             | Some x ->
               let cost =
                 abs (x - tgt.Cell.gp_x)
                 + (abs (y0 - tgt.Cell.gp_y) * fp.Floorplan.row_height
                    / fp.Floorplan.site_width)
               in
               consider ~y0 ~x (float_of_int cost)
             | None -> ()
           end)
        (free_gaps design placement ctx.Insertion.segments ~region ~y0 ~h)
  done;
  match !best with
  | Some (y0, x, _) ->
    Insertion.log_move ctx tgt;
    tgt.Cell.x <- x;
    tgt.Cell.y <- y0;
    Placement.add placement target;
    true
  | None -> false

(* Routability is a soft constraint (paper Sec. 2): a last-resort
   placement with pin violations beats failing. *)
let place_fallback ctx target =
  if
    not
      (fallback_place ~relax_routability:false ctx target
       || fallback_place ~relax_routability:true ctx target)
  then
    Mcl_analysis.Diagnostic.(
      fail
        [ error ~code:"S301-unplaceable-cell" ~stage:"mgl" ~loc:(Cell target)
            "no legal insertion point even at full-die window (region over \
             capacity?)" ])

let grow_window (w : Rect.t) ~die ~factor =
  let cx = (w.Rect.x.Interval.lo + w.Rect.x.Interval.hi) / 2 in
  let cy = (w.Rect.y.Interval.lo + w.Rect.y.Interval.hi) / 2 in
  let hw = max 4 ((Interval.length w.Rect.x * factor) / 2) in
  let hh = max 2 ((Interval.length w.Rect.y * factor) / 2) in
  Rect.inter die
    (Rect.make ~xl:(cx - hw) ~yl:(cy - hh) ~xh:(cx + hw) ~yh:(cy + hh))

let initial_window config design (tgt : Cell.t) ~h ~w ~util =
  let die = Floorplan.die design.Design.floorplan in
  (* dense designs need wider windows up-front: a window must contain
     roughly [w] sites of slack for the insertion to be feasible *)
  let slack_factor = 1.0 /. Float.max 0.15 (1.0 -. util) in
  let hw =
    config.Config.window_halfwidth
    + int_of_float (float_of_int w *. Float.min 8.0 slack_factor)
  in
  let hh = config.Config.window_halfheight + h in
  Rect.inter die
    (Rect.make ~xl:(tgt.Cell.gp_x - hw) ~yl:(tgt.Cell.gp_y - hh)
       ~xh:(tgt.Cell.gp_x + w + hw) ~yh:(tgt.Cell.gp_y + h + hh))

let legalize_one ?budget ctx ~bound ~target ~growths =
  let design = ctx.Insertion.design in
  let config = ctx.Insertion.config in
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt and w = Design.width design tgt in
  let w0 =
    initial_window config design tgt ~h ~w ~util:ctx.Insertion.utilization
  in
  (* window retries are the natural cancellation boundary: the design
     is consistent between attempts, so a deadline raise here leaves
     nothing half-applied (the transactional caller rolls back the
     cells already re-inserted) *)
  let rec attempt ~limit window tries =
    Mcl_resilience.Budget.check budget;
    match Insertion.best ctx ~target ~window with
    | Some cand ->
      Insertion.apply ctx ~target cand;
      true
    | None ->
      if tries >= config.Config.max_window_tries || Rect.equal window limit
      then false
      else begin
        incr growths;
        attempt ~limit
          (grow_window window ~die:limit ~factor:config.Config.window_growth)
          (tries + 1)
      end
  in
  match bound with
  | `Die ->
    (* an anchor past the die edge clamps to an empty window; growing
       it is how such a cell reaches the die *)
    attempt ~limit:(Floorplan.die design.Design.floorplan) w0 0
  | `Stripe stripe ->
    (* a window that misses the stripe leaves the cell to whoever runs
       the die-bounded search after the stripes *)
    let w0 = Rect.inter stripe w0 in
    (not (Rect.is_empty w0)) && attempt ~limit:stripe w0 0

let default_order design =
  let ids =
    Array.of_list
      (Array.to_list design.Design.cells
       |> List.filter (fun (c : Cell.t) -> not c.Cell.is_fixed)
       |> List.map (fun (c : Cell.t) -> c.Cell.id))
  in
  (* taller, then wider, cells first: they are the hardest to fit *)
  Array.sort
    (fun a b ->
       let ca = design.Design.cells.(a) and cb = design.Design.cells.(b) in
       let ka =
         (-Design.height design ca, -Design.width design ca, ca.Cell.gp_x, a)
       and kb =
         (-Design.height design cb, -Design.width design cb, cb.Cell.gp_x, b)
       in
       compare ka kb)
    ids;
  ids

let run_with_ctx ?budget ?(greedy = false) ctx ~order =
  let growths = ref 0 and fallbacks = ref 0 and legalized = ref 0 in
  let kernel_before = Arena.counters ctx.Insertion.arena in
  Array.iter
    (fun target ->
       (* [greedy] skips the windowed search entirely: first-fit only,
          bounded cost per cell — the degraded-mode answer under
          deadline pressure, so it takes no budget itself *)
       if
         greedy
         || not (legalize_one ?budget ctx ~bound:`Die ~target ~growths)
       then begin
         incr fallbacks;
         place_fallback ctx target
       end;
       incr legalized)
    order;
  { legalized = !legalized; window_growths = !growths; fallbacks = !fallbacks;
    kernel =
      Arena.diff ~before:kernel_before
        ~after:(Arena.counters ctx.Insertion.arena) }

(* Half the largest spacing rule, so cells on opposite sides of a
   region boundary always end at least one full rule apart. *)
let boundary_gap config design =
  if not config.Config.consider_routability then 0
  else (Floorplan.max_spacing design.Design.floorplan + 1) / 2

let context ?disp_from config design ~placement =
  let segments =
    Segment.build ~boundary_gap:(boundary_gap config design)
      ~respect_fences:config.Config.consider_fences design
  in
  let routability =
    if config.Config.consider_routability then Some (Routability.create design)
    else None
  in
  Insertion.make_ctx ?disp_from config design ~placement ~segments
    ~routability

let fixed_placement design =
  let placement = Placement.create design in
  Array.iter
    (fun (c : Cell.t) -> if c.Cell.is_fixed then Placement.add placement c.Cell.id)
    design.Design.cells;
  placement

let run ?(disp_from = `Gp) ?budget config design =
  let ctx =
    context ~disp_from config design ~placement:(fixed_placement design)
  in
  run_with_ctx ?budget ctx ~order:(default_order design)
