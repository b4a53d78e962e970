(* The arena kernel held to the reference kernel on every window a real
   MGL flow evaluates. [run] replays the flow (order, window growth,
   apply, fallback) and calls both kernels on each window, the arena
   one with ~check_pruning, which also fails the run if a pruned cut
   would have beaten the incumbent. *)

open Mcl_netlist
module Rect = Mcl_geom.Rect

(* same candidate, float-equal cost, same shift lists *)
let same_candidate a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.Mcl.Insertion.y0 = b.Mcl.Insertion.y0
    && a.Mcl.Insertion.x = b.Mcl.Insertion.x
    && Float.equal a.Mcl.Insertion.cost b.Mcl.Insertion.cost
    && a.Mcl.Insertion.lefts = b.Mcl.Insertion.lefts
    && a.Mcl.Insertion.rights = b.Mcl.Insertion.rights
  | _ -> false

(* the context an MGL run makes: segments and routability tables per
   [cfg], and a placement of the fixed cells *)
let flow_ctx ~disp_from cfg d =
  let segments =
    Mcl.Segment.build ~boundary_gap:(Mcl.Mgl.boundary_gap cfg d)
      ~respect_fences:cfg.Mcl.Config.consider_fences d
  in
  let routability =
    if cfg.Mcl.Config.consider_routability then Some (Mcl.Routability.create d)
    else None
  in
  let placement = Mcl.Placement.create d in
  Array.iter
    (fun (c : Cell.t) ->
       if c.Cell.is_fixed then Mcl.Placement.add placement c.Cell.id)
    d.Design.cells;
  Mcl.Insertion.make_ctx ~disp_from cfg d ~placement ~segments ~routability

(* Legalize [d] like Mgl.run_with_ctx, calling BOTH kernels on every
   window; false on the first divergence. The context comes back for
   its arena's counters. *)
let run ~disp_from cfg d =
  let ctx = flow_ctx ~disp_from cfg d in
  let die = Floorplan.die d.Design.floorplan in
  let ok = ref true in
  Array.iter
    (fun target ->
       if !ok then begin
         let tgt = d.Design.cells.(target) in
         let h = Design.height d tgt and w = Design.width d tgt in
         let rec attempt window tries =
           let r = Insertion_oracle.best ctx ~target ~window in
           let a = Mcl.Insertion.best ~check_pruning:true ctx ~target ~window in
           if not (same_candidate a r) then ok := false
           else
             match r with
             | Some cand -> Mcl.Insertion.apply ctx ~target cand
             | None ->
               if
                 tries < cfg.Mcl.Config.max_window_tries
                 && not (Rect.equal window die)
               then
                 attempt
                   (Mcl.Mgl.grow_window window ~die
                      ~factor:cfg.Mcl.Config.window_growth)
                   (tries + 1)
               else (
                 try Mcl.Mgl.place_fallback ctx target
                 with Mcl_analysis.Diagnostic.Failed _ -> ())
         in
         attempt
           (Mcl.Mgl.initial_window cfg d tgt ~h ~w
              ~util:ctx.Mcl.Insertion.utilization)
           0
       end)
    (Mcl.Mgl.default_order d);
  (!ok, ctx)
