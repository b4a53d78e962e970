module Rect = Mcl_geom.Rect
module Interval = Mcl_geom.Interval
module Insertion = Mcl.Insertion
module Placement = Mcl.Placement
module Budget = Mcl_resilience.Budget
module Score = Mcl_eval.Score
module Legality = Mcl_eval.Legality
module Windows = Mcl_eval.Windows
open Mcl_netlist

type outcome = {
  o_window : Rect.t;
  o_seed : int;
  o_cells : int;
  o_before : float;
  o_after : float;
  o_verdict : Solver.verdict;
  o_nodes : int;
  o_accepted : bool;
}

type stats = {
  windows : int;
  accepted : int;
  proven : int;
  budget_exhausted : int;
  nodes : int;
  subopt_cost : float;
  score_before : float;
  score_after : float;
  outcomes : outcome list;
}

let default_halfwidth = 12
let default_halfheight = 2

(* Movable cells wholly inside the window, away from the clip-pad
   strips at the window's x-edges (ctx.clip_pad wide; Insertion's
   clipped spans leave them out, so cells there are obstacles),
   nearest-to-seed first.  The seed is always an instance cell.  Only
   the window's rows are read from the context's placement, which
   holds every cell; a cell is taken on its bottom row. *)
let select_cells (ctx : Insertion.ctx) ~(window : Rect.t) ~seed ~max_cells =
  let design = ctx.Insertion.design in
  let placement = ctx.Insertion.placement in
  let fp = design.Design.floorplan in
  let pad = ctx.Insertion.clip_pad in
  let xl = window.Rect.x.Interval.lo + pad
  and xh = window.Rect.x.Interval.hi - pad in
  let sw = fp.Floorplan.site_width and rh = fp.Floorplan.row_height in
  let anchor = design.Design.cells.(seed) in
  let ax = anchor.Cell.x and ay = anchor.Cell.y in
  let others = ref [] in
  for row = max 0 window.Rect.y.Interval.lo
      to min fp.Floorplan.num_rows window.Rect.y.Interval.hi - 1 do
    let arr, _ = Placement.row_cells placement row in
    let first, last = Placement.x_range placement ~row ~lo:xl ~hi:xh in
    for i = first to last - 1 do
      let c = design.Design.cells.(arr.(i)) in
      if c.Cell.y = row && (not c.Cell.is_fixed) && c.Cell.id <> seed then begin
        let r = Design.cell_rect design c in
        if Rect.contains_rect window r && r.Rect.x.Interval.hi <= xh then begin
          let d =
            (abs (c.Cell.x - ax) * sw) + (abs (c.Cell.y - ay) * rh)
          in
          others := (d, c.Cell.id) :: !others
        end
      end
    done
  done;
  let others =
    List.sort
      (fun (da, ia) (db, ib) ->
         let c = Int.compare da db in
         if c <> 0 then c else Int.compare ia ib)
      !others
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | (_, id) :: tl -> id :: take (n - 1) tl
  in
  seed :: take (max_cells - 1) others

(* Move cells through the context: its placement stays current and
   its undo log (when it has one) sees every move. *)
let apply_moves (ctx : Insertion.ctx) moves =
  let design = ctx.Insertion.design and placement = ctx.Insertion.placement in
  List.iter
    (fun (m : Solver.move) ->
       if Placement.mem placement m.mv_cell then
         Placement.remove placement m.mv_cell)
    moves;
  List.iter
    (fun (m : Solver.move) ->
       let c = design.Design.cells.(m.mv_cell) in
       Insertion.log_move ctx c;
       c.Cell.x <- m.mv_x;
       c.Cell.y <- m.mv_y)
    moves;
  List.iter (fun (m : Solver.move) -> Placement.add placement m.mv_cell) moves

let run ?budget ?(node_budget = 200_000) ?(max_cells = 10)
    ?(halfwidth = default_halfwidth) ?(halfheight = default_halfheight)
    ~k ~gp_hpwl (ctx : Insertion.ctx) =
  let design = ctx.Insertion.design in
  Insertion.clear_log ctx;
  let score0 = Score.evaluate ~gp_hpwl design in
  if k <= 0 then
    { windows = 0; accepted = 0; proven = 0; budget_exhausted = 0; nodes = 0;
      subopt_cost = 0.0; score_before = score0.Score.score;
      score_after = score0.Score.score; outcomes = [] }
  else begin
    let cur_score = ref score0.Score.score in
    let cur_vio = ref (List.length (Legality.check design)) in
    let accepted = ref 0 and proven = ref 0 and exhausted = ref 0 in
    let nodes = ref 0 and subopt = ref 0.0 in
    let outcomes = ref [] in
    List.iter
      (fun (w : Windows.worst) ->
         let seed = w.Windows.w_cell and window = w.Windows.w_window in
         Budget.check budget;
         let inst = select_cells ctx ~window ~seed ~max_cells in
         let t = Solver.build ctx ~window ~cells:inst in
         let before = Solver.baseline_cost t in
         let res =
           Solver.solve ?budget ~upper_bound:before ~max_nodes:node_budget t
         in
         nodes := !nodes + res.Solver.nodes;
         (match res.Solver.verdict with
          | Solver.Proven ->
            incr proven;
            if res.Solver.best_cost < before then
              subopt := !subopt +. (before -. res.Solver.best_cost)
          | Solver.Budget_exhausted -> incr exhausted);
         let improves =
           res.Solver.best_cost < before -. 1e-6
           && res.Solver.moves <> []
         in
         let acc =
           if not improves then false
           else begin
             let prev =
               List.map
                 (fun (m : Solver.move) ->
                    let c = design.Design.cells.(m.mv_cell) in
                    { Solver.mv_cell = m.Solver.mv_cell; mv_x = c.Cell.x;
                      mv_y = c.Cell.y })
                 res.Solver.moves
             in
             apply_moves ctx res.Solver.moves;
             let vio = List.length (Legality.check design) in
             let score = (Score.evaluate ~gp_hpwl design).Score.score in
             if vio <= !cur_vio && score <= !cur_score then begin
               cur_vio := vio;
               cur_score := score;
               true
             end
             else begin
               apply_moves ctx prev;
               false
             end
           end
         in
         if acc then incr accepted;
         outcomes :=
           { o_window = window; o_seed = seed;
             o_cells = List.length inst; o_before = before;
             o_after = (if acc then res.Solver.best_cost else before);
             o_verdict = res.Solver.verdict; o_nodes = res.Solver.nodes;
             o_accepted = acc }
           :: !outcomes)
      (Windows.worst_cells ~k ~halfwidth ~halfheight design);
    { windows = List.length !outcomes; accepted = !accepted; proven = !proven;
      budget_exhausted = !exhausted; nodes = !nodes; subopt_cost = !subopt;
      score_before = score0.Score.score; score_after = !cur_score;
      outcomes = List.rev !outcomes }
  end
