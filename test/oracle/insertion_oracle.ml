(* Reference insertion-point evaluation (paper Sec. 3.1, Algorithm 1):
   the original cons-list implementation, kept as the oracle that
   [Lockstep.run] (test_insertion, kernel_parity) runs in lockstep with
   the arena kernel [Mcl.Insertion.best]. Both must agree bit for bit
   on every window —
   same candidate, float-equal cost, same shift lists — so every float
   operation here happens in the same order as in the kernel. Clarity
   over speed: Hashtbls, cons lists and a linear sub-span search. *)

module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist
open Mcl
open Insertion

(* ---------- window data ---------- *)

type subspan = {
  ss_lo : int;
  ss_hi : int;
  left_et : int option;   (* edge type of the bounding obstacle, if any *)
  right_et : int option;
}

type row_info = {
  subspans : subspan array;
  locs : int array;      (* local indices, sorted by x *)
  loc_ss : int array;    (* subspan index per entry of [locs] *)
}

type win_data = {
  ids : int array;                   (* local cell ids *)
  cur : int array;                   (* current x per local *)
  wid : int array;                   (* width per local *)
  et : int array;                    (* edge type per local *)
  gpx : int array;                   (* measured-from x per local *)
  c2 : int array;                    (* 2*x + w (center in half-sites) *)
  wgt : float array;
  occ : (int * int) list array;      (* local idx -> (row, pos in locs) *)
  row_lo : int;
  row_infos : row_info array;        (* indexed by row - row_lo *)
}

let spacing ctx ~l ~r =
  if ctx.config.Config.consider_routability then
    Floorplan.spacing ctx.design.Design.floorplan ~l ~r
  else 0

let build_window_data ctx ~target ~(window : Rect.t) =
  let design = ctx.design in
  let cells = design.Design.cells in
  let tgt = cells.(target) in
  let reg = Segment.region_of ctx.segments tgt in
  let row_lo = window.Rect.y.Interval.lo and row_hi = window.Rect.y.Interval.hi in
  (* Everything this window does must stay inside the window: the
     scheduler's determinism argument (Sec. 3.5) relies on disjoint
     windows touching disjoint cells. Clip free spans to the window;
     edges created by clipping get padded by the largest spacing rule,
     since the nearest outside obstacle is unknown. *)
  let win_lo = window.Rect.x.Interval.lo and win_hi = window.Rect.x.Interval.hi in
  let clip_pad =
    if ctx.config.Config.consider_routability then
      let t = design.Design.floorplan.Floorplan.edge_spacing in
      Array.fold_left (fun acc r -> Array.fold_left Int.max acc r) 0 t
    else 0
  in
  let clip (s : Interval.t) =
    let lo = if s.Interval.lo < win_lo then win_lo + clip_pad else s.Interval.lo in
    let hi = if s.Interval.hi > win_hi then win_hi - clip_pad else s.Interval.hi in
    if hi <= lo then None else Some (Interval.make lo hi)
  in
  let clipped_spans row =
    List.filter_map clip (Segment.spans ctx.segments ~row ~region:reg)
  in
  (* local cells: movable, same region, fully inside the window AND
     with every row's footprint inside a clipped span (cells in the
     clip padding strip are demoted to obstacles, consistently across
     all of their rows) *)
  let is_local = Hashtbl.create 64 in
  let ids = ref [] and count = ref 0 in
  for row = row_lo to row_hi - 1 do
    let arr, len = Placement.row_cells ctx.placement row in
    for i = 0 to len - 1 do
      let id = arr.(i) in
      if (not (Hashtbl.mem is_local id)) && id <> target then begin
        let c = cells.(id) in
        let r = Design.cell_rect design c in
        let covered_in row' =
          List.exists
            (fun (s : Interval.t) ->
               r.Rect.x.Interval.lo >= s.Interval.lo
               && r.Rect.x.Interval.hi <= s.Interval.hi)
            (clipped_spans row')
        in
        if (not c.Cell.is_fixed)
           && Segment.region_of ctx.segments c = reg
           && Rect.contains_rect window r
           && (let ok = ref true in
               for row' = r.Rect.y.Interval.lo to r.Rect.y.Interval.hi - 1 do
                 if not (covered_in row') then ok := false
               done;
               !ok)
        then begin
          Hashtbl.add is_local id !count;
          incr count;
          ids := id :: !ids
        end
      end
    done
  done;
  let ids = Array.of_list (List.rev !ids) in
  let n = Array.length ids in
  let cur = Array.map (fun id -> cells.(id).Cell.x) ids in
  let wid = Array.map (fun id -> Design.width design cells.(id)) ids in
  let et =
    Array.map (fun id -> (Design.cell_type design cells.(id)).Cell_type.edge_type) ids
  in
  let gpx =
    Array.map
      (fun id ->
         match ctx.disp_from with
         | `Gp -> cells.(id).Cell.gp_x
         | `Current -> cells.(id).Cell.x)
      ids
  in
  let c2 = Array.init n (fun i -> (2 * cur.(i)) + wid.(i)) in
  let wgt = Array.map (fun id -> ctx.weights.(id)) ids in
  let occ = Array.make n [] in
  let row_infos =
    Array.init (max 0 (row_hi - row_lo)) (fun off ->
        let row = row_lo + off in
        let arr, len = Placement.row_cells ctx.placement row in
        let locs = ref [] and obstacles = ref [] in
        for i = len - 1 downto 0 do
          let id = arr.(i) in
          match Hashtbl.find_opt is_local id with
          | Some li -> locs := li :: !locs
          | None ->
            let c = cells.(id) in
            let w = Design.width design c in
            obstacles :=
              (c.Cell.x, c.Cell.x + w,
               (Design.cell_type design c).Cell_type.edge_type)
              :: !obstacles
        done;
        let locs = Array.of_list !locs in
        let obstacles = !obstacles in
        (* Cut the clipped spans by the obstacles. An obstacle ending
           at (or within one spacing rule of) a span edge still
           constrains the first cell placed there — clipping can strand
           such obstacles just outside the span — so its edge type is
           absorbed into the boundary. *)
        let subspans = ref [] in
        List.iter
          (fun (s : Interval.t) ->
             let cur_lo = ref s.Interval.lo and cur_et = ref None in
             let tail_et = ref None in
             List.iter
               (fun (ox, oxhi, oet) ->
                  if oxhi > s.Interval.lo && ox < s.Interval.hi then begin
                    if ox > !cur_lo then
                      subspans :=
                        { ss_lo = !cur_lo; ss_hi = min ox s.Interval.hi;
                          left_et = !cur_et; right_et = Some oet }
                        :: !subspans;
                    if oxhi > !cur_lo then begin
                      cur_lo := oxhi;
                      cur_et := Some oet
                    end
                  end
                  else if oxhi > s.Interval.lo - clip_pad && oxhi <= !cur_lo
                          && ox < !cur_lo then begin
                    (* ends at/just left of the current boundary *)
                    if !cur_et = None then cur_et := Some oet
                  end
                  else if ox >= s.Interval.hi && ox < s.Interval.hi + clip_pad
                  then begin
                    (* begins at/just right of the span end *)
                    if !tail_et = None then tail_et := Some oet
                  end)
               obstacles;
             if !cur_lo < s.Interval.hi then
               subspans :=
                 { ss_lo = !cur_lo; ss_hi = s.Interval.hi; left_et = !cur_et;
                   right_et = !tail_et }
                 :: !subspans)
          (clipped_spans row);
        let subspans = Array.of_list (List.rev !subspans) in
        let loc_ss =
          Array.map
            (fun li ->
               let x = cur.(li) in
               let rec find k =
                 if k >= Array.length subspans then -1
                 else if subspans.(k).ss_lo <= x && x < subspans.(k).ss_hi then k
                 else find (k + 1)
               in
               find 0)
            locs
        in
        Array.iteri (fun pos li -> occ.(li) <- (row, pos) :: occ.(li)) locs;
        { subspans; locs; loc_ss })
  in
  { ids; cur; wid; et; gpx; c2; wgt; occ; row_lo; row_infos }

(* ---------- common intervals ---------- *)

(* For rows y0 .. y0+h-1, maximal x-intervals where every row is covered
   by exactly one sub-span; returns (lo, hi, subspan index per row). *)
let common_intervals wd ~y0 ~h =
  let infos = Array.init h (fun k -> wd.row_infos.(y0 + k - wd.row_lo)) in
  let bounds = ref [] in
  Array.iter
    (fun info ->
       Array.iter
         (fun ss ->
            bounds := ss.ss_lo :: ss.ss_hi :: !bounds)
         info.subspans)
    infos;
  let bounds = List.sort_uniq Int.compare !bounds in
  let rec pairs acc = function
    | a :: (b :: _ as rest) ->
      let covering =
        Array.map
          (fun info ->
             let rec find k =
               if k >= Array.length info.subspans then -1
               else if info.subspans.(k).ss_lo <= a && b <= info.subspans.(k).ss_hi
               then k
               else find (k + 1)
             in
             find 0)
          infos
      in
      let acc =
        if Array.for_all (fun k -> k >= 0) covering then (a, b, covering) :: acc
        else acc
      in
      pairs acc rest
    | [ _ ] | [] -> List.rev acc
  in
  pairs [] bounds

(* ---------- per-cut evaluation ---------- *)

(* Sorted local indices by current x ascending (stable by idx). *)
let order_by_x wd =
  let idxs = Array.init (Array.length wd.ids) (fun i -> i) in
  Array.sort (fun a b -> compare (wd.cur.(a), a) (wd.cur.(b), b)) idxs;
  idxs

type eval_ctx = {
  wd : win_data;
  h : int;
  y0 : int;
  ci_ss : int array;  (* chosen subspan index per target row offset *)
  t_wid : int;
  t_et : int;
  order : int array;  (* locals by x ascending *)
}

let target_row_offset ec row = row - ec.y0

let is_target_row ec row = row >= ec.y0 && row < ec.y0 + ec.h

(* chosen subspan index of a target row, -1 otherwise *)
let chosen_ss ec row =
  if is_target_row ec row then ec.ci_ss.(target_row_offset ec row) else -1

let evaluate ctx ec ~cut ~target =
  let wd = ec.wd in
  let n = Array.length wd.ids in
  let is_left i = wd.c2.(i) < cut in
  let sp l r = spacing ctx ~l ~r in
  let info row = wd.row_infos.(row - wd.row_lo) in
  (* --- feasibility DPs (m: left compaction, M: right compaction) --- *)
  let m = Array.make n min_int in
  Array.iter
    (fun i ->
       if is_left i then begin
         let best = ref min_int in
         List.iter
           (fun (row, pos) ->
              let ri = info row in
              let ss = ri.subspans.(ri.loc_ss.(pos)) in
              let cand =
                let rec prev p =
                  if p < 0 then None
                  else
                    let k = ri.locs.(p) in
                    if ri.loc_ss.(p) = ri.loc_ss.(pos) then
                      if is_left k then Some k else prev (p - 1)
                    else None
                in
                match prev (pos - 1) with
                | Some k -> m.(k) + wd.wid.(k) + sp wd.et.(k) wd.et.(i)
                | None ->
                  ss.ss_lo
                  + (match ss.left_et with Some e -> sp e wd.et.(i) | None -> 0)
              in
              if cand > !best then best := cand)
           wd.occ.(i);
         m.(i) <- !best
       end)
    ec.order;
  let bigM = Array.make n max_int in
  for oi = n - 1 downto 0 do
    let i = ec.order.(oi) in
    if not (is_left i) then begin
      let best = ref max_int in
      List.iter
        (fun (row, pos) ->
           let ri = info row in
           let my_ss = ri.loc_ss.(pos) in
           let ss = ri.subspans.(my_ss) in
           let next_right =
             let next p =
               if p >= Array.length ri.locs then None
               else if ri.loc_ss.(p) <> my_ss then None
               else Some ri.locs.(p)
             in
             next (pos + 1)
           in
           let cand =
             match next_right with
             | Some k -> bigM.(k) - wd.wid.(i) - sp wd.et.(i) wd.et.(k)
             | None ->
               ss.ss_hi - wd.wid.(i)
               - (match ss.right_et with Some e -> sp wd.et.(i) e | None -> 0)
           in
           if cand < !best then best := cand)
        wd.occ.(i);
      bigM.(i) <- !best
    end
  done;
  (* --- feasible range of the target --- *)
  let lo = ref min_int and hi = ref max_int in
  for k = 0 to ec.h - 1 do
    let row = ec.y0 + k in
    let ri = info row in
    let ssk = ec.ci_ss.(k) in
    let ss = ri.subspans.(ssk) in
    let last_left = ref (-1) and first_right = ref (-1) in
    Array.iteri
      (fun p li ->
         if ri.loc_ss.(p) = ssk then
           if is_left li then last_left := li
           else if !first_right < 0 then first_right := li)
      ri.locs;
    let lo_r =
      if !last_left >= 0 then
        m.(!last_left) + wd.wid.(!last_left) + sp wd.et.(!last_left) ec.t_et
      else
        ss.ss_lo + (match ss.left_et with Some e -> sp e ec.t_et | None -> 0)
    in
    let hi_r =
      if !first_right >= 0 then
        bigM.(!first_right) - ec.t_wid - sp ec.t_et wd.et.(!first_right)
      else
        ss.ss_hi - ec.t_wid
        - (match ss.right_et with Some e -> sp ec.t_et e | None -> 0)
    in
    if lo_r > !lo then lo := lo_r;
    if hi_r < !hi then hi := hi_r
  done;
  if !lo > !hi then None
  else begin
    (* --- push-distance DPs, only for feasible candidates --- *)
    let d = Array.make n (-1) in
    for oi = n - 1 downto 0 do
      let i = ec.order.(oi) in
      if is_left i then begin
        let best = ref (-1) in
        List.iter
          (fun (row, pos) ->
             let ri = info row in
             let my_ss = ri.loc_ss.(pos) in
             let next_left =
               let next p =
                 if p >= Array.length ri.locs then None
                 else if ri.loc_ss.(p) <> my_ss then None
                 else
                   let k = ri.locs.(p) in
                   if is_left k then Some k else None
               in
               next (pos + 1)
             in
             (match next_left with
              | Some k ->
                if d.(k) >= 0 then begin
                  let cand = d.(k) + wd.wid.(i) + sp wd.et.(i) wd.et.(k) in
                  if cand > !best then best := cand
                end
              | None ->
                if chosen_ss ec row = my_ss then begin
                  let cand = wd.wid.(i) + sp wd.et.(i) ec.t_et in
                  if cand > !best then best := cand
                end))
          wd.occ.(i);
        d.(i) <- !best
      end
    done;
    let dr = Array.make n (-1) in
    Array.iter
      (fun i ->
         if not (is_left i) then begin
           let best = ref (-1) in
           List.iter
             (fun (row, pos) ->
                let ri = info row in
                let my_ss = ri.loc_ss.(pos) in
                let prev_right =
                  let prev p =
                    if p < 0 then None
                    else if ri.loc_ss.(p) <> my_ss then None
                    else
                      let k = ri.locs.(p) in
                      if is_left k then None else Some k
                  in
                  prev (pos - 1)
                in
                (match prev_right with
                 | Some k ->
                   if dr.(k) >= 0 then begin
                     let cand = dr.(k) + wd.wid.(k) + sp wd.et.(k) wd.et.(i) in
                     if cand > !best then best := cand
                   end
                 | None ->
                   if chosen_ss ec row = my_ss then begin
                     let cand = ec.t_wid + sp ec.t_et wd.et.(i) in
                     if cand > !best then best := cand
                   end))
             wd.occ.(i);
           dr.(i) <- !best
         end)
      ec.order;
    (* --- displacement curve --- *)
    let tgt = ctx.design.Design.cells.(target) in
    let fp = ctx.design.Design.floorplan in
    let curve = Curve.create () in
    Curve.add_target curve ~weight:ctx.weights.(target) ~gp:tgt.Cell.gp_x;
    let y_cost_per_row =
      float_of_int fp.Floorplan.row_height /. float_of_int fp.Floorplan.site_width
    in
    Curve.add_const curve
      (ctx.weights.(target)
       *. float_of_int (abs (ec.y0 - tgt.Cell.gp_y))
       *. y_cost_per_row);
    (* Each shiftable local contributes its displacement relative to
       today's placement (|p(x) - gp| - |cur - gp|), so candidates with
       different local-cell sets compare on equal footing. *)
    for i = 0 to n - 1 do
      let baseline () =
        Curve.add_const curve
          (-.(wd.wgt.(i) *. float_of_int (abs (wd.cur.(i) - wd.gpx.(i)))))
      in
      if is_left i then begin
        if d.(i) >= 0 then begin
          Curve.add_left curve ~weight:wd.wgt.(i) ~cur:wd.cur.(i) ~gp:wd.gpx.(i)
            ~dist:d.(i);
          baseline ()
        end
      end
      else if dr.(i) >= 0 then begin
        Curve.add_right curve ~weight:wd.wgt.(i) ~cur:wd.cur.(i) ~gp:wd.gpx.(i)
          ~dist:dr.(i);
        baseline ()
      end
    done;
    let x_star, base_cost = Curve.minimize curve ~lo:!lo ~hi:!hi in
    (* --- routability adjustments --- *)
    let type_id = tgt.Cell.type_id in
    let result =
      match ctx.routability with
      | None -> Some (x_star, base_cost)
      | Some r ->
        let x_final =
          if Routability.x_ok r ~type_id ~x:x_star then Some x_star
          else Routability.nearest_ok_x r ~type_id ~x:x_star ~lo:!lo ~hi:!hi
        in
        (match x_final with
         | None -> None
         | Some x ->
           let cost = if x = x_star then base_cost else Curve.eval curve x in
           let io = Routability.io_conflicts r ~type_id ~x ~y:ec.y0 in
           (* one IO conflict costs as much as ~12 sites of movement *)
           let penalty = 12.0 *. ctx.weights.(target) *. float_of_int io in
           Some (x, cost +. penalty))
    in
    match result with
    | None -> None
    | Some (x, cost) ->
      let lefts = ref [] and rights = ref [] in
      for i = 0 to n - 1 do
        if is_left i then begin
          if d.(i) >= 0 then lefts := { cell = wd.ids.(i); dist = d.(i) } :: !lefts
        end
        else if dr.(i) >= 0 then
          rights := { cell = wd.ids.(i); dist = dr.(i) } :: !rights
      done;
      Some { y0 = ec.y0; x; cost; lefts = !lefts; rights = !rights }
  end

(* ---------- candidate enumeration ---------- *)

let parity_ok h y0 = h mod 2 = 1 || y0 mod 2 = 0

(* Cheapest insertion of [target] within [window]; the same contract as
   [Insertion.best]. *)
let best ctx ~target ~window =
  let design = ctx.design in
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt in
  let w_t = Design.width design tgt in
  let t_et = (Design.cell_type design tgt).Cell_type.edge_type in
  let fp = design.Design.floorplan in
  let window = Rect.inter window (Floorplan.die fp) in
  if Rect.is_empty window then None
  else begin
    let wd = build_window_data ctx ~target ~window in
    let order = order_by_x wd in
    let best_cand = ref None in
    let consider cand =
      match !best_cand with
      | Some b when b.cost <= cand.cost -> ()
      | Some _ | None -> best_cand := Some cand
    in
    let y_min = window.Rect.y.Interval.lo in
    let y_max = min (window.Rect.y.Interval.hi - h) (fp.Floorplan.num_rows - h) in
    for y0 = y_min to y_max do
      let row_feasible =
        parity_ok h y0
        && (match ctx.routability with
            | None -> true
            | Some r -> Routability.row_ok r ~type_id:tgt.Cell.type_id ~y:y0)
      in
      if row_feasible then
        List.iter
          (fun (ci_lo, ci_hi, ci_ss) ->
             if ci_hi - ci_lo >= 1 then begin
               (* quick prune: every target row must have enough free
                  width in its chosen sub-span for the target *)
               let enough_room =
                 let ok = ref true in
                 for k = 0 to h - 1 do
                   let ri = wd.row_infos.(y0 + k - wd.row_lo) in
                   let ssk = ci_ss.(k) in
                   let ss = ri.subspans.(ssk) in
                   let used = ref 0 in
                   Array.iteri
                     (fun p li -> if ri.loc_ss.(p) = ssk then used := !used + wd.wid.(li))
                     ri.locs;
                   if ss.ss_hi - ss.ss_lo - !used < w_t then ok := false
                 done;
                 !ok
               in
               if enough_room then begin
                 let ec = { wd; h; y0; ci_ss; t_wid = w_t; t_et; order } in
                 (* cuts: around every local center in the chosen subspans
                    of the target rows, plus the target's own GP center;
                    capped to the nearest ones to keep dense windows fast *)
                 let gp_c2 = (2 * tgt.Cell.gp_x) + w_t in
                 let cuts = ref [ gp_c2 ] in
                 for k = 0 to h - 1 do
                   let ri = wd.row_infos.(y0 + k - wd.row_lo) in
                   Array.iteri
                     (fun p li ->
                        if ri.loc_ss.(p) = ci_ss.(k) then
                          cuts := wd.c2.(li) :: (wd.c2.(li) + 1) :: !cuts)
                     ri.locs
                 done;
                 let cuts = List.sort_uniq Int.compare !cuts in
                 let cuts =
                   let arr = Array.of_list cuts in
                   Array.sort
                     (fun a b -> compare (abs (a - gp_c2), a) (abs (b - gp_c2), b))
                     arr;
                   Array.to_list (Array.sub arr 0 (min 17 (Array.length arr)))
                 in
                 List.iter
                   (fun cut ->
                      match evaluate ctx ec ~cut ~target with
                      | Some cand -> consider cand
                      | None -> ())
                   cuts
               end
             end)
          (common_intervals wd ~y0 ~h)
    done;
    !best_cand
  end
