module Rect = Mcl_geom.Rect
module Interval = Mcl_geom.Interval
module Curve = Mcl.Curve
module Insertion = Mcl.Insertion
module Placement = Mcl.Placement
module Segment = Mcl.Segment
module Routability = Mcl.Routability
module Arena = Mcl.Arena
module I = Arena.Ibuf
module Budget = Mcl_resilience.Budget
open Mcl_netlist

type verdict = Proven | Budget_exhausted

type pos = { px : int; py : int; pcost : float }

type move = { mv_cell : int; mv_x : int; mv_y : int }

(* Sub-span of a free span after cutting by obstacles, as
   Insertion.row_subspans builds it; [ss_let] / [ss_ret] are the edge
   types of the bounding obstacles (-1 when the boundary is a span or
   window edge). *)
type subspan = { ss_lo : int; ss_hi : int; ss_let : int; ss_ret : int }

type t = {
  ctx : Insertion.ctx;
  order : int array;  (* instance cell ids, solve order *)
  widths : int array;
  heights : int array;
  ets : int array;
  regions : int array;
  rows_of : subspan array array array;
      (* per slot: window row offset -> sub-spans of the slot's region
         (slots of one region share the physical array) *)
  cands : pos array array;
  suffix : float array;  (* suffix.(k) = sum of per-slot curve minima, j >= k *)
  row_lo : int;
  baseline : float;
}

let build (ctx : Insertion.ctx) ~window ~cells:cell_ids =
  let design = ctx.Insertion.design in
  let cells = design.Design.cells in
  let fp = design.Design.floorplan in
  let num_cells = Design.num_cells design in
  let ids = List.sort_uniq Int.compare cell_ids in
  List.iter
    (fun id ->
       if id < 0 || id >= num_cells then
         invalid_arg "Solver.build: cell id out of range";
       if cells.(id).Cell.is_fixed then
         invalid_arg "Solver.build: fixed instance cell")
    ids;
  (* solve order: tallest first, then widest, then id *)
  let order =
    Array.of_list
      (List.sort
         (fun a b ->
            let ha = Design.height design cells.(a)
            and hb = Design.height design cells.(b) in
            let c = Int.compare hb ha in
            if c <> 0 then c
            else
              let wa = Design.width design cells.(a)
              and wb = Design.width design cells.(b) in
              let c = Int.compare wb wa in
              if c <> 0 then c else Int.compare a b)
         ids)
  in
  let n = Array.length order in
  let widths = Array.map (fun id -> Design.width design cells.(id)) order in
  let heights = Array.map (fun id -> Design.height design cells.(id)) order in
  let ets =
    Array.map
      (fun id -> (Design.cell_type design cells.(id)).Cell_type.edge_type)
      order
  in
  let regions =
    Array.map (fun id -> Segment.region_of ctx.Insertion.segments cells.(id)) order
  in
  let row_lo = window.Rect.y.Interval.lo
  and row_hi = window.Rect.y.Interval.hi in
  let win_lo = window.Rect.x.Interval.lo
  and win_hi = window.Rect.x.Interval.hi in
  (* The kernel's sub-spans with the instance cells as its locals:
     marked, so that only the cells outside the instance cut spans.
     The scratch is the context's arena, which holds nothing between
     kernel calls. *)
  let a = ctx.Insertion.arena in
  let marks = a.Arena.marks in
  Arena.Marks.ensure marks num_cells;
  Arena.Marks.next_epoch marks;
  List.iter (fun id -> Arena.Marks.set marks id 0) ids;
  let rowdata_of_region reg =
    Insertion.clip_spans ctx a ~region:reg ~window;
    Array.init (Int.max 0 (row_hi - row_lo)) (fun off ->
        List.iter I.clear
          [ a.Arena.locs; a.Arena.ss_lo; a.Arena.ss_hi; a.Arena.ss_let;
            a.Arena.ss_ret ];
        Insertion.row_subspans ctx a ~off ~row:(row_lo + off) ~win_lo ~win_hi;
        Array.init a.Arena.ss_lo.I.len (fun k ->
            { ss_lo = a.Arena.ss_lo.I.a.(k); ss_hi = a.Arena.ss_hi.I.a.(k);
              ss_let = a.Arena.ss_let.I.a.(k); ss_ret = a.Arena.ss_ret.I.a.(k) }))
  in
  let region_rows = ref [] in
  let rows_for reg =
    match List.assoc_opt reg !region_rows with
    | Some r -> r
    | None ->
      let r = rowdata_of_region reg in
      region_rows := (reg, r) :: !region_rows;
      r
  in
  let rows_of = Array.map rows_for regions in
  let sp l r = Insertion.spacing ctx ~l ~r in
  let y_cost_per_row =
    float_of_int fp.Floorplan.row_height /. float_of_int fp.Floorplan.site_width
  in
  (* Per-slot candidate enumeration + curve minima.  Anchors follow
     the kernel: placed cells measure per [disp_from], unplaced ones
     from GP. *)
  let cands = Array.make n [||] in
  let minima = Array.make n infinity in
  let cost_curves = Array.init n (fun _ -> Curve.create ()) in
  let anchors =
    Array.map
      (fun id ->
         let c = cells.(id) in
         if Placement.mem ctx.Insertion.placement id then
           match ctx.Insertion.disp_from with
           | `Gp -> (c.Cell.gp_x, c.Cell.gp_y)
           | `Current -> (c.Cell.x, c.Cell.y)
         else (c.Cell.gp_x, c.Cell.gp_y))
      order
  in
  let inter_lists a b =
    let rec go a b acc =
      match a, b with
      | [], _ | _, [] -> List.rev acc
      | (al, ah) :: ta, (bl, bh) :: tb ->
        let lo = Int.max al bl and hi = Int.min ah bh in
        let acc = if hi >= lo then (lo, hi) :: acc else acc in
        if ah < bh then go ta b acc else go a tb acc
    in
    go a b []
  in
  for i = 0 to n - 1 do
    let id = order.(i) in
    let c = cells.(id) in
    let w = widths.(i) and h = heights.(i) and et = ets.(i) in
    let type_id = c.Cell.type_id in
    let ax, ay = anchors.(i) in
    let wgt = ctx.Insertion.weights.(id) in
    let curve = cost_curves.(i) in
    Curve.add_target curve ~weight:wgt ~gp:ax;
    let cost_at ~x ~y0 =
      Insertion.penalized ctx ~cell:id ~x ~y0
        (Curve.eval curve x
         +. (wgt *. float_of_int (abs (y0 - ay)) *. y_cost_per_row))
    in
    let rows = rows_of.(i) in
    let acc = ref [] in
    let y_max = Int.min (row_hi - h) (fp.Floorplan.num_rows - h) in
    for y0 = row_lo to y_max do
      let row_feasible =
        Insertion.parity_ok h y0
        && (match ctx.Insertion.routability with
            | None -> true
            | Some r -> Routability.row_ok r ~type_id ~y:y0)
      in
      if row_feasible then begin
        (* padded intervals per row, then intersect across the h rows *)
        let intervals_of k =
          let subs = rows.(y0 + k - row_lo) in
          let out = ref [] in
          for s = Array.length subs - 1 downto 0 do
            let ss = subs.(s) in
            let lo =
              ss.ss_lo + (if ss.ss_let >= 0 then sp ss.ss_let et else 0)
            in
            let hi =
              ss.ss_hi - w - (if ss.ss_ret >= 0 then sp et ss.ss_ret else 0)
            in
            if hi >= lo then out := (lo, hi) :: !out
          done;
          !out
        in
        let common = ref (intervals_of 0) in
        for k = 1 to h - 1 do
          common := inter_lists !common (intervals_of k)
        done;
        List.iter
          (fun (lo, hi) ->
             (* curve minimum over the interval — the DP lower bound
                contribution of this (row, interval) choice *)
             let _, cmin = Curve.minimize curve ~lo ~hi in
             let lbound =
               cmin +. (wgt *. float_of_int (abs (y0 - ay)) *. y_cost_per_row)
             in
             if lbound < minima.(i) then minima.(i) <- lbound;
             for x = lo to hi do
               let x_feasible =
                 match ctx.Insertion.routability with
                 | None -> true
                 | Some r -> Routability.x_ok r ~type_id ~x
               in
               if x_feasible then
                 acc := { px = x; py = y0; pcost = cost_at ~x ~y0 } :: !acc
             done)
          !common
      end
    done;
    let arr = Array.of_list !acc in
    Array.sort
      (fun a b ->
         let c = Float.compare a.pcost b.pcost in
         if c <> 0 then c
         else
           let c = Int.compare a.py b.py in
           if c <> 0 then c else Int.compare a.px b.px)
      arr;
    cands.(i) <- arr;
    if Array.length arr = 0 then minima.(i) <- infinity
  done;
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- minima.(i) +. suffix.(i + 1)
  done;
  let baseline = ref 0.0 in
  for i = 0 to n - 1 do
    let id = order.(i) in
    if Placement.mem ctx.Insertion.placement id then begin
      let c = cells.(id) in
      let ax, ay = anchors.(i) in
      let wgt = ctx.Insertion.weights.(id) in
      let x = c.Cell.x and y0 = c.Cell.y in
      baseline :=
        !baseline
        +. Insertion.penalized ctx ~cell:id ~x ~y0
             ((wgt *. float_of_int (abs (x - ax)))
              +. (wgt *. float_of_int (abs (y0 - ay)) *. y_cost_per_row))
    end
  done;
  { ctx; order; widths; heights; ets; regions; rows_of; cands; suffix; row_lo;
    baseline = !baseline }

let order t = t.order
let candidates t i = Array.copy t.cands.(i)
let baseline_cost t = t.baseline

let subspan_at subs x =
  let rec go k =
    if k >= Array.length subs then -1
    else if subs.(k).ss_lo <= x && x < subs.(k).ss_hi then k
    else go (k + 1)
  in
  go 0

let compatible t i pa j pb =
  let ha = t.heights.(i) and hb = t.heights.(j) in
  if pa.py + ha <= pb.py || pb.py + hb <= pa.py then true
  else begin
    (* shared rows: order left-to-right *)
    let i, pa, j, pb =
      if pa.px <= pb.px then i, pa, j, pb else j, pb, i, pa
    in
    let wa = t.widths.(i) in
    let gap = pb.px - (pa.px + wa) in
    if gap < 0 then false
    else if t.regions.(i) <> t.regions.(j) then true
    else begin
      let req = Insertion.spacing t.ctx ~l:t.ets.(i) ~r:t.ets.(j) in
      if gap >= req then true
      else begin
        (* closer than the spacing rule: legal only if an obstacle
           separates them (different sub-spans) in every shared row *)
        let ylo = Int.max pa.py pb.py in
        let yhi = Int.min (pa.py + t.heights.(i)) (pb.py + t.heights.(j)) in
        let rows = t.rows_of.(i) in
        let ok = ref true in
        for y = ylo to yhi - 1 do
          let subs = rows.(y - t.row_lo) in
          if subspan_at subs pa.px = subspan_at subs pb.px then ok := false
        done;
        !ok
      end
    end
  end

type result = {
  verdict : verdict;
  best_cost : float;
  moves : move list;
  nodes : int;
  root_bound : float;
}

exception Out_of_nodes

let solve ?budget ?(upper_bound = infinity) ?(max_nodes = 500_000) t =
  let n = Array.length t.order in
  let nodes = ref 0 in
  let best = ref upper_bound in
  let have_best = ref false in
  let dummy = { px = 0; py = 0; pcost = 0.0 } in
  let cur = Array.make (Int.max n 1) dummy in
  let best_sel = Array.make (Int.max n 1) dummy in
  let rec go k acc =
    if k = n then begin
      if acc < !best then begin
        best := acc;
        have_best := true;
        Array.blit cur 0 best_sel 0 n
      end
    end
    else begin
      let cs = t.cands.(k) in
      let m = Array.length cs in
      let stop = ref false in
      let ci = ref 0 in
      while not !stop && !ci < m do
        let c = cs.(!ci) in
        incr nodes;
        if !nodes land 1023 = 0 then Budget.check budget;
        if !nodes >= max_nodes then raise Out_of_nodes;
        let lb = acc +. c.pcost +. t.suffix.(k + 1) in
        (* the kernel's float-safety margin: candidates are cost-sorted,
           so once the bound clears the incumbent the rest follow *)
        let margin =
          1e-6 +. (1e-9 *. (Float.abs lb +. Float.abs !best))
        in
        if lb > !best +. margin then stop := true
        else begin
          let feas = ref true in
          let p = ref 0 in
          while !feas && !p < k do
            if not (compatible t !p cur.(!p) k c) then feas := false;
            incr p
          done;
          if !feas then begin
            cur.(k) <- c;
            go (k + 1) (acc +. c.pcost)
          end;
          incr ci
        end
      done
    end
  in
  let verdict =
    try
      go 0 0.0;
      Proven
    with Out_of_nodes -> Budget_exhausted
  in
  let moves =
    if !have_best then
      List.init n (fun k ->
          { mv_cell = t.order.(k); mv_x = best_sel.(k).px;
            mv_y = best_sel.(k).py })
    else []
  in
  { verdict;
    best_cost = (if !have_best then !best else infinity);
    moves;
    nodes = !nodes;
    root_bound = (if n = 0 then 0.0 else t.suffix.(0)) }
