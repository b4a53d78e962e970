module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist

type ctx = {
  design : Design.t;
  placement : Placement.t;
  segments : Segment.t;
  config : Config.t;
  routability : Routability.t option;
  disp_from : [ `Gp | `Current ];
  weights : float array;
  utilization : float;
  reach : int;
  clip_pad : int;
  arena : Arena.t;
  log : Arena.Ibuf.t option;
}

let utilization design =
  let fp = design.Design.floorplan in
  let die_area = fp.Floorplan.num_sites * fp.Floorplan.num_rows in
  let used =
    Array.fold_left
      (fun acc (c : Cell.t) ->
         acc + (Design.width design c * Design.height design c))
      0 design.Design.cells
  in
  float_of_int used /. float_of_int (max 1 die_area)

let make_ctx ?(disp_from = `Gp) config design ~placement ~segments
    ~routability =
  { design; placement; segments; config; routability; disp_from;
    utilization = utilization design; arena = Arena.create (); log = None;
    clip_pad =
      (if config.Config.consider_routability then
         Floorplan.max_spacing design.Design.floorplan
       else 0);
    (* widest cell type, fixed macros included: a cell ending after
       site x starts after x - reach *)
    reach =
      Array.fold_left
        (fun acc (ct : Cell_type.t) -> Int.max acc ct.Cell_type.width)
        0 design.Design.cell_types;
    weights =
      (match config.Config.objective with
       | Config.Total -> Array.make (Design.num_cells design) 1.0
       | Config.Average_weighted ->
         (* Eq. 2 weights each height class by 1/|C_h|; normalize by
            |C_1| so typical weights stay near 1. *)
         let h_max = Design.max_height design in
         let counts =
           Array.init (h_max + 1) (fun h ->
               if h = 0 then 0 else Design.cells_of_height design h)
         in
         let scale = float_of_int (max 1 counts.(1)) in
         (* cap the ratio: a handful of tall cells must not dominate
            every window decision *)
         Array.map
           (fun (c : Cell.t) ->
              let n = max 1 counts.(Design.height design c) in
              Float.min 8.0 (scale /. float_of_int n))
           design.Design.cells) }

type shift = { cell : int; dist : int }

type candidate = {
  y0 : int;
  x : int;
  cost : float;
  lefts : shift list;
  rights : shift list;
}

(* edge-spacing rule between edge types [l] and [r], when routability
   is considered *)
let spacing ctx ~l ~r =
  if ctx.config.Config.consider_routability then
    Floorplan.spacing ctx.design.Design.floorplan ~l ~r
  else 0

(* P/G parity: an even-height cell must start on an even row *)
let parity_ok h y0 = h mod 2 = 1 || y0 mod 2 = 0

(* [cost] plus the soft term of putting [cell] at (x, y0): one IO
   conflict costs as much as ~12 sites of movement *)
let penalized ctx ~cell ~x ~y0 cost =
  match ctx.routability with
  | None -> cost
  | Some r ->
    let c = ctx.design.Design.cells.(cell) in
    let io = Routability.io_conflicts r ~type_id:c.Cell.type_id ~x ~y:y0 in
    cost +. (12.0 *. ctx.weights.(cell) *. float_of_int io)

(* ================================================================== *)
(* Arena kernel: the allocation-lean evaluation path                    *)
(*                                                                      *)
(* Algorithm 1 over flat scratch buffers (Arena.t) instead of Hashtbls  *)
(* and cons lists, with binary search for sub-span lookup and a cost    *)
(* lower bound that skips whole cut evaluations. The straightforward    *)
(* cons-list version lives on as a test oracle                          *)
(* (test/oracle/insertion_oracle.ml) that this kernel must match bit    *)
(* for bit: every float operation happens in the same order on the     *)
(* same values.                                                         *)
(* ================================================================== *)

module I = Arena.Ibuf
module F = Arena.Fbuf

(* last index k in [base, limit) with keys.(k) <= x, or base - 1 *)
let bsearch_le (keys : int array) base limit x =
  let lo = ref base and hi = ref limit in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* Free spans of [region] in each row of [window], clipped to it, into
   cs_off/cs_lo/cs_hi (cs_off indexed by window row offset). An edge the
   clip creates is pulled in by clip_pad, the largest spacing rule:
   whatever lies past the window edge may need that much room. *)
let clip_spans ctx (a : Arena.t) ~region ~(window : Rect.t) =
  let win_lo = window.Rect.x.Interval.lo
  and win_hi = window.Rect.x.Interval.hi in
  let clip_pad = ctx.clip_pad in
  I.clear a.Arena.cs_off;
  I.clear a.Arena.cs_lo;
  I.clear a.Arena.cs_hi;
  I.push a.Arena.cs_off 0;
  for row = window.Rect.y.Interval.lo to window.Rect.y.Interval.hi - 1 do
    List.iter
      (fun (s : Interval.t) ->
         let lo =
           if s.Interval.lo < win_lo then win_lo + clip_pad else s.Interval.lo
         in
         let hi =
           if s.Interval.hi > win_hi then win_hi - clip_pad else s.Interval.hi
         in
         if hi > lo then begin
           I.push a.Arena.cs_lo lo;
           I.push a.Arena.cs_hi hi
         end)
      (Segment.spans ctx.segments ~row ~region);
    I.push a.Arena.cs_off a.Arena.cs_lo.I.len
  done

(* Sub-spans of window row [off] (die row [row]): its clipped spans
   (from [clip_spans]) cut by every cell of the row that [a.marks] does
   not mark, pushed onto ss_lo/ss_hi/ss_let/ss_ret in x order. A
   marked cell is no obstacle; its mark is pushed onto [a.locs]
   instead, in row order. ss_let/ss_ret are the edge types of the
   bounding obstacles, -1 when the boundary is a span or window edge;
   an obstacle ending or starting within clip_pad of a clipped span's
   edge lends that edge its type. *)
let row_subspans ctx (a : Arena.t) ~off ~row ~win_lo ~win_hi =
  let design = ctx.design in
  let cells = design.Design.cells in
  let clip_pad = ctx.clip_pad in
  let marks = a.Arena.marks in
  let arr, _ = Placement.row_cells ctx.placement row in
  (* Only cells with x in [win_lo - clip_pad - reach, win_hi + clip_pad]
     can change a sub-span; the rest of the row is skipped. Every
     clipped span [s_lo, s_hi) lies inside [win_lo, win_hi], and a
     cell is at least one site wide (Cell_type.make), so a skipped
     cell is either
     - left: it ends at or before win_lo - clip_pad <= s_lo - clip_pad
       (reach bounds every width, fixed cells included), so it fails
       all three tests of the span-cut loop below; or
     - right: it starts at or after win_hi + clip_pad >= s_hi +
       clip_pad, so it fails the overlap and "begins right of the
       span end" tests, and passes the "ends left of the boundary"
       test only once cur_lo has already reached past s_hi. From then
       on the loop pushes nothing and cur_et is never read again.
     A cell inside the window has x in [win_lo, win_hi], so all of
     them are visited, and the visited cells keep their row order. *)
  let first, last =
    Placement.x_range ctx.placement ~row
      ~lo:(win_lo - clip_pad - ctx.reach)
      ~hi:(win_hi + clip_pad)
  in
  I.clear a.Arena.ob_lo;
  I.clear a.Arena.ob_hi;
  I.clear a.Arena.ob_et;
  for i = first to last - 1 do
    let id = arr.(i) in
    let li = Arena.Marks.get marks id in
    if li >= 0 then I.push a.Arena.locs li
    else begin
      let c = cells.(id) in
      let w = Design.width design c in
      I.push a.Arena.ob_lo c.Cell.x;
      I.push a.Arena.ob_hi (c.Cell.x + w);
      I.push a.Arena.ob_et (Design.cell_type design c).Cell_type.edge_type
    end
  done;
  let nob = a.Arena.ob_lo.I.len in
  let ob_lo_a = a.Arena.ob_lo.I.a
  and ob_hi_a = a.Arena.ob_hi.I.a
  and ob_et_a = a.Arena.ob_et.I.a in
  let cs_off_a = a.Arena.cs_off.I.a in
  let cs_lo_a = a.Arena.cs_lo.I.a
  and cs_hi_a = a.Arena.cs_hi.I.a in
  for si = cs_off_a.(off) to cs_off_a.(off + 1) - 1 do
    let s_lo = cs_lo_a.(si) and s_hi = cs_hi_a.(si) in
    let cur_lo = ref s_lo and cur_et = ref (-1) and tail_et = ref (-1) in
    for oi = 0 to nob - 1 do
      let ox = ob_lo_a.(oi)
      and oxhi = ob_hi_a.(oi)
      and oet = ob_et_a.(oi) in
      if oxhi > s_lo && ox < s_hi then begin
        if ox > !cur_lo then begin
          I.push a.Arena.ss_lo !cur_lo;
          I.push a.Arena.ss_hi (Int.min ox s_hi);
          I.push a.Arena.ss_let !cur_et;
          I.push a.Arena.ss_ret oet
        end;
        if oxhi > !cur_lo then begin
          cur_lo := oxhi;
          cur_et := oet
        end
      end
      else if oxhi > s_lo - clip_pad && oxhi <= !cur_lo && ox < !cur_lo
      then begin
        (* ends at/just left of the current boundary *)
        if !cur_et = -1 then cur_et := oet
      end
      else if ox >= s_hi && ox < s_hi + clip_pad then begin
        (* begins at/just right of the span end *)
        if !tail_et = -1 then tail_et := oet
      end
    done;
    if !cur_lo < s_hi then begin
      I.push a.Arena.ss_lo !cur_lo;
      I.push a.Arena.ss_hi s_hi;
      I.push a.Arena.ss_let !cur_et;
      I.push a.Arena.ss_ret !tail_et
    end
  done

(* Fill the arena with this window's data; returns the local count.
   Mirrors the oracle's [build_window_data] exactly: same discovery
   order, same clipping and obstacle-absorption rules. Its [is_local]
   Hashtbl becomes an epoch-stamped mark table; sub-spans, per-row
   locals and occupancy become flat arrays with prefix offsets. *)
let build_window_arena ctx (a : Arena.t) ~target ~(window : Rect.t) =
  let design = ctx.design in
  let cells = design.Design.cells in
  let tgt = cells.(target) in
  let reg = Segment.region_of ctx.segments tgt in
  let row_lo = window.Rect.y.Interval.lo
  and row_hi = window.Rect.y.Interval.hi in
  let win_lo = window.Rect.x.Interval.lo
  and win_hi = window.Rect.x.Interval.hi in
  let nrows = Int.max 0 (row_hi - row_lo) in
  (* clipped free spans, computed once per window row *)
  clip_spans ctx a ~region:reg ~window;
  let cs_off_a = a.Arena.cs_off.I.a in
  let cs_lo_a = a.Arena.cs_lo.I.a
  and cs_hi_a = a.Arena.cs_hi.I.a in
  (* local-cell discovery, in placement row order *)
  let marks = a.Arena.marks in
  Arena.Marks.ensure marks (Array.length cells);
  Arena.Marks.next_epoch marks;
  I.clear a.Arena.ids;
  let covered_in (r : Rect.t) row' =
    let base = cs_off_a.(row' - row_lo)
    and limit = cs_off_a.(row' - row_lo + 1) in
    let k = bsearch_le cs_lo_a base limit r.Rect.x.Interval.lo in
    k >= base && r.Rect.x.Interval.hi <= cs_hi_a.(k)
  in
  (* A local lies inside the window, so its x is in [win_lo, win_hi]:
     binary-search each row to that range. Rows are x-sorted, so the
     locals keep their discovery order. *)
  for row = row_lo to row_hi - 1 do
    let arr, _ = Placement.row_cells ctx.placement row in
    let first, last =
      Placement.x_range ctx.placement ~row ~lo:win_lo ~hi:win_hi
    in
    for i = first to last - 1 do
      let id = arr.(i) in
      if (not (Arena.Marks.mem marks id)) && id <> target then begin
        let c = cells.(id) in
        let r = Design.cell_rect design c in
        if (not c.Cell.is_fixed)
           && Segment.region_of ctx.segments c = reg
           && Rect.contains_rect window r
           && (let ok = ref true in
               for row' = r.Rect.y.Interval.lo to r.Rect.y.Interval.hi - 1 do
                 if not (covered_in r row') then ok := false
               done;
               !ok)
        then begin
          Arena.Marks.set marks id a.Arena.ids.I.len;
          I.push a.Arena.ids id
        end
      end
    done
  done;
  let n = a.Arena.ids.I.len in
  let ids_a = a.Arena.ids.I.a in
  (* per-local attributes *)
  I.set_len a.Arena.cur n;
  I.set_len a.Arena.wid n;
  I.set_len a.Arena.et n;
  I.set_len a.Arena.gpx n;
  I.set_len a.Arena.c2 n;
  F.set_len a.Arena.wgt n;
  let cur_a = a.Arena.cur.I.a
  and wid_a = a.Arena.wid.I.a
  and et_a = a.Arena.et.I.a
  and gpx_a = a.Arena.gpx.I.a
  and c2_a = a.Arena.c2.I.a
  and wgt_a = a.Arena.wgt.F.a in
  for i = 0 to n - 1 do
    let c = cells.(ids_a.(i)) in
    let w = Design.width design c in
    cur_a.(i) <- c.Cell.x;
    wid_a.(i) <- w;
    et_a.(i) <- (Design.cell_type design c).Cell_type.edge_type;
    gpx_a.(i) <-
      (match ctx.disp_from with `Gp -> c.Cell.gp_x | `Current -> c.Cell.x);
    c2_a.(i) <- (2 * c.Cell.x) + w;
    wgt_a.(i) <- ctx.weights.(ids_a.(i))
  done;
  (* occupancy offsets: a local occupies [height] consecutive rows,
     all inside the window *)
  I.set_len a.Arena.occ_off (n + 1);
  let occ_off_a = a.Arena.occ_off.I.a in
  let tot = ref 0 in
  for i = 0 to n - 1 do
    occ_off_a.(i) <- !tot;
    tot := !tot + Design.height design cells.(ids_a.(i))
  done;
  occ_off_a.(n) <- !tot;
  I.set_len a.Arena.occ_row !tot;
  I.set_len a.Arena.occ_pos !tot;
  let occ_row_a = a.Arena.occ_row.I.a
  and occ_pos_a = a.Arena.occ_pos.I.a in
  (* per-row sub-spans and locals *)
  I.clear a.Arena.ss_off;
  I.clear a.Arena.ss_lo;
  I.clear a.Arena.ss_hi;
  I.clear a.Arena.ss_let;
  I.clear a.Arena.ss_ret;
  I.clear a.Arena.locs_off;
  I.clear a.Arena.locs;
  I.clear a.Arena.loc_ss;
  I.push a.Arena.ss_off 0;
  I.push a.Arena.locs_off 0;
  for off = 0 to nrows - 1 do
    let row = row_lo + off in
    let row_locs_start = a.Arena.locs.I.len in
    let row_ss_start = a.Arena.ss_lo.I.len in
    row_subspans ctx a ~off ~row ~win_lo ~win_hi;
    let row_ss_end = a.Arena.ss_lo.I.len in
    let ss_lo_a = a.Arena.ss_lo.I.a
    and ss_hi_a = a.Arena.ss_hi.I.a in
    (* sub-span of each local (flat index), by binary search over the
       sorted, disjoint sub-span bounds; occupancy entries *)
    I.set_len a.Arena.loc_ss a.Arena.locs.I.len;
    let locs_a = a.Arena.locs.I.a
    and loc_ss_a = a.Arena.loc_ss.I.a in
    for p = row_locs_start to a.Arena.locs.I.len - 1 do
      let li = locs_a.(p) in
      let x = cur_a.(li) in
      let k = bsearch_le ss_lo_a row_ss_start row_ss_end x in
      if k < row_ss_start || x >= ss_hi_a.(k) then
        (* only an overlapping placement puts a local on an obstacle:
           every MGL driver starts from the fixed cells alone *)
        Mcl_analysis.Diagnostic.(
          fail
            [ error ~code:"S305-window-overlap" ~stage:"mgl"
                ~loc:(Cell ids_a.(li))
                (Printf.sprintf
                   "cell overlaps an obstacle in row %d of the window of \
                    cell %d; legalize the design first"
                   row target) ]);
      loc_ss_a.(p) <- k;
      let slot = occ_off_a.(li) + (row - cells.(ids_a.(li)).Cell.y) in
      occ_row_a.(slot) <- off;
      occ_pos_a.(slot) <- p
    done;
    I.push a.Arena.ss_off row_ss_end;
    I.push a.Arena.locs_off a.Arena.locs.I.len
  done;
  (* each sub-span's locals: rows follow one another in both flat
     arrays and each row's locals are x-sorted, so loc_ss never
     decreases along locs *)
  let nss = a.Arena.ss_lo.I.len and nlocs = a.Arena.locs.I.len in
  I.set_len a.Arena.ss_lp (nss + 1);
  let ss_lp_a = a.Arena.ss_lp.I.a and loc_ss_a = a.Arena.loc_ss.I.a in
  let p = ref 0 in
  for j = 0 to nss - 1 do
    while !p < nlocs && loc_ss_a.(!p) < j do
      incr p
    done;
    ss_lp_a.(j) <- !p
  done;
  ss_lp_a.(nss) <- nlocs;
  n

(* [b.(idx.(t)) <- v] for t < len *)
let fill_at (b : int array) (idx : int array) len v =
  for t = 0 to len - 1 do
    b.(idx.(t)) <- v
  done

(* The component of a block (a y0 and a common interval): every local
   a cut of the block can read. It starts from the locals of the h
   chosen sub-spans; a local in a reached sub-span reaches the
   sub-spans of all its rows, and so on until nothing new is reached.
   Fills comp_idx (by index) and comp_ord (by (cur, idx), the DP order).

   Why the DPs may skip the rest: each DP value reads only neighbours
   in the same sub-span, that sub-span's bounds and the chosen
   sub-spans, and the target's range reads only the chosen sub-spans'
   locals, so every value a component local reads comes from the
   component. A local outside it has no chosen sub-span and no
   same-sub-span neighbour inside, so by induction its d and dr stay
   -1: it adds nothing to the curve and joins neither shift list. To
   keep that true of dp_d/dp_dr (which the incumbent copies whole),
   the previous component's entries go back to -1 here. *)
let block_component (a : Arena.t) ~h ~ci_base =
  let occ_off_a = a.Arena.occ_off.I.a
  and occ_pos_a = a.Arena.occ_pos.I.a in
  let locs_a = a.Arena.locs.I.a
  and loc_ss_a = a.Arena.loc_ss.I.a
  and ss_lp_a = a.Arena.ss_lp.I.a in
  let ci_ss_a = a.Arena.ci_ss.I.a in
  let nc = a.Arena.comp_idx.I.len in
  fill_at a.Arena.dp_d.I.a a.Arena.comp_idx.I.a nc (-1);
  fill_at a.Arena.dp_dr.I.a a.Arena.comp_idx.I.a nc (-1);
  let marks = a.Arena.comp_ss in
  Arena.Marks.next_epoch marks;
  I.clear a.Arena.comp_q;
  I.clear a.Arena.comp_idx;
  let reach j =
    if not (Arena.Marks.mem marks j) then begin
      Arena.Marks.set marks j 0;
      I.push a.Arena.comp_q j
    end
  in
  for k = 0 to h - 1 do
    reach ci_ss_a.(ci_base + k)
  done;
  let qi = ref 0 in
  while !qi < a.Arena.comp_q.I.len do
    let j = a.Arena.comp_q.I.a.(!qi) in
    incr qi;
    for p = ss_lp_a.(j) to ss_lp_a.(j + 1) - 1 do
      let li = locs_a.(p) in
      (* a local joins once, from the sub-span of its bottom row *)
      if occ_pos_a.(occ_off_a.(li)) = p then I.push a.Arena.comp_idx li;
      for s = occ_off_a.(li) to occ_off_a.(li + 1) - 1 do
        reach loc_ss_a.(occ_pos_a.(s))
      done
    done
  done;
  let nc = a.Arena.comp_idx.I.len in
  Arena.sort_ints a.Arena.comp_idx.I.a nc;
  I.set_len a.Arena.comp_ord nc;
  Array.blit a.Arena.comp_idx.I.a 0 a.Arena.comp_ord.I.a 0 nc;
  let cur_a = a.Arena.cur.I.a in
  Arena.sort a.Arena.comp_ord.I.a nc ~lt:(fun x y ->
      cur_a.(x) < cur_a.(y) || (cur_a.(x) = cur_a.(y) && x < y))

(* Per-cut evaluation over the arena. Same DPs, same curve, same
   routability adjustments as the oracle's [evaluate], run
   over the block's component (see [block_component]); push distances
   are left in [dp_d]/[dp_dr] for the caller to snapshot if this cut
   wins. Before each DP the component's entries get the value the
   oracle starts every local at, so a read sees what it would see
   there. *)
let evaluate_arena ctx (a : Arena.t) ~row_lo ~y0 ~h ~ci_base ~t_wid ~t_et
    ~target ~cut =
  let cur_a = a.Arena.cur.I.a
  and wid_a = a.Arena.wid.I.a
  and et_a = a.Arena.et.I.a
  and gpx_a = a.Arena.gpx.I.a
  and c2_a = a.Arena.c2.I.a
  and wgt_a = a.Arena.wgt.F.a in
  let occ_off_a = a.Arena.occ_off.I.a
  and occ_row_a = a.Arena.occ_row.I.a
  and occ_pos_a = a.Arena.occ_pos.I.a in
  let ss_lo_a = a.Arena.ss_lo.I.a
  and ss_hi_a = a.Arena.ss_hi.I.a
  and ss_let_a = a.Arena.ss_let.I.a
  and ss_ret_a = a.Arena.ss_ret.I.a
  and ss_lp_a = a.Arena.ss_lp.I.a in
  let locs_a = a.Arena.locs.I.a
  and loc_ss_a = a.Arena.loc_ss.I.a
  and locs_off_a = a.Arena.locs_off.I.a in
  let ci_ss_a = a.Arena.ci_ss.I.a in
  let nc = a.Arena.comp_ord.I.len in
  let ord_a = a.Arena.comp_ord.I.a
  and idx_a = a.Arena.comp_idx.I.a in
  let sp l r = spacing ctx ~l ~r in
  (* chosen sub-span (flat index) of a window row offset, -1 when the
     row is not a target row *)
  let chosen off =
    let k = off - (y0 - row_lo) in
    if k >= 0 && k < h then ci_ss_a.(ci_base + k) else -1
  in
  (* --- feasibility DPs (m: left compaction, M: right compaction) --- *)
  let m = a.Arena.dp_m.I.a in
  fill_at m ord_a nc min_int;
  for oi = 0 to nc - 1 do
    let i = ord_a.(oi) in
    if c2_a.(i) < cut then begin
      let best = ref min_int in
      for s = occ_off_a.(i) to occ_off_a.(i + 1) - 1 do
        let pos = occ_pos_a.(s) in
        let rbase = locs_off_a.(occ_row_a.(s)) in
        let ssj = loc_ss_a.(pos) in
        (* previous left cell in the same sub-span (skipping right
           cells), -1 at the sub-span boundary *)
        let k = ref (-1) in
        let p = ref (pos - 1) in
        let scan = ref true in
        while !scan && !p >= rbase do
          if loc_ss_a.(!p) = ssj then begin
            let kk = locs_a.(!p) in
            if c2_a.(kk) < cut then begin
              k := kk;
              scan := false
            end
            else decr p
          end
          else scan := false
        done;
        let cand =
          if !k >= 0 then m.(!k) + wid_a.(!k) + sp et_a.(!k) et_a.(i)
          else
            ss_lo_a.(ssj)
            + (let e = ss_let_a.(ssj) in
               if e >= 0 then sp e et_a.(i) else 0)
        in
        if cand > !best then best := cand
      done;
      m.(i) <- !best
    end
  done;
  let bigm = a.Arena.dp_bigm.I.a in
  fill_at bigm ord_a nc max_int;
  for oi = nc - 1 downto 0 do
    let i = ord_a.(oi) in
    if c2_a.(i) >= cut then begin
      let best = ref max_int in
      for s = occ_off_a.(i) to occ_off_a.(i + 1) - 1 do
        let pos = occ_pos_a.(s) in
        let rlimit = locs_off_a.(occ_row_a.(s) + 1) in
        let ssj = loc_ss_a.(pos) in
        (* next cell in the same sub-span, any side *)
        let nr =
          let p = pos + 1 in
          if p >= rlimit then -1
          else if loc_ss_a.(p) <> ssj then -1
          else locs_a.(p)
        in
        let cand =
          if nr >= 0 then bigm.(nr) - wid_a.(i) - sp et_a.(i) et_a.(nr)
          else
            ss_hi_a.(ssj) - wid_a.(i)
            - (let e = ss_ret_a.(ssj) in
               if e >= 0 then sp et_a.(i) e else 0)
        in
        if cand < !best then best := cand
      done;
      bigm.(i) <- !best
    end
  done;
  (* --- feasible range of the target --- *)
  let lo = ref min_int and hi = ref max_int in
  for k = 0 to h - 1 do
    let ssk = ci_ss_a.(ci_base + k) in
    let last_left = ref (-1) and first_right = ref (-1) in
    for p = ss_lp_a.(ssk) to ss_lp_a.(ssk + 1) - 1 do
      let li = locs_a.(p) in
      if c2_a.(li) < cut then last_left := li
      else if !first_right < 0 then first_right := li
    done;
    let lo_r =
      if !last_left >= 0 then
        m.(!last_left) + wid_a.(!last_left) + sp et_a.(!last_left) t_et
      else
        ss_lo_a.(ssk)
        + (let e = ss_let_a.(ssk) in if e >= 0 then sp e t_et else 0)
    in
    let hi_r =
      if !first_right >= 0 then
        bigm.(!first_right) - t_wid - sp t_et et_a.(!first_right)
      else
        ss_hi_a.(ssk) - t_wid
        - (let e = ss_ret_a.(ssk) in if e >= 0 then sp t_et e else 0)
    in
    if lo_r > !lo then lo := lo_r;
    if hi_r < !hi then hi := hi_r
  done;
  if !lo > !hi then None
  else begin
    (* --- push-distance DPs, only for feasible candidates --- *)
    let d = a.Arena.dp_d.I.a in
    fill_at d ord_a nc (-1);
    for oi = nc - 1 downto 0 do
      let i = ord_a.(oi) in
      if c2_a.(i) < cut then begin
        let best = ref (-1) in
        for s = occ_off_a.(i) to occ_off_a.(i + 1) - 1 do
          let pos = occ_pos_a.(s) in
          let off = occ_row_a.(s) in
          let rlimit = locs_off_a.(off + 1) in
          let ssj = loc_ss_a.(pos) in
          (* next neighbor only if it is a left cell; a right neighbor
             or the boundary ends the chain at the insertion point *)
          let nl =
            let p = pos + 1 in
            if p >= rlimit then -1
            else if loc_ss_a.(p) <> ssj then -1
            else begin
              let kk = locs_a.(p) in
              if c2_a.(kk) < cut then kk else -1
            end
          in
          if nl >= 0 then begin
            if d.(nl) >= 0 then begin
              let cand = d.(nl) + wid_a.(i) + sp et_a.(i) et_a.(nl) in
              if cand > !best then best := cand
            end
          end
          else if chosen off = ssj then begin
            let cand = wid_a.(i) + sp et_a.(i) t_et in
            if cand > !best then best := cand
          end
        done;
        d.(i) <- !best
      end
    done;
    let dr = a.Arena.dp_dr.I.a in
    fill_at dr ord_a nc (-1);
    for oi = 0 to nc - 1 do
      let i = ord_a.(oi) in
      if c2_a.(i) >= cut then begin
        let best = ref (-1) in
        for s = occ_off_a.(i) to occ_off_a.(i + 1) - 1 do
          let pos = occ_pos_a.(s) in
          let off = occ_row_a.(s) in
          let rbase = locs_off_a.(off) in
          let ssj = loc_ss_a.(pos) in
          let pr =
            let p = pos - 1 in
            if p < rbase then -1
            else if loc_ss_a.(p) <> ssj then -1
            else begin
              let kk = locs_a.(p) in
              if c2_a.(kk) < cut then -1 else kk
            end
          in
          if pr >= 0 then begin
            if dr.(pr) >= 0 then begin
              let cand = dr.(pr) + wid_a.(pr) + sp et_a.(pr) et_a.(i) in
              if cand > !best then best := cand
            end
          end
          else if chosen off = ssj then begin
            let cand = t_wid + sp t_et et_a.(i) in
            if cand > !best then best := cand
          end
        done;
        dr.(i) <- !best
      end
    done;
    (* --- displacement curve (same term order as the oracle: by local
       index; a local outside the component adds no term) --- *)
    let tgt = ctx.design.Design.cells.(target) in
    let fp = ctx.design.Design.floorplan in
    let curve = a.Arena.curve in
    Curve.reset curve;
    Curve.add_target curve ~weight:ctx.weights.(target) ~gp:tgt.Cell.gp_x;
    let y_cost_per_row =
      float_of_int fp.Floorplan.row_height
      /. float_of_int fp.Floorplan.site_width
    in
    Curve.add_const curve
      (ctx.weights.(target)
       *. float_of_int (abs (y0 - tgt.Cell.gp_y))
       *. y_cost_per_row);
    for t = 0 to nc - 1 do
      let i = idx_a.(t) in
      let left = c2_a.(i) < cut in
      let dist = if left then d.(i) else dr.(i) in
      if dist >= 0 then begin
        if left then
          Curve.add_left curve ~weight:wgt_a.(i) ~cur:cur_a.(i)
            ~gp:gpx_a.(i) ~dist
        else
          Curve.add_right curve ~weight:wgt_a.(i) ~cur:cur_a.(i)
            ~gp:gpx_a.(i) ~dist;
        Curve.add_const curve
          (-.(wgt_a.(i) *. float_of_int (abs (cur_a.(i) - gpx_a.(i)))))
      end
    done;
    let x_star, base_cost = Curve.minimize curve ~lo:!lo ~hi:!hi in
    (* --- routability adjustments --- *)
    let type_id = tgt.Cell.type_id in
    let x_final =
      match ctx.routability with
      | Some r when not (Routability.x_ok r ~type_id ~x:x_star) ->
        Routability.nearest_ok_x r ~type_id ~x:x_star ~lo:!lo ~hi:!hi
      | Some _ | None -> Some x_star
    in
    match x_final with
    | None -> None
    | Some x ->
      let cost = if x = x_star then base_cost else Curve.eval curve x in
      Some (x, penalized ctx ~cell:target ~x ~y0 cost)
  end

(* Float-safety slack for the pruning bound: the bound's prefix sums
   associate differently than the curve's own summation, so require a
   clear margin before skipping a cut. *)
let prune_margin lb best = 1e-6 +. (1e-9 *. (Float.abs lb +. Float.abs best))

let best ?(check_pruning = false) ctx ~target ~window =
  let a = ctx.arena in
  let design = ctx.design in
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt in
  let w_t = Design.width design tgt in
  let t_et = (Design.cell_type design tgt).Cell_type.edge_type in
  let fp = design.Design.floorplan in
  let window = Rect.inter window (Floorplan.die fp) in
  if Rect.is_empty window then None
  else begin
    let row_lo = window.Rect.y.Interval.lo in
    let n = build_window_arena ctx a ~target ~window in
    a.Arena.windows_built <- a.Arena.windows_built + 1;
    let cur_a = a.Arena.cur.I.a
    and wid_a = a.Arena.wid.I.a
    and c2_a = a.Arena.c2.I.a
    and gpx_a = a.Arena.gpx.I.a
    and wgt_a = a.Arena.wgt.F.a in
    (* DP tables; no local is in a component yet, so every push
       distance is -1 (see [block_component]) *)
    I.set_len a.Arena.dp_m n;
    I.set_len a.Arena.dp_bigm n;
    I.fill a.Arena.dp_d n (-1);
    I.fill a.Arena.dp_dr n (-1);
    I.clear a.Arena.comp_idx;
    I.clear a.Arena.comp_ord;
    Arena.Marks.ensure a.Arena.comp_ss a.Arena.ss_lo.I.len;
    (* pruning bound ingredients: locals by (c2, idx), with prefix
       (left) / suffix (right) sums of the largest possible
       displacement improvement each cell can contribute *)
    I.set_len a.Arena.pr_idx n;
    let pr_idx_a = a.Arena.pr_idx.I.a in
    for i = 0 to n - 1 do
      pr_idx_a.(i) <- i
    done;
    Arena.sort pr_idx_a n ~lt:(fun x y ->
        c2_a.(x) < c2_a.(y) || (c2_a.(x) = c2_a.(y) && x < y));
    I.set_len a.Arena.pr_c2 n;
    F.set_len a.Arena.imp_l (n + 1);
    F.set_len a.Arena.imp_r (n + 1);
    let pr_c2_a = a.Arena.pr_c2.I.a in
    let imp_l_a = a.Arena.imp_l.F.a
    and imp_r_a = a.Arena.imp_r.F.a in
    imp_l_a.(0) <- 0.0;
    for t = 0 to n - 1 do
      let i = pr_idx_a.(t) in
      pr_c2_a.(t) <- c2_a.(i);
      imp_l_a.(t + 1) <-
        imp_l_a.(t)
        +. (wgt_a.(i) *. float_of_int (Int.max 0 (cur_a.(i) - gpx_a.(i))))
    done;
    imp_r_a.(n) <- 0.0;
    for t = n - 1 downto 0 do
      let i = pr_idx_a.(t) in
      imp_r_a.(t) <-
        imp_r_a.(t + 1)
        +. (wgt_a.(i) *. float_of_int (Int.max 0 (gpx_a.(i) - cur_a.(i))))
    done;
    (* largest total cost decrease any placement of this cut's local
       cells can produce, relative to today's placement *)
    let s_improve cut =
      let t = bsearch_le pr_c2_a 0 n (cut - 1) + 1 in
      imp_l_a.(t) +. imp_r_a.(t)
    in
    let ss_off_a = a.Arena.ss_off.I.a in
    let ss_lo_a = a.Arena.ss_lo.I.a
    and ss_hi_a = a.Arena.ss_hi.I.a in
    let locs_a = a.Arena.locs.I.a
    and ss_lp_a = a.Arena.ss_lp.I.a in
    let w_tf = ctx.weights.(target) in
    let y_cost_per_row =
      float_of_int fp.Floorplan.row_height
      /. float_of_int fp.Floorplan.site_width
    in
    let gp_c2 = (2 * tgt.Cell.gp_x) + w_t in
    (* incumbent; [rank] reproduces the oracle's first-wins tie
       break under out-of-order (lower-bound-sorted) evaluation *)
    let found = ref false in
    let best_cost = ref infinity and best_rank = ref max_int in
    let best_y0 = ref 0 and best_x = ref 0 and best_cut = ref 0 in
    let block_no = ref 0 and comp_block = ref 0 in
    let y_min = window.Rect.y.Interval.lo in
    let y_max =
      Int.min (window.Rect.y.Interval.hi - h) (fp.Floorplan.num_rows - h)
    in
    for y0 = y_min to y_max do
      let row_feasible =
        parity_ok h y0
        && (match ctx.routability with
            | None -> true
            | Some r -> Routability.row_ok r ~type_id:tgt.Cell.type_id ~y:y0)
      in
      if row_feasible then begin
        (* common intervals of rows y0 .. y0+h-1: maximal x-intervals
           where every row is covered by exactly one sub-span *)
        I.clear a.Arena.ci_lo;
        I.clear a.Arena.ci_hi;
        I.clear a.Arena.ci_ss;
        I.clear a.Arena.bounds;
        for k = 0 to h - 1 do
          let off = y0 + k - row_lo in
          for j = ss_off_a.(off) to ss_off_a.(off + 1) - 1 do
            I.push a.Arena.bounds ss_lo_a.(j);
            I.push a.Arena.bounds ss_hi_a.(j)
          done
        done;
        let bounds_a = a.Arena.bounds.I.a in
        Arena.sort_ints bounds_a a.Arena.bounds.I.len;
        let nb = Arena.uniq_sorted bounds_a a.Arena.bounds.I.len in
        for b = 0 to nb - 2 do
          let ilo = bounds_a.(b) and ihi = bounds_a.(b + 1) in
          let start = a.Arena.ci_ss.I.len in
          let ok = ref true in
          for k = 0 to h - 1 do
            if !ok then begin
              let off = y0 + k - row_lo in
              let base = ss_off_a.(off) and limit = ss_off_a.(off + 1) in
              let j = bsearch_le ss_lo_a base limit ilo in
              if j >= base && ihi <= ss_hi_a.(j) then I.push a.Arena.ci_ss j
              else ok := false
            end
          done;
          if !ok then begin
            I.push a.Arena.ci_lo ilo;
            I.push a.Arena.ci_hi ihi
          end
          else I.truncate a.Arena.ci_ss start
        done;
        let ci_lo_a = a.Arena.ci_lo.I.a
        and ci_hi_a = a.Arena.ci_hi.I.a
        and ci_ss_a = a.Arena.ci_ss.I.a in
        for c = 0 to a.Arena.ci_lo.I.len - 1 do
          let ci_base = c * h in
          if ci_hi_a.(c) - ci_lo_a.(c) >= 1 then begin
            (* quick prune: every target row must have enough free
               width in its chosen sub-span for the target *)
            let enough_room =
              let ok = ref true in
              for k = 0 to h - 1 do
                let ssk = ci_ss_a.(ci_base + k) in
                let used = ref 0 in
                for p = ss_lp_a.(ssk) to ss_lp_a.(ssk + 1) - 1 do
                  used := !used + wid_a.(locs_a.(p))
                done;
                if ss_hi_a.(ssk) - ss_lo_a.(ssk) - !used < w_t then ok := false
              done;
              !ok
            in
            if enough_room then begin
              incr block_no;
              (* cuts: around every local center in the chosen
                 sub-spans of the target rows, plus the target's own GP
                 center; capped to the nearest ones *)
              I.clear a.Arena.cut_x;
              I.push a.Arena.cut_x gp_c2;
              for k = 0 to h - 1 do
                let ssk = ci_ss_a.(ci_base + k) in
                for p = ss_lp_a.(ssk) to ss_lp_a.(ssk + 1) - 1 do
                  let li = locs_a.(p) in
                  I.push a.Arena.cut_x c2_a.(li);
                  I.push a.Arena.cut_x (c2_a.(li) + 1)
                done
              done;
              let cut_a = a.Arena.cut_x.I.a in
              Arena.sort_ints cut_a a.Arena.cut_x.I.len;
              let nu = Arena.uniq_sorted cut_a a.Arena.cut_x.I.len in
              Arena.sort cut_a nu ~lt:(fun u v ->
                  let du = abs (u - gp_c2) and dv = abs (v - gp_c2) in
                  du < dv || (du = dv && u < v));
              let ncuts = Int.min 17 nu in
              (* block-constant superset [bl, bh] of every cut's
                 feasible range, from the chosen sub-span bounds *)
              let bl = ref min_int and bh = ref max_int in
              for k = 0 to h - 1 do
                let ssk = ci_ss_a.(ci_base + k) in
                if ss_lo_a.(ssk) > !bl then bl := ss_lo_a.(ssk);
                if ss_hi_a.(ssk) - w_t < !bh then bh := ss_hi_a.(ssk) - w_t
              done;
              if !bl > !bh then
                (* no cut of this block can be feasible *)
                a.Arena.cuts_pruned <- a.Arena.cuts_pruned + ncuts
              else begin
                let y_term =
                  w_tf
                  *. float_of_int (abs (y0 - tgt.Cell.gp_y))
                  *. y_cost_per_row
                in
                let xg =
                  if tgt.Cell.gp_x < !bl then !bl
                  else if tgt.Cell.gp_x > !bh then !bh
                  else tgt.Cell.gp_x
                in
                let lb_base =
                  y_term +. (w_tf *. float_of_int (abs (xg - tgt.Cell.gp_x)))
                in
                F.set_len a.Arena.cut_lb ncuts;
                I.set_len a.Arena.cut_idx ncuts;
                let lb_a = a.Arena.cut_lb.F.a
                and cidx_a = a.Arena.cut_idx.I.a in
                for r = 0 to ncuts - 1 do
                  lb_a.(r) <- lb_base -. s_improve cut_a.(r);
                  cidx_a.(r) <- r
                done;
                (* the component is built at the block's first
                   evaluation *)
                let evaluate cut =
                  if !comp_block <> !block_no then begin
                    block_component a ~h ~ci_base;
                    comp_block := !block_no
                  end;
                  evaluate_arena ctx a ~row_lo ~y0 ~h ~ci_base ~t_wid:w_t
                    ~t_et ~target ~cut
                in
                (* cheapest lower bound first, so the incumbent drops
                   fast and later cuts prune *)
                Arena.sort cidx_a ncuts ~lt:(fun u v ->
                    lb_a.(u) < lb_a.(v) || (lb_a.(u) = lb_a.(v) && u < v));
                for s = 0 to ncuts - 1 do
                  let r = cidx_a.(s) in
                  let cut = cut_a.(r) in
                  if !found && lb_a.(r) > !best_cost +. prune_margin lb_a.(r) !best_cost
                  then begin
                    a.Arena.cuts_pruned <- a.Arena.cuts_pruned + 1;
                    if check_pruning then begin
                      let incumbent = !best_cost in
                      match evaluate cut with
                      | Some (_, cost) when cost <= incumbent ->
                        Mcl_analysis.Diagnostic.(
                          fail
                            [ error ~code:"S304-pruning-bound-violated"
                                ~stage:"mgl" ~loc:(Cell target)
                                (Printf.sprintf
                                   "check_pruning: pruned cut admits cost \
                                    %.17g <= incumbent %.17g"
                                   cost incumbent) ])
                      | Some _ | None -> ()
                    end
                  end
                  else begin
                    a.Arena.cuts_evaluated <- a.Arena.cuts_evaluated + 1;
                    match evaluate cut with
                    | None -> ()
                    | Some (x, cost) ->
                      let rank = (!block_no * 32) + r in
                      if (not !found) || cost < !best_cost
                         || (cost = !best_cost && rank < !best_rank)
                      then begin
                        found := true;
                        best_cost := cost;
                        best_rank := rank;
                        best_y0 := y0;
                        best_x := x;
                        best_cut := cut;
                        I.set_len a.Arena.best_d n;
                        I.set_len a.Arena.best_dr n;
                        Array.blit a.Arena.dp_d.I.a 0 a.Arena.best_d.I.a 0 n;
                        Array.blit a.Arena.dp_dr.I.a 0 a.Arena.best_dr.I.a 0 n
                      end
                  end
                done
              end
            end
          end
        done
      end
    done;
    if not !found then None
    else begin
      let ids_a = a.Arena.ids.I.a in
      let bd = a.Arena.best_d.I.a and bdr = a.Arena.best_dr.I.a in
      let lefts = ref [] and rights = ref [] in
      for i = 0 to n - 1 do
        if c2_a.(i) < !best_cut then begin
          if bd.(i) >= 0 then
            lefts := { cell = ids_a.(i); dist = bd.(i) } :: !lefts
        end
        else if bdr.(i) >= 0 then
          rights := { cell = ids_a.(i); dist = bdr.(i) } :: !rights
      done;
      Some
        { y0 = !best_y0; x = !best_x; cost = !best_cost; lefts = !lefts;
          rights = !rights }
    end
  end

(* ================================================================== *)
(* Undo log                                                             *)
(* ================================================================== *)

(* Flat triples, oldest first: (cell, x, y) before a move, (lnot cell,
   gp_x, gp_y) before an anchor rebind (lnot keeps the two apart, as
   ids are >= 0). *)

let log_move ctx (c : Cell.t) =
  match ctx.log with
  | None -> ()
  | Some l ->
    Arena.Ibuf.push l c.Cell.id;
    Arena.Ibuf.push l c.Cell.x;
    Arena.Ibuf.push l c.Cell.y

let log_anchor ctx (c : Cell.t) =
  match ctx.log with
  | None -> ()
  | Some l ->
    Arena.Ibuf.push l (lnot c.Cell.id);
    Arena.Ibuf.push l c.Cell.gp_x;
    Arena.Ibuf.push l c.Cell.gp_y

let clear_log ctx = Option.iter Arena.Ibuf.clear ctx.log

let undo ctx =
  match ctx.log with
  | None -> ()
  | Some l ->
    let cells = ctx.design.Design.cells in
    let a = l.Arena.Ibuf.a in
    for e = (l.Arena.Ibuf.len / 3) - 1 downto 0 do
      let k = a.(3 * e) and u = a.((3 * e) + 1) and v = a.((3 * e) + 2) in
      if k >= 0 then begin
        cells.(k).Cell.x <- u;
        cells.(k).Cell.y <- v
      end
      else begin
        let c = cells.(lnot k) in
        c.Cell.gp_x <- u;
        c.Cell.gp_y <- v
      end
    done

let moved ctx =
  match ctx.log with
  | None -> []
  | Some l ->
    let marks = ctx.arena.Arena.marks in
    Arena.Marks.ensure marks (Design.num_cells ctx.design);
    Arena.Marks.next_epoch marks;
    let a = l.Arena.Ibuf.a in
    let acc = ref [] in
    for e = 0 to (l.Arena.Ibuf.len / 3) - 1 do
      let k = a.(3 * e) in
      if k >= 0 && not (Arena.Marks.mem marks k) then begin
        Arena.Marks.set marks k 0;
        acc := (k, a.((3 * e) + 1), a.((3 * e) + 2)) :: !acc
      end
    done;
    List.rev !acc

let apply ctx ~target cand =
  let cells = ctx.design.Design.cells in
  List.iter
    (fun { cell; dist } ->
       let c = cells.(cell) in
       let nx = Int.min c.Cell.x (cand.x - dist) in
       if nx <> c.Cell.x then begin
         log_move ctx c;
         c.Cell.x <- nx
       end)
    cand.lefts;
  List.iter
    (fun { cell; dist } ->
       let c = cells.(cell) in
       let nx = Int.max c.Cell.x (cand.x + dist) in
       if nx <> c.Cell.x then begin
         log_move ctx c;
         c.Cell.x <- nx
       end)
    cand.rights;
  let t = cells.(target) in
  log_move ctx t;
  t.Cell.x <- cand.x;
  t.Cell.y <- cand.y0;
  Placement.add ctx.placement target
