module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist

type violation =
  | Overlap of int * int
  | Out_of_die of int
  | On_blockage of int
  | Outside_region of int
  | Bad_parity of int
  | Fixed_moved of int

let pp_violation ppf = function
  | Overlap (a, b) -> Format.fprintf ppf "overlap(c%d,c%d)" a b
  | Out_of_die c -> Format.fprintf ppf "out_of_die(c%d)" c
  | On_blockage c -> Format.fprintf ppf "on_blockage(c%d)" c
  | Outside_region c -> Format.fprintf ppf "outside_region(c%d)" c
  | Bad_parity c -> Format.fprintf ppf "bad_parity(c%d)" c
  | Fixed_moved c -> Format.fprintf ppf "fixed_moved(c%d)" c

(* Even-height cells must start on even rows so their P/G rails align
   (paper Sec. 2); odd-height cells can flip, so any row is fine. *)
let parity_ok height y = height mod 2 = 1 || y mod 2 = 0

(* Row by row against the fences' merged row intervals (a cell is at
   least one site wide, so its x-extent is never empty): a fenced cell
   must lie inside one merged interval of its fence, since the site
   just past a merged interval is uncovered; a region-0 cell must
   overlap no fence interval. Equals [Design.region_covers] on every
   site of the cell. *)
let region_ok design (c : Cell.t) =
  let r = Design.cell_rect design c in
  let xs = r.Rect.x in
  let row_ok row =
    if c.region = 0 then
      Array.for_all
        (fun f ->
           not (List.exists (Interval.overlaps xs) (Fence.row_intervals f ~row)))
        design.Design.fences
    else
      List.exists
        (fun (iv : Interval.t) -> iv.lo <= xs.lo && xs.hi <= iv.hi)
        (Fence.row_intervals design.Design.fences.(c.region - 1) ~row)
  in
  let ok = ref true in
  for row = r.Rect.y.lo to r.Rect.y.hi - 1 do
    if !ok && not (row_ok row) then ok := false
  done;
  !ok

let check design =
  let fp = design.Design.floorplan in
  let die = Floorplan.die fp in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* per-cell checks *)
  Array.iter
    (fun (c : Cell.t) ->
       let r = Design.cell_rect design c in
       if c.is_fixed then begin
         if c.x <> c.gp_x || c.y <> c.gp_y then add (Fixed_moved c.id)
       end
       else begin
         if not (Rect.contains_rect die r) then add (Out_of_die c.id);
         if List.exists (Rect.overlaps r) fp.Floorplan.blockages then
           add (On_blockage c.id);
         if not (parity_ok (Design.height design c) c.y) then add (Bad_parity c.id);
         (* independent of the die check: a cell that is both out of die
            and out of its fence must report both, or an auditor summing
            per-kind counts under-reports (region 0 treats out-of-die
            sites as covered, so only fenced cells can double-report) *)
         if not (region_ok design c) then add (Outside_region c.id)
       end)
    design.Design.cells;
  (* overlap check: sweep each row's cells sorted by x *)
  let per_row = Array.make fp.Floorplan.num_rows [] in
  Array.iter
    (fun (c : Cell.t) ->
       let r = Design.cell_rect design c in
       for y = max 0 r.Rect.y.lo to min (fp.Floorplan.num_rows - 1) (r.Rect.y.hi - 1) do
         per_row.(y) <- c :: per_row.(y)
       done)
    design.Design.cells;
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun cells ->
       let sorted =
         List.sort (fun (a : Cell.t) (b : Cell.t) -> compare (a.x, a.id) (b.x, b.id)) cells
       in
       (* track the running rightmost extent so a wide cell overlapping
          several successors is caught against each of them *)
       let rec scan max_hi max_id = function
         | [] -> ()
         | b :: rest ->
           if max_id >= 0 && b.Cell.x < max_hi then begin
             let key = (min max_id b.Cell.id, max max_id b.Cell.id) in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.add seen key ();
               add (Overlap (fst key, snd key))
             end
           end;
           let b_hi = b.Cell.x + Design.width design b in
           if b_hi > max_hi then scan b_hi b.Cell.id rest
           else scan max_hi max_id rest
       in
       scan min_int (-1) sorted)
    per_row;
  List.rev !violations

let is_legal design = check design = []
