module Rect = Mcl_geom.Rect
open Mcl_netlist

let scale = 4096.0

(* Net bounding boxes are inclusive in dbu: a one-pin net occupies the
   1x1-dbu box at its pin. [no_box] marks a net with no endpoints. *)
type box = { mutable bxl : int; mutable byl : int; mutable bxh : int; mutable byh : int }

let no_box = max_int

type t = {
  design : Design.t;
  grid : Grid.t;
  demand : int array;  (* fixed-point RUDY, [scale] units per 1.0 *)
  pins : int array;    (* endpoint counts *)
  boxes : box array;   (* per net *)
  cell_nets : int array array;  (* cell id -> incident net ids *)
  cell_pins : (int * int) array array;  (* cell id -> Cell_pin (dx, dy) offsets *)
  mutable journal : (int * int * int) list;  (* (cell, old_x, old_y) *)
}

let grid t = t.grid
let design t = t.design
let journal_depth t = List.length t.journal

(* ---------------------------------------------------------------- *)
(* Map arithmetic                                                    *)
(* ---------------------------------------------------------------- *)

let pin_pos (d : Design.t) = function
  | Net.Cell_pin { cell; dx; dy } ->
    let fp = d.Design.floorplan in
    let c = d.Design.cells.(cell) in
    ((c.Cell.x * fp.Floorplan.site_width) + dx,
     (c.Cell.y * fp.Floorplan.row_height) + dy)
  | Net.Fixed_pin { px; py } -> (px, py)

let compute_box t (net : Net.t) (b : box) =
  b.bxl <- no_box;
  List.iter
    (fun ep ->
       let px, py = pin_pos t.design ep in
       if b.bxl = no_box then begin
         b.bxl <- px; b.bxh <- px; b.byl <- py; b.byh <- py
       end
       else begin
         if px < b.bxl then b.bxl <- px;
         if px > b.bxh then b.bxh <- px;
         if py < b.byl then b.byl <- py;
         if py > b.byh then b.byh <- py
       end)
    net.Net.endpoints

(* The per-(net, bin) contribution is a pure function of the net's box
   and the bin, rounded once to an integer — adding and removing a box
   therefore cancel exactly, which is what makes incremental == rebuilt
   an equality of ints rather than an approximation of floats. *)
let iter_box_contribs t (b : box) f =
  if b.bxl <> no_box then begin
    let rect = Rect.make ~xl:b.bxl ~yl:b.byl ~xh:(b.bxh + 1) ~yh:(b.byh + 1) in
    match Grid.bins_of_rect_dbu t.grid rect with
    | None -> ()
    | Some (bx_lo, by_lo, bx_hi, by_hi) ->
      let w = float_of_int (b.bxh - b.bxl + 1)
      and h = float_of_int (b.byh - b.byl + 1) in
      let density = (w +. h) /. (w *. h) in
      for by = by_lo to by_hi do
        for bx = bx_lo to bx_hi do
          let i = Grid.index t.grid ~bx ~by in
          let ov = Rect.area (Rect.inter rect (Grid.bin_rect_dbu t.grid i)) in
          let contrib =
            int_of_float ((float_of_int ov *. density *. scale) +. 0.5)
          in
          f i contrib
        done
      done
  end

let add_box t b = iter_box_contribs t b (fun i c -> t.demand.(i) <- t.demand.(i) + c)
let remove_box t b = iter_box_contribs t b (fun i c -> t.demand.(i) <- t.demand.(i) - c)

let add_pin t ~px ~py delta =
  let i = Grid.bin_of_dbu t.grid ~px ~py in
  t.pins.(i) <- t.pins.(i) + delta

(* ---------------------------------------------------------------- *)
(* Construction / rebuild                                            *)
(* ---------------------------------------------------------------- *)

let populate t =
  Array.fill t.demand 0 (Array.length t.demand) 0;
  Array.fill t.pins 0 (Array.length t.pins) 0;
  Array.iteri
    (fun n (net : Net.t) ->
       compute_box t net t.boxes.(n);
       add_box t t.boxes.(n);
       List.iter
         (fun ep ->
            let px, py = pin_pos t.design ep in
            add_pin t ~px ~py 1)
         net.Net.endpoints)
    t.design.Design.nets

let make ?bin_sites design =
  let grid = Grid.make ?bin_sites design.Design.floorplan in
  let nets = design.Design.nets in
  let n_cells = Design.num_cells design in
  let net_lists = Array.make n_cells [] in
  let pin_lists = Array.make n_cells [] in
  Array.iteri
    (fun n (net : Net.t) ->
       List.iter
         (fun ep ->
            match ep with
            | Net.Cell_pin { cell; dx; dy } ->
              (match net_lists.(cell) with
               | m :: _ when m = n -> ()  (* this net is already recorded *)
               | _ -> net_lists.(cell) <- n :: net_lists.(cell));
              pin_lists.(cell) <- (dx, dy) :: pin_lists.(cell)
            | Net.Fixed_pin _ -> ())
         net.Net.endpoints)
    nets;
  let t =
    { design;
      grid;
      demand = Array.make (Grid.num_bins grid) 0;
      pins = Array.make (Grid.num_bins grid) 0;
      boxes =
        Array.init (Array.length nets) (fun _ ->
            { bxl = no_box; byl = 0; bxh = 0; byh = 0 });
      cell_nets = Array.map (fun l -> Array.of_list (List.rev l)) net_lists;
      cell_pins = Array.map (fun l -> Array.of_list (List.rev l)) pin_lists;
      journal = [] }
  in
  t

let create ?bin_sites design =
  let t = make ?bin_sites design in
  populate t;
  t

let rebuild t =
  t.journal <- [];
  populate t

(* ---------------------------------------------------------------- *)
(* Incremental updates                                               *)
(* ---------------------------------------------------------------- *)

(* The design already holds the cell's new position; the maps still
   account for it at [(old_x, old_y)]. Pin counts move by offset; each
   incident net's old box is subtracted (exactly), recomputed from the
   current positions, and re-added. *)
let refresh_cell t ~cell ~old_x ~old_y =
  let fp = t.design.Design.floorplan in
  let c = t.design.Design.cells.(cell) in
  let sw = fp.Floorplan.site_width and rh = fp.Floorplan.row_height in
  Array.iter
    (fun (dx, dy) ->
       add_pin t ~px:((old_x * sw) + dx) ~py:((old_y * rh) + dy) (-1);
       add_pin t ~px:((c.Cell.x * sw) + dx) ~py:((c.Cell.y * rh) + dy) 1)
    t.cell_pins.(cell);
  Array.iter
    (fun n ->
       let b = t.boxes.(n) in
       remove_box t b;
       compute_box t t.design.Design.nets.(n) b;
       add_box t b)
    t.cell_nets.(cell)

let move t ~cell ~x ~y =
  let c = t.design.Design.cells.(cell) in
  let old_x = c.Cell.x and old_y = c.Cell.y in
  if old_x <> x || old_y <> y then begin
    c.Cell.x <- x;
    c.Cell.y <- y;
    refresh_cell t ~cell ~old_x ~old_y
  end

let apply_move t ~cell ~x ~y =
  let c = t.design.Design.cells.(cell) in
  if c.Cell.is_fixed then invalid_arg "Congestion.apply_move: fixed cell";
  t.journal <- (cell, c.Cell.x, c.Cell.y) :: t.journal;
  move t ~cell ~x ~y

let undo t =
  match t.journal with
  | [] -> false
  | (cell, x, y) :: rest ->
    t.journal <- rest;
    move t ~cell ~x ~y;
    true

let sync t ~moved =
  List.iter
    (fun (cell, old_x, old_y) ->
       let c = t.design.Design.cells.(cell) in
       if c.Cell.x <> old_x || c.Cell.y <> old_y then
         refresh_cell t ~cell ~old_x ~old_y)
    moved

(* ---------------------------------------------------------------- *)
(* Queries                                                           *)
(* ---------------------------------------------------------------- *)

let wire_density t i =
  float_of_int t.demand.(i) /. scale /. float_of_int (Grid.bin_area_dbu t.grid i)

let pin_density t i =
  let g = t.grid in
  float_of_int (t.pins.(i) * g.Grid.site_width * g.Grid.row_height)
  /. float_of_int (Grid.bin_area_dbu g i)

let overflow t i =
  Float.max 0.0 (wire_density t i -. 1.0)
  +. Float.max 0.0 (pin_density t i -. 1.0)

type hotspot = {
  bx : int;
  by : int;
  hs_overflow : float;
  hs_wire : float;
  hs_pins : float;
}

type summary = {
  bins : int;
  max_overflow : float;
  avg_overflow : float;
  overfull : int;
  max_pin_density : float;
  hotspots : hotspot list;
}

let summarize ?(top_k = 5) t =
  let n = Grid.num_bins t.grid in
  let total = ref 0.0 and worst = ref 0.0 and overfull = ref 0 in
  let max_pins = ref 0.0 in
  (* the [top_k] worst bins so far, best first: overflow descending
     (Float.compare), bin index ascending — deterministic hotspots,
     picked in the same pass as the totals *)
  let k = Int.max 0 (Int.min top_k n) in
  let top_ov = Array.make k 0.0 and top_i = Array.make k 0 in
  let kept = ref 0 in
  (* bins arrive by ascending index, so an equal overflow never
     outranks a kept one *)
  let outranks ov j = Float.compare ov top_ov.(j) > 0 in
  for i = 0 to n - 1 do
    let ov = overflow t i in
    total := !total +. ov;
    if ov > !worst then worst := ov;
    if ov > 0.0 then incr overfull;
    let pd = pin_density t i in
    if pd > !max_pins then max_pins := pd;
    if !kept < k || (k > 0 && outranks ov (k - 1)) then begin
      let p = ref (if !kept < k then !kept else k - 1) in
      if !kept < k then incr kept;
      while !p > 0 && outranks ov (!p - 1) do
        top_ov.(!p) <- top_ov.(!p - 1);
        top_i.(!p) <- top_i.(!p - 1);
        decr p
      done;
      top_ov.(!p) <- ov;
      top_i.(!p) <- i
    end
  done;
  let hotspots =
    List.init !kept (fun j -> (top_ov.(j), top_i.(j)))
    |> List.filter (fun (ov, _) -> ov > 0.0)
    |> List.map (fun (ov, i) ->
        { bx = i mod t.grid.Grid.nx;
          by = i / t.grid.Grid.nx;
          hs_overflow = ov;
          hs_wire = wire_density t i;
          hs_pins = pin_density t i })
  in
  { bins = n;
    max_overflow = !worst;
    avg_overflow = (if n = 0 then 0.0 else !total /. float_of_int n);
    overfull = !overfull;
    max_pin_density = !max_pins;
    hotspots }

let cost t ~rect_dbu =
  match Grid.bins_of_rect_dbu t.grid rect_dbu with
  | None -> 0.0
  | Some (bx_lo, by_lo, bx_hi, by_hi) ->
    let acc = ref 0.0 and area = ref 0 in
    for by = by_lo to by_hi do
      for bx = bx_lo to bx_hi do
        let i = Grid.index t.grid ~bx ~by in
        let ov = Rect.area (Rect.inter rect_dbu (Grid.bin_rect_dbu t.grid i)) in
        acc := !acc +. (float_of_int ov *. overflow t i);
        area := !area + ov
      done
    done;
    if !area = 0 then 0.0 else !acc /. float_of_int !area

let equal a b =
  a.grid = b.grid && a.demand = b.demand && a.pins = b.pins
