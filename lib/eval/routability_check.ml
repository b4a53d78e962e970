module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect
open Mcl_netlist

type pin_violation = {
  cell : int;
  pin_name : string;
  kind : [ `Short | `Access ];
  against : [ `Hrail | `Vrail | `Io ];
}

type edge_violation = { left_cell : int; right_cell : int; need : int; got : int }

(* Relation between a pin layer and an obstacle layer. *)
let relation ~pin_layer ~obstacle_layer =
  if Layer.equal pin_layer obstacle_layer then Some `Short
  else
    match Layer.above pin_layer with
    | Some up when Layer.equal up obstacle_layer -> Some `Access
    | Some _ | None -> None

(* Stripes come sorted by [lo] and all have one width, so they are
   sorted by [hi] too. Those ending at or before [iv.lo] miss [iv]; if
   the first one ending after it misses too, it starts at or after
   [iv.hi], and so does every later one. *)
let overlaps_any (stripes : Interval.t array) (iv : Interval.t) =
  let lo = ref 0 and hi = ref (Array.length stripes) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if stripes.(mid).Interval.hi <= iv.Interval.lo then lo := mid + 1
    else hi := mid
  done;
  !lo < Array.length stripes && Interval.overlaps stripes.(!lo) iv

(* Staged: applying it to a design builds the stripe arrays and the IO
   index once, so checking every cell costs no more per cell than its
   own pins. *)
let cell_pin_violations design =
  let fp = design.Design.floorplan in
  let hstripes = Array.of_list (Floorplan.hrail_stripes fp) in
  let vstripes = Array.of_list (Floorplan.vrail_stripes fp) in
  let io = Io_index.create fp in
  let ios = Io_index.pins io in
  fun (c : Cell.t) ~x ~y ->
    let ct = Design.cell_type design c in
    let ox = x * fp.Floorplan.site_width and oy = y * fp.Floorplan.row_height in
    let check_pin (p : Cell_type.pin) =
      let shape = Rect.shift p.Cell_type.shape ~dx:ox ~dy:oy in
      let acc = ref [] in
      let add kind against =
        acc := { cell = c.id; pin_name = p.Cell_type.pin_name; kind; against } :: !acc
      in
      (* horizontal stripes live on M2 and span the full die width *)
      (match relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M2 with
       | Some kind -> if overlaps_any hstripes shape.Rect.y then add kind `Hrail
       | None -> ());
      (* vertical stripes live on M3 and span the full die height *)
      (match relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M3 with
       | Some kind -> if overlaps_any vstripes shape.Rect.x then add kind `Vrail
       | None -> ());
      (* IO hits in floorplan order, as a scan of every IO pin finds them *)
      let hits = ref [] in
      Io_index.iter_near io shape (fun id ->
          let pin = ios.(id) in
          match
            relation ~pin_layer:p.Cell_type.layer
              ~obstacle_layer:pin.Floorplan.io_layer
          with
          | Some kind ->
            if Rect.overlaps shape pin.Floorplan.io_rect then
              hits := (id, kind) :: !hits
          | None -> ());
      List.iter
        (fun (_, kind) -> add kind `Io)
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) !hits);
      !acc
    in
    List.concat_map check_pin ct.Cell_type.pins

let pin_violations design =
  let check = cell_pin_violations design in
  Array.to_list design.Design.cells
  |> List.concat_map (fun (c : Cell.t) ->
      if c.Cell.is_fixed then [] else check c ~x:c.Cell.x ~y:c.Cell.y)

let edge_violations design =
  let fp = design.Design.floorplan in
  let per_row = Array.make fp.Floorplan.num_rows [] in
  Array.iter
    (fun (c : Cell.t) ->
       let r = Design.cell_rect design c in
       for y = max 0 r.Rect.y.Interval.lo
         to min (fp.Floorplan.num_rows - 1) (r.Rect.y.Interval.hi - 1) do
         per_row.(y) <- c :: per_row.(y)
       done)
    design.Design.cells;
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun cells ->
       let sorted =
         List.sort (fun (a : Cell.t) (b : Cell.t) -> compare (a.x, a.id) (b.x, b.id)) cells
       in
       let rec scan = function
         | a :: (b :: _ as rest) ->
           let need =
             Floorplan.spacing fp
               ~l:(Design.cell_type design a).Cell_type.edge_type
               ~r:(Design.cell_type design b).Cell_type.edge_type
           in
           let got = b.Cell.x - (a.Cell.x + Design.width design a) in
           if got < need && not (Hashtbl.mem seen (a.Cell.id, b.Cell.id)) then begin
             Hashtbl.add seen (a.Cell.id, b.Cell.id) ();
             out := { left_cell = a.Cell.id; right_cell = b.Cell.id; need; got } :: !out
           end;
           scan rest
         | [ _ ] | [] -> ()
       in
       scan sorted)
    per_row;
  List.rev !out

let counts design =
  (List.length (pin_violations design), List.length (edge_violations design))
