module Interval = Mcl_geom.Interval
module Graph = Mcl_flow.Graph
module Ns = Mcl_flow.Network_simplex
open Mcl_netlist

type stats = {
  cells : int;
  arcs : int;
  weighted_disp_before : float;
  weighted_disp_after : float;
  mcf_objective : int;
}

(* integer weights n_i (Eq. 2 / Table 2): scaled so capacities stay
   small while preserving the per-height ratios *)
let cell_weights config design =
  match config.Config.objective with
  | Config.Total -> Array.map (fun (_ : Cell.t) -> 16) design.Design.cells
  | Config.Average_weighted ->
    let h_max = Design.max_height design in
    let counts =
      Array.init (h_max + 1) (fun h -> if h = 0 then 0 else Design.cells_of_height design h)
    in
    Array.map
      (fun (c : Cell.t) ->
         let h = Design.height design c in
         max 1 (16 * max 1 counts.(1) / max 1 counts.(h)))
      design.Design.cells

module Budget = Mcl_resilience.Budget

type problem_cell = {
  cell : Cell.t;
  node : int;
  mutable lo : int;  (* feasible left-edge range *)
  mutable hi : int;
  dy : int;          (* y displacement in site units (constant here) *)
}

let build_and_solve ?budget config design =
  let fp = design.Design.floorplan in
  let segments =
    Segment.build ~boundary_gap:(Mgl.boundary_gap config design)
      ~respect_fences:config.Config.consider_fences design
  in
  let routability =
    if config.Config.consider_routability then Some (Routability.create design)
    else None
  in
  let placement = Placement.of_design design in
  let weights = cell_weights config design in
  let g = Graph.create () in
  let vz = Graph.add_node g ~supply:0 in
  let dy_ratio = fp.Floorplan.row_height / fp.Floorplan.site_width in
  let pcs =
    Array.to_list design.Design.cells
    |> List.filter (fun (c : Cell.t) -> not c.Cell.is_fixed)
    |> List.map (fun (c : Cell.t) ->
        { cell = c;
          node = Graph.add_node g ~supply:0;
          lo = min_int;
          hi = max_int;
          dy = abs (c.Cell.y - c.Cell.gp_y) * dy_ratio })
    |> Array.of_list
  in
  let node_of = Hashtbl.create (Array.length pcs) in
  Array.iter (fun pc -> Hashtbl.add node_of pc.cell.Cell.id pc) pcs;
  (* --- bounds from spans and fixed neighbours; pairs from adjacency --- *)
  let spacing l r =
    if config.Config.consider_routability then Floorplan.spacing fp ~l ~r else 0
  in
  let edge_type (c : Cell.t) = (Design.cell_type design c).Cell_type.edge_type in
  let pairs = Hashtbl.create 256 in
  for row = 0 to fp.Floorplan.num_rows - 1 do
    let arr, len = Placement.row_cells placement row in
    for i = 0 to len - 1 do
      let c = design.Design.cells.(arr.(i)) in
      (match Hashtbl.find_opt node_of c.Cell.id with
       | None -> ()
       | Some pc ->
         (* span bound for this row *)
         let reg = Segment.region_of segments c in
         (match Segment.span_at segments ~row ~region:reg ~x:c.Cell.x with
          | Some s ->
            pc.lo <- max pc.lo s.Interval.lo;
            pc.hi <- min pc.hi (s.Interval.hi - Design.width design c)
          | None ->
            (* shouldn't happen on a legal input; freeze the cell *)
            pc.lo <- max pc.lo c.Cell.x;
            pc.hi <- min pc.hi c.Cell.x);
         (* neighbour on the right *)
         if i + 1 < len then begin
           let d = design.Design.cells.(arr.(i + 1)) in
           (* If the input already violates a spacing rule, relax the
              pair gap to the current distance: the LP must stay
              feasible at the current point (and never makes an
              existing violation worse). *)
           let gap =
             min
               (Design.width design c + spacing (edge_type c) (edge_type d))
               (d.Cell.x - c.Cell.x)
           in
           match Hashtbl.find_opt node_of d.Cell.id with
           | Some _pd when Segment.region_of segments d = reg ->
             (* movable-movable pair constraint *)
             let key = (c.Cell.id, d.Cell.id) in
             if not (Hashtbl.mem pairs key) then Hashtbl.add pairs key gap
             else if Hashtbl.find pairs key < gap then Hashtbl.replace pairs key gap
           | Some _ -> ()  (* different regions: span bounds suffice *)
           | None ->
             (* fixed neighbour: right bound *)
             pc.hi <- min pc.hi (d.Cell.x - gap)
         end;
         (* fixed neighbour on the left *)
         if i > 0 then begin
           let b = design.Design.cells.(arr.(i - 1)) in
           if not (Hashtbl.mem node_of b.Cell.id) then begin
             let gap = Design.width design b + spacing (edge_type b) (edge_type c) in
             pc.lo <- max pc.lo (b.Cell.x + gap)
           end
         end)
    done
  done;
  (* --- routability feasible ranges (Sec. 3.4): C_L = C_R = C --- *)
  (match routability with
   | None -> ()
   | Some r ->
     Array.iter
       (fun pc ->
          let c = pc.cell in
          let lo, hi =
            Routability.feasible_x_range r ~type_id:c.Cell.type_id ~x:c.Cell.x
              ~y:c.Cell.y ~span_lo:pc.lo ~span_hi:pc.hi ~max_reach:96
          in
          pc.lo <- max pc.lo lo;
          pc.hi <- min pc.hi hi)
       pcs);
  (* the current placement must stay feasible *)
  Array.iter
    (fun pc ->
       pc.lo <- min pc.lo pc.cell.Cell.x;
       pc.hi <- max pc.hi pc.cell.Cell.x)
    pcs;
  (* --- arcs --- *)
  let cap_inf =
    Array.fold_left (fun acc pc -> acc + weights.(pc.cell.Cell.id)) 1 pcs
  in
  Array.iter
    (fun pc ->
       let n_i = weights.(pc.cell.Cell.id) in
       let x' = pc.cell.Cell.gp_x in
       ignore (Graph.add_arc g ~src:pc.node ~dst:vz ~cap:n_i ~cost:x');
       ignore (Graph.add_arc g ~src:vz ~dst:pc.node ~cap:n_i ~cost:(-x'));
       ignore (Graph.add_arc g ~src:vz ~dst:pc.node ~cap:cap_inf ~cost:(-pc.lo));
       ignore (Graph.add_arc g ~src:pc.node ~dst:vz ~cap:cap_inf ~cost:pc.hi))
    pcs;
  (* Arc insertion order fixes the solver's internal arc ids and hence
     its tie-breaking among equal-cost pivots; iterate the pair keys
     sorted so the network — and the recovered dual — is identical on
     every run (detlint K102). *)
  Hashtbl.fold (fun key gap acc -> (key, gap) :: acc) pairs []
  |> List.sort (fun (((ia, ja), _) : (int * int) * int) (((ib, jb), _)) ->
      match Int.compare ia ib with 0 -> Int.compare ja jb | c -> c)
  |> List.iter (fun ((i, j), gap) ->
      let pi = Hashtbl.find node_of i and pj = Hashtbl.find node_of j in
      ignore (Graph.add_arc g ~src:pi.node ~dst:pj.node ~cap:cap_inf ~cost:(-gap)));
  (* --- max-displacement extension (Eq. 8/9) --- *)
  if config.Config.n0_factor > 0.0 && Array.length pcs > 0 then begin
    let vp = Graph.add_node g ~supply:0 in
    let vn = Graph.add_node g ~supply:0 in
    let mean_w =
      Array.fold_left (fun acc pc -> acc + weights.(pc.cell.Cell.id)) 0 pcs
      / Array.length pcs
    in
    let n0 = max 1 (int_of_float (config.Config.n0_factor *. float_of_int mean_w)) in
    let max_dy = Array.fold_left (fun acc pc -> max acc pc.dy) 0 pcs in
    Array.iter
      (fun pc ->
         let x' = pc.cell.Cell.gp_x in
         ignore (Graph.add_arc g ~src:pc.node ~dst:vp ~cap:cap_inf ~cost:(x' - pc.dy));
         ignore (Graph.add_arc g ~src:vn ~dst:pc.node ~cap:cap_inf ~cost:(-x' - pc.dy)))
      pcs;
    ignore (Graph.add_arc g ~src:vp ~dst:vz ~cap:n0 ~cost:max_dy);
    ignore (Graph.add_arc g ~src:vz ~dst:vn ~cap:n0 ~cost:max_dy)
  end;
  (* barrier: a malformed network would make the dual recovery below
     silently wrong, so audit the instance before handing it to the
     solver *)
  (match
     List.filter
       (fun d -> d.Mcl_analysis.Diagnostic.severity = Mcl_analysis.Diagnostic.Error)
       (Mcl_analysis.Audit.network ~stage:"row-order" g)
   with
   | [] -> ()
   | errors -> Mcl_analysis.Diagnostic.fail errors);
  (* flow-pivot boundary: the solver mutates only its own tableau, so
     a deadline raise mid-solve abandons the network untouched and the
     placement stays exactly as it was *)
  let on_pivot () = Budget.check budget in
  let result = Ns.solve ~pivot:config.Config.pivot_rule ~on_pivot g in
  (g, vz, pcs, result)

let objective config design =
  (* Eq. 8 objective in site units: sum n_i |dx_i| + n0 * (max right
     reach + max left reach), where reach folds in the frozen dy *)
  let fp = design.Design.floorplan in
  let weights = cell_weights config design in
  let dy_ratio = fp.Floorplan.row_height / fp.Floorplan.site_width in
  let total = ref 0.0 in
  let max_pos = ref 0 and max_neg = ref 0 in
  let mean_w = ref 0 and count = ref 0 in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.is_fixed then begin
         let dx = c.x - c.gp_x in
         let dy = abs (c.y - c.gp_y) * dy_ratio in
         total := !total +. float_of_int (weights.(c.id) * abs dx);
         max_pos := max !max_pos (max 0 dx + dy);
         max_neg := max !max_neg (max 0 (-dx) + dy);
         mean_w := !mean_w + weights.(c.id);
         incr count
       end)
    design.Design.cells;
  if !count = 0 then 0.0
  else begin
    let n0 =
      if config.Config.n0_factor > 0.0 then
        max 1 (int_of_float (config.Config.n0_factor *. float_of_int (!mean_w / !count)))
      else 0
    in
    !total +. float_of_int (n0 * (!max_pos + !max_neg))
  end

let run ?budget config design =
  let before = objective config design in
  let snapshot = Design.snapshot design in
  let g, vz, pcs, result = build_and_solve ?budget config design in
  (match result.Ns.status with
   | Ns.Infeasible ->
     (* circulations are always feasible; this cannot happen *)
     Mcl_analysis.Diagnostic.(
       fail
         [ error ~code:"N203-infeasible-circulation" ~stage:"row-order"
             "solver reported an infeasible circulation" ])
   | Ns.Optimal -> ());
  let pot = result.Ns.potential in
  let pz = pot.(vz) in
  Array.iter
    (fun pc ->
       let x = pz - pot.(pc.node) in
       (* potentials of an optimal dual are feasible by construction;
          clamp defensively against any numeric edge *)
       let x = max pc.lo (min pc.hi x) in
       pc.cell.Cell.x <- x)
    pcs;
  (* The recovered dual is optimal and feasible by LP duality, but a
     broken solve must never corrupt a legal placement: verify and roll
     back if anything is off. *)
  let after = objective config design in
  let after =
    if after > before +. 1e-6 || not (Mcl_eval.Legality.is_legal design) then begin
      Design.restore design snapshot;
      before
    end
    else after
  in
  { cells = Array.length pcs;
    arcs = Graph.num_arcs g;
    weighted_disp_before = before;
    weighted_disp_after = after;
    mcf_objective = result.Ns.total_cost }
