open Mcl_netlist
module Diagnostic = Mcl_analysis.Diagnostic

type stats = {
  relegalized : int;
  window_growths : int;
  fallbacks : int;
  total_disp_rows : float;
  max_disp_rows : float;
  kernel : Arena.counters;
}

let relegalize ?(targets = []) ?budget ?(greedy = false) config design ~cells =
  let eco = List.sort_uniq Int.compare (cells @ List.map fst targets) in
  (* validate before touching any anchor, so a rejected request leaves
     the design bit-identical (the service relies on this) *)
  List.iter
    (fun id ->
       if id < 0 || id >= Design.num_cells design then
         Diagnostic.(
           fail
             [ error ~code:"S302-eco-unknown-cell" ~stage:"eco"
                 (Printf.sprintf "ECO names cell %d, design has %d cells" id
                    (Design.num_cells design)) ]);
       if design.Design.cells.(id).Cell.is_fixed then
         Diagnostic.(
           fail
             [ error ~code:"S303-eco-fixed-cell" ~stage:"eco" ~loc:(Cell id)
                 "ECO targets a fixed cell" ]))
    eco;
  (* target overrides: an ECO that moves a cell updates its GP anchor *)
  List.iter
    (fun (id, (x, y)) ->
       let c = design.Design.cells.(id) in
       c.Cell.gp_x <- x;
       c.Cell.gp_y <- y)
    targets;
  let segments =
    Segment.build ~boundary_gap:(Mgl.boundary_gap config design)
      ~respect_fences:config.Config.consider_fences design
  in
  let routability =
    if config.Config.consider_routability then Some (Routability.create design)
    else None
  in
  let placement = Placement.create design in
  let in_eco = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_eco id ()) eco;
  Array.iter
    (fun (c : Cell.t) ->
       if not (Hashtbl.mem in_eco c.Cell.id) then Placement.add placement c.Cell.id)
    design.Design.cells;
  let ctx =
    Insertion.make_ctx ?congest:(Mgl.congest_map config design) config design
      ~placement ~segments ~routability
  in
  (* taller cells first, like MGL's main order *)
  let order =
    List.sort
      (fun a b ->
         let ca = design.Design.cells.(a) and cb = design.Design.cells.(b) in
         compare
           (-Design.height design ca, -Design.width design ca, a)
           (-Design.height design cb, -Design.width design cb, b))
      eco
    |> Array.of_list
  in
  let s = Mgl.run_with_ctx ?budget ~greedy ctx ~order in
  let total_disp, max_disp =
    List.fold_left
      (fun (total, mx) id ->
         let d = Mcl_eval.Metrics.displacement design design.Design.cells.(id) in
         (total +. d, Float.max mx d))
      (0.0, 0.0) eco
  in
  { relegalized = s.Mgl.legalized;
    window_growths = s.Mgl.window_growths;
    fallbacks = s.Mgl.fallbacks;
    total_disp_rows = total_disp;
    max_disp_rows = max_disp;
    kernel = s.Mgl.kernel }
