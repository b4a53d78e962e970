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

let context config design =
  { (Mgl.context config design ~placement:(Placement.of_design design)) with
    Insertion.log = Some (Arena.Ibuf.create 48) }

let relegalize ?(targets = []) ?budget ?(greedy = false) (ctx : Insertion.ctx)
    ~cells =
  let design = ctx.Insertion.design in
  if ctx.Insertion.log = None then
    invalid_arg "Eco.relegalize: context without an undo log";
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
  Insertion.clear_log ctx;
  try
    (* target overrides: an ECO that moves a cell updates its GP anchor *)
    List.iter
      (fun (id, (x, y)) ->
         let c = design.Design.cells.(id) in
         Insertion.log_anchor ctx c;
         c.Cell.gp_x <- x;
         c.Cell.gp_y <- y)
      targets;
    List.iter (Placement.remove ctx.Insertion.placement) eco;
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
    (* Shifts keep a row's x-order only among cells that do not
       overlap. On an overlapping placement (an ECO before any
       legalize) a shifted cell can pass a neighbour, and a cell added
       next to it lands by a binary search over the disordered row.
       Re-seat every cell the run moved: the others kept their x and
       their order, so the rows are again exactly what a fresh build
       over these positions holds, which the next ECO relies on. *)
    let placement = ctx.Insertion.placement in
    List.iter
      (fun (id, _, _) ->
         Placement.remove placement id;
         Placement.add placement id)
      (Insertion.moved ctx);
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
  with e ->
    Insertion.undo ctx;
    raise e
