(* Incremental re-legalization (Eco) and the SVG renderer. *)

open Mcl_netlist

let base_design seed =
  Mcl_gen.Generator.generate
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.seed;
      num_cells = 300;
      density = 0.55;
      height_mix = [ (1, 0.8); (2, 0.2) ];
      name = Printf.sprintf "eco%d" seed }

let test_eco_restores_legality () =
  let d = base_design 5 in
  let cfg = Mcl.Config.default in
  ignore (Mcl.Pipeline.run cfg d);
  (* rip three cells out and drop them on top of others *)
  let victims = [ 10; 77; 150 ] in
  List.iter
    (fun id ->
       let c = d.Design.cells.(id) in
       c.Cell.x <- d.Design.cells.(0).Cell.x;
       c.Cell.y <- d.Design.cells.(0).Cell.y)
    victims;
  Alcotest.(check bool) "broken before" false (Mcl_eval.Legality.is_legal d);
  let s = Mcl.Eco.relegalize (Mcl.Eco.context cfg d) ~cells:victims in
  Alcotest.(check int) "all reinserted" 3 s.Mcl.Eco.relegalized;
  Alcotest.(check bool) "legal after" true (Mcl_eval.Legality.is_legal d);
  (* displacement stats measure the re-inserted cells from GP anchors *)
  Alcotest.(check bool) "max <= total" true
    (s.Mcl.Eco.max_disp_rows <= s.Mcl.Eco.total_disp_rows +. 1e-9);
  let by_hand =
    List.fold_left
      (fun acc id ->
         acc +. Mcl_eval.Metrics.displacement d d.Design.cells.(id))
      0.0 victims
  in
  Alcotest.(check (float 1e-6)) "total matches metrics" by_hand
    s.Mcl.Eco.total_disp_rows

let test_eco_targets_move_cell () =
  let d = base_design 6 in
  let cfg = Mcl.Config.default in
  ignore (Mcl.Pipeline.run cfg d);
  let id = 42 in
  let c = d.Design.cells.(id) in
  let fp = d.Design.floorplan in
  (* ask for the far corner *)
  let tx = fp.Floorplan.num_sites - 20 and ty = fp.Floorplan.num_rows - 2 in
  ignore
    (Mcl.Eco.relegalize ~targets:[ (id, (tx, ty)) ] (Mcl.Eco.context cfg d)
       ~cells:[]);
  Alcotest.(check bool) "legal" true (Mcl_eval.Legality.is_legal d);
  let dist = abs (c.Cell.x - tx) + abs (c.Cell.y - ty) in
  Alcotest.(check bool)
    (Printf.sprintf "landed near the target (%d,%d vs %d,%d)" c.Cell.x c.Cell.y tx ty)
    true (dist < 20)

let test_eco_rejects_fixed () =
  let d =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with
        Mcl_gen.Spec.num_cells = 100;
        num_macros = 1;
        name = "eco_fixed" }
  in
  let macro =
    Array.to_list d.Design.cells
    |> List.find (fun (c : Cell.t) -> c.Cell.is_fixed)
  in
  let code_of = function
    | Mcl_analysis.Diagnostic.Failed (diag :: _) ->
      Some diag.Mcl_analysis.Diagnostic.code
    | _ -> None
  in
  (* typed S3xx diagnostics instead of stringly Invalid_argument; and
     because validation runs before anchors are rebound, a rejected
     request must leave the design bit-identical *)
  let pos = Design.snapshot d and anchors = Design.snapshot_anchors d in
  (match
     Mcl.Eco.relegalize
       (Mcl.Eco.context Mcl.Config.default d)
       ~targets:[ (0, (1, 1)) ] ~cells:[ macro.Cell.id ]
   with
   | _ -> Alcotest.fail "fixed cell was accepted"
   | exception e ->
     Alcotest.(check (option string)) "S303 code"
       (Some "S303-eco-fixed-cell") (code_of e));
  Alcotest.(check bool) "positions untouched" true (pos = Design.snapshot d);
  Alcotest.(check bool) "anchors untouched" true
    (anchors = Design.snapshot_anchors d);
  (match
     Mcl.Eco.relegalize (Mcl.Eco.context Mcl.Config.default d)
       ~cells:[ 99_999 ]
   with
   | _ -> Alcotest.fail "unknown cell was accepted"
   | exception e ->
     Alcotest.(check (option string)) "S302 code"
       (Some "S302-eco-unknown-cell") (code_of e))

let prop_eco_preserves_rest =
  QCheck.Test.make ~name:"eco leaves distant cells untouched" ~count:6
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = base_design seed in
       let cfg = Mcl.Config.default in
       ignore (Mcl.Pipeline.run cfg d);
       let snap = Design.snapshot d in
       let victim = seed mod 200 in
       if d.Design.cells.(victim).Cell.is_fixed then true
       else begin
         ignore (Mcl.Eco.relegalize (Mcl.Eco.context cfg d) ~cells:[ victim ]);
         (* cells further than the largest window from the victim's GP
            cannot have moved *)
         let v = d.Design.cells.(victim) in
         let moved_far =
           Array.exists
             (fun (c : Cell.t) ->
                let ox, oy = snap.(c.Cell.id) in
                (c.Cell.x <> ox || c.Cell.y <> oy)
                && c.Cell.id <> victim
                && (abs (ox - v.Cell.gp_x) > 400 || abs (oy - v.Cell.gp_y) > 40))
             d.Design.cells
         in
         Mcl_eval.Legality.is_legal d && not moved_far
       end)

let test_svg_renders () =
  let d = base_design 7 in
  ignore (Mcl.Pipeline.run Mcl.Config.default d);
  let svg = Mcl_eval.Svg_render.render d in
  Alcotest.(check bool) "is svg" true
    (String.length svg > 200
     && String.sub svg 0 4 = "<svg"
     && String.length svg - 7 = String.index_from svg (String.length svg - 8) '<');
  (* one rect per cell at least *)
  let rects = ref 0 in
  String.iteri (fun i ch -> if ch = 'r' && i + 4 < String.length svg
                  && String.sub svg i 5 = "rect " then incr rects) svg;
  Alcotest.(check bool) "cells drawn" true (!rects >= Design.num_cells d)

let () =
  Alcotest.run "eco"
    [ ("eco",
       [ Alcotest.test_case "restores legality" `Quick test_eco_restores_legality;
         Alcotest.test_case "target override" `Quick test_eco_targets_move_cell;
         Alcotest.test_case "rejects fixed" `Quick test_eco_rejects_fixed;
         QCheck_alcotest.to_alcotest prop_eco_preserves_rest ]);
      ("svg", [ Alcotest.test_case "renders" `Quick test_svg_renders ]) ]
