(* Reproductions of the paper's illustrative figures as regression
   tests: Fig. 3 (MGL vs MLL toy) and Fig. 5 (3-cell MCF toy). *)

open Mcl_netlist

(* ---- Figure 3 ---- *)

let fig3_design () =
  let fp = Floorplan.make ~num_sites:12 ~num_rows:1 ~site_width:2 ~row_height:20 () in
  let types =
    [| Cell_type.make ~type_id:0 ~name:"w1" ~width:1 ~height:1 ();
       Cell_type.make ~type_id:1 ~name:"w2" ~width:2 ~height:1 () |]
  in
  let cells =
    [| Cell.make ~id:0 ~type_id:1 ~gp_x:1 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:4 ~gp_y:0 ();
       Cell.make ~id:2 ~type_id:0 ~gp_x:9 ~gp_y:0 ();
       Cell.make ~id:3 ~type_id:1 ~gp_x:3 ~gp_y:0 () |]
  in
  cells.(1).Cell.x <- 3;
  cells.(2).Cell.x <- 10;
  Design.make ~name:"fig3" ~floorplan:fp ~cell_types:types ~cells ()

let insert ~disp_from =
  let d = fig3_design () in
  let cfg = Mcl.Config.total_displacement in
  let segments = Mcl.Segment.build ~respect_fences:false d in
  let placement = Mcl.Placement.create d in
  List.iter (Mcl.Placement.add placement) [ 0; 1; 2 ];
  let ctx =
    Mcl.Insertion.make_ctx ~disp_from cfg d ~placement ~segments ~routability:None
  in
  let window = Mcl_geom.Rect.make ~xl:0 ~yl:0 ~xh:12 ~yh:1 in
  (match Mcl.Insertion.best ctx ~target:3 ~window with
   | Some cand -> Mcl.Insertion.apply ctx ~target:3 cand
   | None -> Alcotest.fail "no insertion point");
  d

let test_fig3_mll_total_three () =
  let d = insert ~disp_from:`Current in
  Alcotest.(check bool) "legal" true (Mcl_eval.Legality.is_legal d);
  Alcotest.(check (float 1e-9)) "MLL lands at total 3" 3.0
    (Mcl_eval.Metrics.total_displacement_sites d)

let test_fig3_mgl_total_two () =
  let d = insert ~disp_from:`Gp in
  Alcotest.(check bool) "legal" true (Mcl_eval.Legality.is_legal d);
  Alcotest.(check (float 1e-9)) "MGL lands at total 2" 2.0
    (Mcl_eval.Metrics.total_displacement_sites d);
  (* the pre-displaced cell D was pushed back through its GP *)
  Alcotest.(check int) "target at its GP" 3 d.Design.cells.(3).Cell.x

(* ---- Figure 5 ---- *)

let test_fig5_toy_mcf () =
  let fp = Floorplan.make ~num_sites:12 ~num_rows:2 ~site_width:2 ~row_height:20 () in
  let types =
    [| Cell_type.make ~type_id:0 ~name:"s" ~width:4 ~height:1 ();
       Cell_type.make ~type_id:1 ~name:"d" ~width:4 ~height:2 () |]
  in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:2 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:2 ~gp_y:1 ();
       Cell.make ~id:2 ~type_id:1 ~gp_x:4 ~gp_y:0 () |]
  in
  cells.(0).Cell.x <- 0;
  cells.(1).Cell.x <- 1;
  cells.(2).Cell.x <- 6;
  let d = Design.make ~name:"fig5" ~floorplan:fp ~cell_types:types ~cells () in
  let cfg = { Mcl.Config.total_displacement with Mcl.Config.n0_factor = 0.0 } in
  let s = Mcl.Row_order_opt.run cfg d in
  Alcotest.(check int) "c1 at gp" 2 d.Design.cells.(0).Cell.x;
  Alcotest.(check int) "c2 at gp" 2 d.Design.cells.(1).Cell.x;
  Alcotest.(check int) "c3 pinned by both neighbours" 6 d.Design.cells.(2).Cell.x;
  Alcotest.(check bool) "legal" true (Mcl_eval.Legality.is_legal d);
  (* optimal weighted x displacement: only c3 displaced by 2; weight 16 *)
  Alcotest.(check (float 1e-9)) "objective optimal" 32.0
    s.Mcl.Row_order_opt.weighted_disp_after

(* Paper claim (abstract): the maximum-displacement extension never
   makes the result illegal and the solver agrees across pivot rules. *)
let test_fig5_solver_agreement () =
  List.iter
    (fun pivot_rule ->
       let fp = Floorplan.make ~num_sites:30 ~num_rows:2 ~site_width:2 ~row_height:20 () in
       let types = [| Cell_type.make ~type_id:0 ~name:"s" ~width:4 ~height:1 () |] in
       let cells =
         Array.init 5 (fun i ->
             let c = Cell.make ~id:i ~type_id:0 ~gp_x:(3 * i) ~gp_y:0 () in
             c.Cell.x <- 5 * i;
             c)
       in
       let d = Design.make ~name:"agree" ~floorplan:fp ~cell_types:types ~cells () in
       let cfg =
         { Mcl.Config.total_displacement with
           Mcl.Config.pivot_rule; n0_factor = 0.0 }
       in
       let s = Mcl.Row_order_opt.run cfg d in
       Alcotest.(check bool)
         (Printf.sprintf "legal with solver variant")
         true
         (Mcl_eval.Legality.is_legal d);
       (* cells can pack to 0,3,6,9,13 wait: widths 4: 0,4,8,12,16; gps
          0,3,6,9,12: optimum is x_i = max(gp chain): 0,4,8,12,16 ->
          disp 0+1+2+3+4 = 10 (x16 weight) *)
       Alcotest.(check (float 1e-9)) "objective" 160.0
         s.Mcl.Row_order_opt.weighted_disp_after)
    [ Mcl_flow.Network_simplex.Block_search;
      Mcl_flow.Network_simplex.First_eligible ]

let () =
  Alcotest.run "figures"
    [ ("fig3",
       [ Alcotest.test_case "MLL totals 3" `Quick test_fig3_mll_total_three;
         Alcotest.test_case "MGL totals 2" `Quick test_fig3_mgl_total_two ]);
      ("fig5",
       [ Alcotest.test_case "3-cell toy optimum" `Quick test_fig5_toy_mcf;
         Alcotest.test_case "pivot rules agree" `Quick test_fig5_solver_agreement ]) ]
