open Mcl_netlist

let gen ?(cells = 300) ?(density = 0.6) ?(fences = 0) ?(routability = false) seed =
  Mcl_gen.Generator.generate
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.seed;
      num_cells = cells;
      density;
      height_mix = [ (1, 0.75); (2, 0.15); (3, 0.1) ];
      num_fences = fences;
      fence_cell_frac = (if fences > 0 then 0.12 else 0.0);
      routability;
      name = Printf.sprintf "pp%d" seed }

let cfg ~routability ~fences =
  { Mcl.Config.default with
    Mcl.Config.consider_routability = routability;
    consider_fences = fences }

let check_legal design =
  match Mcl_eval.Legality.check design with
  | [] -> ()
  | vs ->
    Alcotest.failf "illegal: %s"
      (String.concat ", "
         (List.map (Format.asprintf "%a" Mcl_eval.Legality.pp_violation)
            (List.filteri (fun i _ -> i < 8) vs)))

(* ---------- matching (Sec 3.2) ---------- *)

let test_phi () =
  let phi = Mcl.Matching_opt.phi ~delta0:10.0 in
  Alcotest.(check (float 1e-9)) "linear below" 5.0 (phi 5.0);
  Alcotest.(check (float 1e-9)) "linear at threshold" 10.0 (phi 10.0);
  Alcotest.(check (float 1e-6)) "quintic above" (32.0 *. 100000.0 /. 10000.0) (phi 20.0);
  Alcotest.(check bool) "monotone" true (phi 30.0 > phi 20.0)

let test_matching_reduces_phi () =
  let d = gen 7 in
  let c = cfg ~routability:false ~fences:false in
  ignore (Mcl.Mgl.run c d);
  check_legal d;
  let s = Mcl.Matching_opt.run c d in
  check_legal d;
  Alcotest.(check bool) "phi not increased" true
    (s.Mcl.Matching_opt.phi_after <= s.Mcl.Matching_opt.phi_before +. 1e-6)

let prop_matching_preserves_legality =
  QCheck.Test.make ~name:"matching preserves legality and phi" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = gen ~cells:200 ~fences:2 ~routability:true seed in
       let c = cfg ~routability:true ~fences:true in
       ignore (Mcl.Mgl.run c d);
       let np_before, ne_before = Mcl_eval.Routability_check.counts d in
       let s = Mcl.Matching_opt.run c d in
       let np_after, ne_after = Mcl_eval.Routability_check.counts d in
       Mcl_eval.Legality.check d = []
       && s.Mcl.Matching_opt.phi_after <= s.Mcl.Matching_opt.phi_before +. 1e-6
       (* same-type swaps cannot create new routability violations *)
       && np_after <= np_before
       && ne_after <= ne_before)

(* ---------- fixed row & order (Sec 3.3) ---------- *)

let test_row_order_improves () =
  let d = gen 11 in
  let c = cfg ~routability:false ~fences:false in
  ignore (Mcl.Mgl.run c d);
  check_legal d;
  let before = Mcl_eval.Metrics.average_displacement d in
  let s = Mcl.Row_order_opt.run c d in
  check_legal d;
  let after = Mcl_eval.Metrics.average_displacement d in
  Alcotest.(check bool)
    (Printf.sprintf "objective %f -> %f" s.Mcl.Row_order_opt.weighted_disp_before
       s.Mcl.Row_order_opt.weighted_disp_after)
    true
    (s.Mcl.Row_order_opt.weighted_disp_after
     <= s.Mcl.Row_order_opt.weighted_disp_before +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "avg disp %f -> %f" before after)
    true (after <= before +. 1e-9)

let test_row_order_preserves_order () =
  let d = gen 13 in
  let c = cfg ~routability:false ~fences:false in
  ignore (Mcl.Mgl.run c d);
  (* record per-row order *)
  let order_of () =
    let fp = d.Design.floorplan in
    List.init fp.Floorplan.num_rows (fun row ->
        Array.to_list d.Design.cells
        |> List.filter (fun (cl : Cell.t) ->
            row >= cl.Cell.y && row < cl.Cell.y + Design.height d cl)
        |> List.sort (fun (a : Cell.t) (b : Cell.t) -> compare (a.Cell.x, a.Cell.id) (b.Cell.x, b.Cell.id))
        |> List.map (fun (cl : Cell.t) -> cl.Cell.id))
  in
  let rows_y_before = Array.map (fun (cl : Cell.t) -> cl.Cell.y) d.Design.cells in
  let before = order_of () in
  ignore (Mcl.Row_order_opt.run c d);
  let after = order_of () in
  Alcotest.(check bool) "order preserved" true (before = after);
  Array.iteri
    (fun i (cl : Cell.t) ->
       Alcotest.(check int) "row unchanged" rows_y_before.(i) cl.Cell.y)
    d.Design.cells

(* Strong-duality check: the weighted x-displacement objective equals
   -(mcf cost) for the pure total-displacement formulation (n0 = 0). *)
let prop_row_order_strong_duality =
  QCheck.Test.make ~name:"row-order MCF strong duality" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = gen ~cells:150 seed in
       let c =
         { (cfg ~routability:false ~fences:false) with
           Mcl.Config.objective = Mcl.Config.Total;
           n0_factor = 0.0 }
       in
       ignore (Mcl.Mgl.run c d);
       let s = Mcl.Row_order_opt.run c d in
       (* weights are 16 per cell in Total mode; objective counts only
          x-displacement *)
       let fp = d.Design.floorplan in
       ignore fp;
       let xdisp =
         Array.fold_left
           (fun acc (cl : Cell.t) ->
              if cl.Cell.is_fixed then acc else acc + (16 * abs (cl.Cell.x - cl.Cell.gp_x)))
           0 d.Design.cells
       in
       Mcl_eval.Legality.check d = []
       && xdisp = -s.Mcl.Row_order_opt.mcf_objective)

let prop_row_order_legal_full =
  QCheck.Test.make ~name:"row-order preserves legality (fences+routability)" ~count:8
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = gen ~cells:200 ~fences:2 ~routability:true seed in
       let c = cfg ~routability:true ~fences:true in
       ignore (Mcl.Mgl.run c d);
       let np_before, ne_before = Mcl_eval.Routability_check.counts d in
       ignore (Mcl.Row_order_opt.run c d);
       let np_after, ne_after = Mcl_eval.Routability_check.counts d in
       Mcl_eval.Legality.check d = [] && np_after <= np_before && ne_after <= ne_before)

(* ---------- determinism ---------- *)

(* Both post-passes used to walk their work tables with Hashtbl.iter;
   they now iterate in sorted key order. Pin the resulting positions:
   two runs over identical inputs must agree cell-for-cell, including
   under a deadline that can expire mid-loop (a partial prefix of an
   unsorted iteration is where the order-dependence would show). *)
let positions d =
  Array.map (fun (cl : Cell.t) -> (cl.Cell.x, cl.Cell.y)) d.Design.cells

let check_same_positions what a b =
  Array.iteri
    (fun i (x, y) ->
       let x', y' = b.(i) in
       if x <> x' || y <> y' then
         Alcotest.failf "%s: cell %d diverged (%d,%d) vs (%d,%d)" what i x y x' y')
    a

let test_matching_deterministic () =
  let run () =
    let d = gen ~cells:250 ~fences:2 ~routability:true 17 in
    let c = cfg ~routability:true ~fences:true in
    ignore (Mcl.Mgl.run c d);
    ignore (Mcl.Matching_opt.run c d);
    positions d
  in
  check_same_positions "matching" (run ()) (run ())

let test_row_order_deterministic () =
  let run () =
    let d = gen ~cells:250 ~fences:2 ~routability:true 19 in
    let c = cfg ~routability:true ~fences:true in
    ignore (Mcl.Mgl.run c d);
    ignore (Mcl.Row_order_opt.run c d);
    positions d
  in
  check_same_positions "row-order" (run ()) (run ())

(* Matching's candidate edges come from Array.sort over displacements,
   an unstable sort whose order among ties depends on its exact
   comparison sequence; a different sort picks different tied
   neighbours and moves cells. These digests of every cell position
   after MGL + matching pin that order on two Table-1 designs and one
   design tiled 4x. *)
let positions_digest (d : Design.t) =
  let b = Buffer.create (16 * Array.length d.Design.cells) in
  Array.iter
    (fun (c : Cell.t) -> Printf.bprintf b "%d,%d;" c.Cell.x c.Cell.y)
    d.Design.cells;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_matching_digests () =
  let roster = Mcl_gen.Suites.iccad2017 ~scale:0.1 () in
  let tiled = Mcl_gen.Suites.iccad2017 ~scale:0.1 ~replicate:4 () in
  List.iter
    (fun (spec, expected) ->
       let d = Mcl_gen.Generator.generate spec in
       let c = Mcl.Config.default in
       ignore (Mcl.Scheduler.run c d);
       ignore (Mcl.Matching_opt.run c d);
       Alcotest.(check string)
         (Printf.sprintf "positions after matching (%s x%d)"
            spec.Mcl_gen.Spec.name spec.Mcl_gen.Spec.replicate)
         expected (positions_digest d))
    [ (List.nth roster 0, "c614372795ef168f8aeb617c9c7bc5f9");
      (List.nth roster 5, "4bab41dae0c2370042a5633da2012435");
      (List.nth tiled 2, "b106dbd48776be86a3162b86800644ba") ]

(* ---------- scheduler (Sec 3.5) ---------- *)

let test_scheduler_matches_sequential_quality () =
  let spec_seed = 21 in
  let c = cfg ~routability:false ~fences:false in
  let d1 = gen spec_seed in
  ignore (Mcl.Scheduler.run c d1);
  check_legal d1;
  let d2 = gen spec_seed in
  ignore (Mcl.Scheduler.run { c with Mcl.Config.threads = 4 } d2);
  check_legal d2;
  (* determinism: same positions with 1 or 4 threads *)
  Array.iteri
    (fun i (cl : Cell.t) ->
       Alcotest.(check int) (Printf.sprintf "x of cell %d" i) cl.Cell.x
         d2.Design.cells.(i).Cell.x;
       Alcotest.(check int) (Printf.sprintf "y of cell %d" i) cl.Cell.y
         d2.Design.cells.(i).Cell.y)
    d1.Design.cells

(* ---------- baselines ---------- *)

let prop_greedy_legal =
  QCheck.Test.make ~name:"greedy baseline output legal" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = gen ~cells:250 ~fences:2 seed in
       let c = cfg ~routability:false ~fences:true in
       ignore (Mcl.Baseline_greedy.run c d);
       Mcl_eval.Legality.check d = [])

let prop_abacus_legal =
  QCheck.Test.make ~name:"abacus baseline output legal" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
       let d = gen ~cells:250 seed in
       let c = cfg ~routability:false ~fences:false in
       ignore (Mcl.Baseline_abacus.run c d);
       Mcl_eval.Legality.check d = [])

let test_pipeline_beats_greedy () =
  let d1 = gen ~cells:500 ~density:0.7 3 in
  let d2 = gen ~cells:500 ~density:0.7 3 in
  let c = cfg ~routability:false ~fences:false in
  ignore (Mcl.Pipeline.run c d1);
  check_legal d1;
  ignore (Mcl.Baseline_greedy.run c d2);
  check_legal d2;
  let ours = Mcl_eval.Metrics.average_displacement d1 in
  let greedy = Mcl_eval.Metrics.average_displacement d2 in
  Alcotest.(check bool)
    (Printf.sprintf "ours %.3f < greedy %.3f" ours greedy)
    true (ours < greedy)

let () =
  Alcotest.run "postprocess"
    [ ("matching",
       [ Alcotest.test_case "phi shape" `Quick test_phi;
         Alcotest.test_case "reduces phi" `Quick test_matching_reduces_phi;
         QCheck_alcotest.to_alcotest prop_matching_preserves_legality;
         Alcotest.test_case "positions pinned by digest" `Quick
           test_matching_digests ]);
      ("row-order",
       [ Alcotest.test_case "improves objective" `Quick test_row_order_improves;
         Alcotest.test_case "preserves order" `Quick test_row_order_preserves_order;
         QCheck_alcotest.to_alcotest prop_row_order_strong_duality;
         QCheck_alcotest.to_alcotest prop_row_order_legal_full ]);
      ("determinism",
       [ Alcotest.test_case "matching positions repeatable" `Quick
           test_matching_deterministic;
         Alcotest.test_case "row-order positions repeatable" `Quick
           test_row_order_deterministic ]);
      ("scheduler",
       [ Alcotest.test_case "parallel deterministic" `Quick
           test_scheduler_matches_sequential_quality ]);
      ("baselines",
       [ QCheck_alcotest.to_alcotest prop_greedy_legal;
         QCheck_alcotest.to_alcotest prop_abacus_legal;
         Alcotest.test_case "pipeline beats greedy" `Quick test_pipeline_beats_greedy ]) ]
