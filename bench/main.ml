(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §3 and EXPERIMENTS.md).

   Usage:  dune exec bench/main.exe -- [section] [scale]
   Sections: table1 table2 table3 fig3 fig4 fig5 fig6 ablation congest
             shard exact all (default: all, scale 1.0). *)

open Mcl_netlist

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun a x -> a +. log (Float.max 1e-9 x)) 0.0 xs
         /. float_of_int (List.length xs))

(* ---------------------------------------------------------------- *)
(* Table 1: ours vs the contest-champion stand-in (greedy) on the    *)
(* ICCAD-2017-like suite, with fences and routability constraints.   *)
(* ---------------------------------------------------------------- *)

let table1 ~scale () =
  Printf.printf
    "== Table 1: comparison with the ICCAD'17-champion stand-in ==\n\
     (avg/max displacement in row heights; S per Eq. 10; 1st = greedy \
     stand-in)\n\n";
  Printf.printf
    "%-20s %8s %7s | %7s %7s | %6s %6s | %5s %5s | %5s %5s | %7s %7s | %6s %6s\n"
    "benchmark" "#cells" "dens" "avg1st" "avgOurs" "max1st" "maxOur" "pin1"
    "pinO" "edge1" "edgeO" "S-1st" "S-ours" "t1st" "tOurs";
  let ratios_avg = ref [] and ratios_max = ref [] and ratios_s = ref [] in
  let rows = ref [] in
  List.iter
    (fun spec ->
       let d_ours = Mcl_gen.Generator.generate spec in
       let d_champ = Mcl_gen.Generator.generate spec in
       let gp_hpwl = Mcl_eval.Metrics.hpwl d_ours in
       let density = Mcl.Insertion.utilization d_ours in
       let _, t_champ = timed (fun () -> Mcl.Baseline_greedy.run Mcl.Config.default d_champ) in
       let s_champ = Mcl_eval.Score.evaluate ~gp_hpwl d_champ in
       let _, t_ours = timed (fun () -> Mcl.Pipeline.run Mcl.Config.default d_ours) in
       let s_ours = Mcl_eval.Score.evaluate ~gp_hpwl d_ours in
       assert (Mcl_eval.Legality.is_legal d_ours);
       assert (Mcl_eval.Legality.is_legal d_champ);
       Printf.printf
         "%-20s %8d %6.1f%% | %7.3f %7.3f | %6.1f %6.1f | %5d %5d | %5d %5d | %7.3f %7.3f | %6.2f %6.2f\n%!"
         spec.Mcl_gen.Spec.name (Design.num_cells d_ours) (density *. 100.0)
         s_champ.Mcl_eval.Score.avg_disp s_ours.Mcl_eval.Score.avg_disp
         s_champ.Mcl_eval.Score.max_disp s_ours.Mcl_eval.Score.max_disp
         s_champ.Mcl_eval.Score.pin_violations s_ours.Mcl_eval.Score.pin_violations
         s_champ.Mcl_eval.Score.edge_violations s_ours.Mcl_eval.Score.edge_violations
         s_champ.Mcl_eval.Score.score s_ours.Mcl_eval.Score.score t_champ t_ours;
       ratios_avg :=
         (s_champ.Mcl_eval.Score.avg_disp /. Float.max 1e-9 s_ours.Mcl_eval.Score.avg_disp)
         :: !ratios_avg;
       ratios_max :=
         (s_champ.Mcl_eval.Score.max_disp /. Float.max 1e-9 s_ours.Mcl_eval.Score.max_disp)
         :: !ratios_max;
       ratios_s :=
         (s_champ.Mcl_eval.Score.score /. Float.max 1e-9 s_ours.Mcl_eval.Score.score)
         :: !ratios_s;
       rows := (spec.Mcl_gen.Spec.name, s_champ, s_ours) :: !rows)
    (Mcl_gen.Suites.iccad2017 ~scale ());
  Printf.printf
    "\nNorm. avg (1st / ours): avg disp %.2f, max disp %.2f, score %.2f\n\
     (paper: 1.18 avg, 1.12 max, 1.26 score)\n\n"
    (geomean !ratios_avg) (geomean !ratios_max) (geomean !ratios_s)

(* ---------------------------------------------------------------- *)
(* Table 2: total displacement vs MLL-Imp [12], Abacus-style [7] and  *)
(* the [9] stand-in (MLL + fixed-row-order MCF), routability off.     *)
(* ---------------------------------------------------------------- *)

let table2 ~scale () =
  Printf.printf
    "== Table 2: total displacement (sites) vs prior legalizers ==\n\
     ([12]-Imp = MLL; [7] = Abacus-style ordered; [9]* = MLL + MCF \
     refinement stand-in)\n\n";
  Printf.printf "%-16s %8s %7s | %10s %10s %10s %10s | %6s %6s %6s %6s\n"
    "benchmark" "#cells" "dens" "[12]-Imp" "[7]" "[9]*" "Ours" "t12" "t7" "t9"
    "tOurs";
  let r12 = ref [] and r7 = ref [] and r9 = ref [] in
  let t12 = ref [] and t7 = ref [] and t9 = ref [] and tq = ref [] in
  List.iter
    (fun spec ->
       let cfg = Mcl.Config.total_displacement in
       let run_on algo =
         let d = Mcl_gen.Generator.generate spec in
         let (), t = timed (fun () -> algo d) in
         assert (Mcl_eval.Legality.is_legal d);
         (Mcl_eval.Metrics.total_displacement_sites d, t, d)
       in
       let disp_mll, time_mll, _ =
         run_on (fun d -> ignore (Mcl.Scheduler.run ~disp_from:`Current cfg d))
       in
       let disp_ab, time_ab, _ =
         run_on (fun d -> ignore (Mcl.Baseline_abacus.run cfg d))
       in
       let disp_lcp, time_lcp, _ =
         run_on (fun d ->
             ignore (Mcl.Scheduler.run ~disp_from:`Current cfg d);
             ignore (Mcl.Row_order_opt.run cfg d))
       in
       let disp_ours, time_ours, d_ours =
         run_on (fun d -> ignore (Mcl.Pipeline.run cfg d))
       in
       Printf.printf
         "%-16s %8d %6.1f%% | %10.0f %10.0f %10.0f %10.0f | %6.2f %6.2f %6.2f %6.2f\n%!"
         spec.Mcl_gen.Spec.name (Design.num_cells d_ours)
         (Mcl.Insertion.utilization d_ours *. 100.0) disp_mll disp_ab disp_lcp
         disp_ours time_mll time_ab time_lcp time_ours;
       let ratio x = x /. Float.max 1e-9 disp_ours in
       r12 := ratio disp_mll :: !r12;
       r7 := ratio disp_ab :: !r7;
       r9 := ratio disp_lcp :: !r9;
       t12 := (time_mll /. Float.max 1e-6 time_ours) :: !t12;
       t7 := (time_ab /. Float.max 1e-6 time_ours) :: !t7;
       t9 := (time_lcp /. Float.max 1e-6 time_ours) :: !t9;
       tq := 1.0 :: !tq)
    (Mcl_gen.Suites.ispd2015 ~scale ());
  Printf.printf
    "\nNorm. avg total disp (x / ours): [12]-Imp %.2f, [7] %.2f, [9]* %.2f\n\
     (paper: 1.20, 1.17, 1.09)\n\
     Norm. avg runtime   (x / ours): [12]-Imp %.2f, [7] %.2f, [9]* %.2f\n\n"
    (geomean !r12) (geomean !r7) (geomean !r9) (geomean !t12) (geomean !t7)
    (geomean !t9)

(* ---------------------------------------------------------------- *)
(* Table 3: effect of the two post-processing stages.                 *)
(* ---------------------------------------------------------------- *)

let table3 ~scale () =
  Printf.printf "== Table 3: post-processing (before = MGL only) ==\n\n";
  Printf.printf "%-20s | %9s %9s | %9s %9s\n" "benchmark" "avgBefore"
    "avgAfter" "maxBefore" "maxAfter";
  let ravg = ref [] and rmax = ref [] in
  List.iter
    (fun spec ->
       let d = Mcl_gen.Generator.generate spec in
       let cfg = Mcl.Config.default in
       ignore (Mcl.Scheduler.run cfg d);
       let avg_b = Mcl_eval.Metrics.average_displacement d in
       let max_b = Mcl_eval.Metrics.max_displacement d in
       ignore (Mcl.Matching_opt.run cfg d);
       ignore (Mcl.Row_order_opt.run cfg d);
       let avg_a = Mcl_eval.Metrics.average_displacement d in
       let max_a = Mcl_eval.Metrics.max_displacement d in
       assert (Mcl_eval.Legality.is_legal d);
       Printf.printf "%-20s | %9.3f %9.3f | %9.1f %9.1f\n%!"
         spec.Mcl_gen.Spec.name avg_b avg_a max_b max_a;
       ravg := (avg_b /. Float.max 1e-9 avg_a) :: !ravg;
       rmax := (max_b /. Float.max 1e-9 max_a) :: !rmax)
    (Mcl_gen.Suites.iccad2017 ~scale ());
  Printf.printf
    "\nNorm. avg (before / after): avg disp %.2f, max disp %.2f\n\
     (paper: 1.01 avg, 1.23 max)\n\n"
    (geomean !ravg) (geomean !rmax)

(* ---------------------------------------------------------------- *)
(* Figure 3: the MGL vs MLL toy.                                      *)
(* ---------------------------------------------------------------- *)

let fig3_design () =
  let fp = Floorplan.make ~num_sites:12 ~num_rows:1 ~site_width:2 ~row_height:20 () in
  let types = [| Cell_type.make ~type_id:0 ~name:"w1" ~width:1 ~height:1 ();
                 Cell_type.make ~type_id:1 ~name:"w2" ~width:2 ~height:1 () |] in
  (* A at 1 (gp 1), D at 3 (gp 4, displaced 1), B at 10 (gp 9,
     displaced 1); target T (width 2) gp 3. *)
  let cells =
    [| Cell.make ~id:0 ~type_id:1 ~gp_x:1 ~gp_y:0 ();   (* A *)
       Cell.make ~id:1 ~type_id:0 ~gp_x:4 ~gp_y:0 ();   (* D *)
       Cell.make ~id:2 ~type_id:0 ~gp_x:9 ~gp_y:0 ();   (* B *)
       Cell.make ~id:3 ~type_id:1 ~gp_x:3 ~gp_y:0 () |] (* T *)
  in
  cells.(1).Cell.x <- 3;
  cells.(2).Cell.x <- 10;
  Design.make ~name:"fig3" ~floorplan:fp ~cell_types:types ~cells ()

let fig3_insert ~disp_from =
  let d = fig3_design () in
  let cfg =
    { Mcl.Config.default with
      Mcl.Config.consider_routability = false;
      consider_fences = false;
      objective = Mcl.Config.Total }
  in
  let segments = Mcl.Segment.build ~respect_fences:false d in
  let placement = Mcl.Placement.create d in
  List.iter (Mcl.Placement.add placement) [ 0; 1; 2 ];
  let ctx =
    Mcl.Insertion.make_ctx ~disp_from cfg d ~placement ~segments ~routability:None
  in
  let window = Mcl_geom.Rect.make ~xl:0 ~yl:0 ~xh:12 ~yh:1 in
  (match Mcl.Insertion.best ctx ~target:3 ~window with
   | Some cand -> Mcl.Insertion.apply ctx ~target:3 cand
   | None -> failwith "fig3: no insertion point");
  d

let fig3 () =
  Printf.printf "== Figure 3: MGL vs MLL on the toy instance ==\n\n";
  let show tag d =
    Printf.printf
      "%s: T at x=%d; positions A=%d D=%d B=%d; total displacement = %.0f sites\n"
      tag d.Design.cells.(3).Cell.x d.Design.cells.(0).Cell.x
      d.Design.cells.(1).Cell.x d.Design.cells.(2).Cell.x
      (Mcl_eval.Metrics.total_displacement_sites d)
  in
  let d_mll = fig3_insert ~disp_from:`Current in
  show "MLL (curr. disp)" d_mll;
  let d_mgl = fig3_insert ~disp_from:`Gp in
  show "MGL (GP disp)  " d_mgl;
  Printf.printf "(paper: MLL ends at total 3, MGL at total 2)\n\n"

(* ---------------------------------------------------------------- *)
(* Figure 4: the four displacement-curve types.                       *)
(* ---------------------------------------------------------------- *)

let fig4 () =
  Printf.printf "== Figure 4: displacement curve types A-D ==\n\n";
  let sample name mk =
    let c = Mcl.Curve.create () in
    mk c;
    Printf.printf "%-50s:" name;
    for x = 0 to 20 do
      Printf.printf " %3.0f" (Mcl.Curve.eval c x)
    done;
    print_newline ()
  in
  (* right-of-p cell, GP at/left of current: pushed right only (A) *)
  sample "A: right cell, gp <= cur (pushed off its GP)"
    (fun c -> Mcl.Curve.add_right c ~weight:1.0 ~cur:10 ~gp:8 ~dist:2);
  (* left-of-p cell, current at GP: pushed left only (B) *)
  sample "B: left cell, gp >= cur (MLL-style)"
    (fun c -> Mcl.Curve.add_left c ~weight:1.0 ~cur:10 ~gp:10 ~dist:2);
  (* right cell whose GP lies right of current: V-shaped (C) *)
  sample "C: right cell, gp > cur (push helps, then hurts)"
    (fun c -> Mcl.Curve.add_right c ~weight:1.0 ~cur:6 ~gp:12 ~dist:2);
  (* left cell whose GP lies left of current: V then flat (D) *)
  sample "D: left cell, gp < cur"
    (fun c -> Mcl.Curve.add_left c ~weight:1.0 ~cur:14 ~gp:6 ~dist:2);
  let c = Mcl.Curve.create () in
  Mcl.Curve.add_target c ~weight:1.0 ~gp:10;
  Mcl.Curve.add_right c ~weight:1.0 ~cur:6 ~gp:12 ~dist:2;
  Mcl.Curve.add_left c ~weight:1.0 ~cur:14 ~gp:6 ~dist:2;
  let x, v = Mcl.Curve.minimize c ~lo:0 ~hi:20 in
  Printf.printf "\nsummed curve minimized by breakpoint sweep: x*=%d cost=%.1f\n\n" x v

(* ---------------------------------------------------------------- *)
(* Figure 5: the 3-cell fixed-row/order MCF toy.                      *)
(* ---------------------------------------------------------------- *)

let fig5 () =
  Printf.printf "== Figure 5: fixed row & order MCF on the 3-cell toy ==\n\n";
  let fp = Floorplan.make ~num_sites:12 ~num_rows:2 ~site_width:2 ~row_height:20 () in
  let types = [| Cell_type.make ~type_id:0 ~name:"s" ~width:4 ~height:1 ();
                 Cell_type.make ~type_id:1 ~name:"d" ~width:4 ~height:2 () |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:2 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:2 ~gp_y:1 ();
       Cell.make ~id:2 ~type_id:1 ~gp_x:4 ~gp_y:0 () |]
  in
  cells.(0).Cell.x <- 0;
  cells.(1).Cell.x <- 1;
  cells.(2).Cell.x <- 6;
  let d = Design.make ~name:"fig5" ~floorplan:fp ~cell_types:types ~cells () in
  let cfg =
    { Mcl.Config.total_displacement with Mcl.Config.n0_factor = 0.0 }
  in
  let s = Mcl.Row_order_opt.run cfg d in
  Printf.printf
    "c1: %d -> %d (gp 2), c2: %d -> %d (gp 2), c3 (double row): %d -> %d (gp 4)\n"
    0 d.Design.cells.(0).Cell.x 1 d.Design.cells.(1).Cell.x 6
    d.Design.cells.(2).Cell.x;
  Printf.printf "flow network: %d arcs; objective %.0f -> %.0f (optimal: 2,2,6)\n\n"
    s.Mcl.Row_order_opt.arcs s.Mcl.Row_order_opt.weighted_disp_before
    s.Mcl.Row_order_opt.weighted_disp_after

(* ---------------------------------------------------------------- *)
(* Figure 6: max-displacement matching, before/after profile.         *)
(* ---------------------------------------------------------------- *)

let fig6 ~scale () =
  Printf.printf "== Figure 6: matching-based max-displacement optimization ==\n\n";
  let spec =
    match Mcl_gen.Suites.find ~scale "des_perf_a_md2" with
    | Some s -> s
    | None -> assert false
  in
  let d = Mcl_gen.Generator.generate spec in
  let cfg = Mcl.Config.default in
  ignore (Mcl.Scheduler.run cfg d);
  let profile () =
    let disps =
      Array.to_list d.Design.cells
      |> List.filter (fun (c : Cell.t) -> not c.Cell.is_fixed)
      |> List.map (fun c -> Mcl_eval.Metrics.displacement d c)
      |> List.sort (fun a b -> compare b a)
    in
    (List.filteri (fun i _ -> i < 10) disps,
     Mcl_eval.Metrics.average_displacement d)
  in
  let top_b, avg_b = profile () in
  (* find the same-type group with the furthest-displaced cell and
     highlight it, like the paper's red cells *)
  let worst_type =
    Array.fold_left
      (fun (best_t, best_d) (c : Cell.t) ->
         if c.Cell.is_fixed then (best_t, best_d)
         else
           let disp = Mcl_eval.Metrics.displacement d c in
           if disp > best_d then (c.Cell.type_id, disp) else (best_t, best_d))
      (0, 0.0) d.Design.cells
    |> fst
  in
  Mcl_eval.Svg_render.write_file ~highlight_type:worst_type "fig6_before.svg" d;
  let s = Mcl.Matching_opt.run cfg d in
  Mcl_eval.Svg_render.write_file ~highlight_type:worst_type "fig6_after.svg" d;
  let top_a, avg_a = profile () in
  let show l = String.concat " " (List.map (Printf.sprintf "%5.1f") l) in
  Printf.printf "top-10 displacements before: %s\n" (show top_b);
  Printf.printf "top-10 displacements after : %s\n" (show top_a);
  Printf.printf "average: %.3f -> %.3f; cells moved: %d (phi %.0f -> %.0f)\n"
    avg_b avg_a s.Mcl.Matching_opt.cells_moved s.Mcl.Matching_opt.phi_before
    s.Mcl.Matching_opt.phi_after;
  Printf.printf "wrote fig6_before.svg / fig6_after.svg (red = most-displaced type)\n\n"

(* ---------------------------------------------------------------- *)
(* Ablations: design choices called out in DESIGN.md.                 *)
(* ---------------------------------------------------------------- *)

let ablation ~scale () =
  Printf.printf "== Ablations (benchmark: des_perf_b_md2) ==\n\n";
  let spec =
    match Mcl_gen.Suites.find ~scale "des_perf_b_md2" with
    | Some s -> s
    | None -> assert false
  in
  let run cfg =
    let d = Mcl_gen.Generator.generate spec in
    let gp_hpwl = Mcl_eval.Metrics.hpwl d in
    let _, t = timed (fun () -> Mcl.Pipeline.run cfg d) in
    (Mcl_eval.Score.evaluate ~gp_hpwl d, t)
  in
  Printf.printf "%-40s %8s %8s %6s %6s %8s\n" "variant" "avg" "max" "pins"
    "edges" "time";
  let show name (s : Mcl_eval.Score.t) t =
    Printf.printf "%-40s %8.3f %8.1f %6d %6d %7.2fs\n%!" name
      s.Mcl_eval.Score.avg_disp s.Mcl_eval.Score.max_disp
      s.Mcl_eval.Score.pin_violations s.Mcl_eval.Score.edge_violations t
  in
  let base = Mcl.Config.default in
  let s, t = run base in
  show "full pipeline (delta0=8, n0=4)" s t;
  let s, t = run { base with Mcl.Config.run_matching = false } in
  show "no matching stage" s t;
  let s, t = run { base with Mcl.Config.run_row_order = false } in
  show "no row-order stage" s t;
  let s, t = run { base with Mcl.Config.consider_routability = false } in
  show "routability off" s t;
  List.iter
    (fun d0 ->
       let s, t = run { base with Mcl.Config.delta0_rows = d0 } in
       show (Printf.sprintf "matching delta0 = %.0f rows" d0) s t)
    [ 2.0; 16.0 ];
  List.iter
    (fun n0 ->
       let s, t = run { base with Mcl.Config.n0_factor = n0 } in
       show (Printf.sprintf "row-order n0 = %.0f" n0) s t)
    [ 0.0; 16.0 ];
  List.iter
    (fun hw ->
       let s, t = run { base with Mcl.Config.window_halfwidth = hw } in
       show (Printf.sprintf "initial window halfwidth = %d" hw) s t)
    [ 10; 60 ];
  (let s, t =
     run
       { base with
         Mcl.Config.pivot_rule = Mcl_flow.Network_simplex.First_eligible }
   in
   show "solver: NS first-eligible pivots (paper)" s t);
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Congestion: incremental-map throughput. Races apply_move/undo      *)
(* against full rebuilds on a hotspotted design and cross-checks the  *)
(* incremental map against a fresh one. Emits BENCH_congest.json.     *)
(* ---------------------------------------------------------------- *)

let congest ~scale () =
  let module C = Mcl_congest.Congestion in
  let module Json = Mcl_service.Json in
  Printf.printf "== Congestion: incremental RUDY map ==\n\n";
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "congest_bench";
      num_cells = max 300 (int_of_float (3000.0 *. scale));
      hotspots = 4;
      nets_per_cell = 2.5;
      seed = 97 }
  in
  let d = Mcl_gen.Generator.generate spec in
  let fp = d.Design.floorplan in
  let cmap = C.create d in
  let prng = Mcl_geom.Prng.create 4242 in
  let n = Design.num_cells d in
  let moves = 2000 in
  let pick_movable () =
    let rec go () =
      let id = Mcl_geom.Prng.int prng n in
      if d.Design.cells.(id).Cell.is_fixed then go () else id
    in
    go ()
  in
  let random_pos id =
    let ct = Design.cell_type d d.Design.cells.(id) in
    ( Mcl_geom.Prng.int prng
        (max 1 (fp.Floorplan.num_sites - ct.Cell_type.width + 1)),
      Mcl_geom.Prng.int prng
        (max 1 (fp.Floorplan.num_rows - ct.Cell_type.height + 1)) )
  in
  let targets =
    Array.init moves (fun _ ->
        let id = pick_movable () in
        let x, y = random_pos id in
        (id, x, y))
  in
  let (), t_apply =
    timed (fun () ->
        Array.iter (fun (cell, x, y) -> C.apply_move cmap ~cell ~x ~y) targets)
  in
  let (), t_undo =
    timed (fun () -> while C.undo cmap do () done)
  in
  (* redo half the trace and leave it applied, so the cross-check and
     rebuild below run on a map that has genuinely drifted from the
     create-time placement *)
  Array.iteri
    (fun i (cell, x, y) -> if i mod 2 = 0 then C.apply_move cmap ~cell ~x ~y)
    targets;
  let fresh = C.create d in
  let ok = C.equal cmap fresh in
  let (), t_rebuild = timed (fun () -> C.rebuild cmap) in
  let grid = C.grid cmap in
  let apply_rate = float_of_int moves /. Float.max 1e-9 t_apply in
  let undo_rate = float_of_int moves /. Float.max 1e-9 t_undo in
  Printf.printf
    "incremental: %d moves @ %.0f apply/s, %.0f undo/s | full rebuild %.2fms \
     (%d bins) | incremental == rebuilt: %b\n\n%!"
    moves apply_rate undo_rate (t_rebuild *. 1000.0)
    (Mcl_congest.Grid.num_bins grid) ok;
  if not ok then failwith "congest bench: incremental map diverged from rebuild";
  let json =
    Json.Obj
      [ ("bench", Json.String "congest");
        ("scale", Json.Float scale);
        ("cells", Json.Int (Design.num_cells d));
        ("incremental",
         Json.Obj
           [ ("moves", Json.Int moves);
             ("apply_ops_per_s", Json.Float apply_rate);
             ("undo_ops_per_s", Json.Float undo_rate);
             ("rebuild_s", Json.Float t_rebuild);
             ("bins", Json.Int (Mcl_congest.Grid.num_bins grid));
             ("cross_check_equal", Json.Bool ok) ]) ]
  in
  let oc = open_out "BENCH_congest.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_congest.json\n\n"

(* ---------------------------------------------------------------- *)
(* Spatially-sharded legalization: cells/s vs domain count on wide    *)
(* replicated designs, seam-margin sweep, thread-count invariance and *)
(* the score-parity gate vs the sequential scheduler on the Table-1   *)
(* roster. Emits BENCH_shard.json.                                    *)
(* ---------------------------------------------------------------- *)

let shard ~scale () =
  let module Json = Mcl_service.Json in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "== Spatially-sharded legalization ==\n\
     (host reports %d core(s); the domain sweep sets shards = d and spawns\n\
    \ min(d, cores) worker domains — surplus domains on a smaller host only\n\
    \ add GC synchronization, never throughput. The d=1 baseline is the\n\
    \ sequential arena-kernel Mgl.run.)\n\n"
    host_cores;
  (* wide-die inputs: Table-1 designs tiled into long rows (and >= 50k
     cells at scale 1). The tile count rises as the per-design size
     shrinks so cells-per-row stays comparable across scales. Window
     builds scan only the window's slice of each row, so stripes win
     from parallel domains, not from shorter rows. *)
  let replicate = max 12 (int_of_float (Float.round (4.8 /. scale))) in
  let wide_specs =
    List.filter_map
      (fun name ->
         match Mcl_gen.Suites.find ~scale name with
         | Some s -> Some { s with Mcl_gen.Spec.replicate }
         | None -> None)
      [ "des_perf_1"; "edit_dist_a_md2" ]
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let wide_rows =
    List.map
      (fun spec ->
         let name =
           Printf.sprintf "%s_x%d" spec.Mcl_gen.Spec.name replicate
         in
         Printf.printf "%s:\n" name;
         let base_cps = ref 0.0 in
         let cps_by_domains = ref [] in
         let rows =
           List.map
             (fun d ->
                let design = Mcl_gen.Generator.generate spec in
                let legalized, t =
                  if d = 1 then begin
                    let s, t = timed (fun () -> Mcl.Mgl.run Mcl.Config.default design) in
                    (s.Mcl.Mgl.legalized, t)
                  end
                  else begin
                    let cfg =
                      { Mcl.Config.default with
                        Mcl.Config.shards = d;
                        threads = min d host_cores }
                    in
                    let s, t = timed (fun () -> Mcl.Scheduler.run cfg design) in
                    (s.Mcl.Scheduler.legalized, t)
                  end
                in
                assert (Mcl_eval.Legality.is_legal design);
                let cps = float_of_int legalized /. Float.max 1e-9 t in
                if d = 1 then base_cps := cps;
                cps_by_domains := (d, cps) :: !cps_by_domains;
                Printf.printf
                  "  domains=%d: %7.2fs %9.0f cells/s (%.2fx vs 1)\n%!" d t cps
                  (cps /. Float.max 1e-9 !base_cps);
                Json.Obj
                  [ ("domains", Json.Int d);
                    ("threads", Json.Int (min d host_cores));
                    ("cells", Json.Int legalized);
                    ("seconds", Json.Float t);
                    ("cells_per_s", Json.Float cps);
                    ("speedup_vs_1",
                     Json.Float (cps /. Float.max 1e-9 !base_cps)) ])
             domain_counts
         in
         let cps d = List.assoc d !cps_by_domains in
         let speedup_2 = cps 2 /. Float.max 1e-9 (cps 1) in
         let speedup_4 = cps 4 /. Float.max 1e-9 (cps 1) in
         Printf.printf "  2-domain speedup %.2fx, 4-domain speedup %.2fx\n\n%!"
           speedup_2 speedup_4;
         Json.Obj
           [ ("name", Json.String name);
             ("replicate", Json.Int replicate);
             ("domains", Json.List rows);
             ("speedup_2", Json.Float speedup_2);
             ("speedup_4", Json.Float speedup_4) ])
      wide_specs
  in
  (* thread-count invariance: seams fixed at 4 stripes, the pool width
     must not leak into the output *)
  let invariance =
    match wide_specs with
    | [] -> Json.Obj [ ("bit_identical", Json.Bool true) ]
    | spec :: _ ->
      let reference = ref None in
      let identical = ref true in
      List.iter
        (fun threads ->
           let design = Mcl_gen.Generator.generate spec in
           let cfg =
             { Mcl.Config.default with Mcl.Config.shards = 4; threads }
           in
           ignore (Mcl.Scheduler.run cfg design);
           let p = Design.snapshot design in
           match !reference with
           | None -> reference := Some p
           | Some q -> if p <> q then identical := false)
        [ 1; 2; 4 ];
      Printf.printf
        "Thread invariance (shards=4, threads in {1,2,4}): bit-identical %b\n\n%!"
        !identical;
      Json.Obj
        [ ("design",
           Json.String (Printf.sprintf "%s_x%d"
                          (List.hd wide_specs).Mcl_gen.Spec.name replicate));
          ("shards", Json.Int 4);
          ("bit_identical", Json.Bool !identical) ]
  in
  (* seam-margin sweep: wider margins push more cells to the boundary
     pass (less parallel work) in exchange for more slack at seams *)
  let margin_rows =
    match wide_specs with
    | [] -> []
    | spec :: _ ->
      Printf.printf "Seam-margin sweep (shards=4):\n";
      List.map
        (fun margin ->
           let design = Mcl_gen.Generator.generate spec in
           let cfg =
             { Mcl.Config.default with
               Mcl.Config.shards = 4;
               threads = min 4 host_cores }
           in
           let s, t =
             timed (fun () -> Mcl.Scheduler.run ~shard_margin:margin cfg design)
           in
           let cps =
             float_of_int s.Mcl.Scheduler.legalized /. Float.max 1e-9 t
           in
           let interior, boundary, deferred =
             match s.Mcl.Scheduler.sharding with
             | Some i ->
               (i.Mcl.Scheduler.interior_legalized,
                i.Mcl.Scheduler.boundary_zone, i.Mcl.Scheduler.deferred)
             | None -> (0, 0, 0)
           in
           Printf.printf
             "  margin=%3d: %9.0f cells/s interior=%d boundary=%d deferred=%d\n%!"
             margin cps interior boundary deferred;
           Json.Obj
             [ ("margin", Json.Int margin);
               ("cells_per_s", Json.Float cps);
               ("interior", Json.Int interior);
               ("boundary", Json.Int boundary);
               ("deferred", Json.Int deferred) ])
        [ 0; 8; 32 ]
  in
  (* parity gate: every Table-1 design, every domain count — the
     sharded output must be bit-identical to the sequential scheduler
     or (different seam geometry implies different insertion order)
     legality-clean within 15% of its Eq. 10 score (DESIGN.md §16) *)
  Printf.printf "\nParity vs sequential scheduler (Table-1 roster):\n";
  let all_ok = ref true in
  let parity_rows =
    List.concat_map
      (fun spec ->
         let gp = Mcl_gen.Generator.generate spec in
         let gp_hpwl = Mcl_eval.Metrics.hpwl gp in
         let seq = Mcl_gen.Generator.generate spec in
         ignore (Mcl.Scheduler.run Mcl.Config.default seq);
         let seq_snap = Design.snapshot seq in
         let seq_score =
           (Mcl_eval.Score.evaluate ~gp_hpwl seq).Mcl_eval.Score.score
         in
         List.map
           (fun d ->
              let design = Mcl_gen.Generator.generate spec in
              (* output is thread-invariant by construction, so the
                 parity verdict is unaffected by capping the pool *)
              let cfg =
                { Mcl.Config.default with
                  Mcl.Config.shards = d;
                  threads = min d host_cores }
              in
              ignore (Mcl.Scheduler.run cfg design);
              let bit_identical = Design.snapshot design = seq_snap in
              let legal = Mcl_eval.Legality.is_legal design in
              let score =
                (Mcl_eval.Score.evaluate ~gp_hpwl design).Mcl_eval.Score.score
              in
              let ratio = score /. Float.max 1e-9 seq_score in
              let ok = bit_identical || (legal && ratio <= 1.15) in
              if not ok then all_ok := false;
              Printf.printf
                "  %-20s domains=%d: %s legal=%b score %.4f vs %.4f (%.3fx) %s\n%!"
                spec.Mcl_gen.Spec.name d
                (if bit_identical then "bit-identical" else "differs      ")
                legal score seq_score ratio
                (if ok then "ok" else "FAIL");
              Json.Obj
                [ ("name", Json.String spec.Mcl_gen.Spec.name);
                  ("domains", Json.Int d);
                  ("bit_identical", Json.Bool bit_identical);
                  ("legal", Json.Bool legal);
                  ("score_ratio", Json.Float ratio);
                  ("parity_ok", Json.Bool ok) ])
           [ 2; 4; 8 ])
      (Mcl_gen.Suites.iccad2017 ~scale ())
  in
  Printf.printf "\nParity gate on all designs x domain counts: %b\n"
    !all_ok;
  let json =
    Json.Obj
      [ ("bench", Json.String "shard");
        ("scale", Json.Float scale);
        ("host_cores", Json.Int host_cores);
        ("wide", Json.List wide_rows);
        ("threads_invariance", invariance);
        ("seam_margins", Json.List margin_rows);
        ("parity",
         Json.Obj
           [ ("all_ok", Json.Bool !all_ok);
             ("designs", Json.List parity_rows) ]) ]
  in
  let oc = open_out "BENCH_shard.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_shard.json\n\n"

(* ---------------------------------------------------------------- *)
(* Exact window solver: B&B throughput, certificate rates by window   *)
(* size, and the refiner's end-to-end effect on the Table-1 suite.    *)
(* Part 1 sweeps the window half-width on one mid-size design and     *)
(* reports how the proven-vs-budget split and node throughput scale   *)
(* with instance size. Part 2 runs `--refine 8` after the full        *)
(* pipeline on every Table-1 design: the per-design score delta and   *)
(* recovered window cost is the measured optimality gap of the        *)
(* heuristic (EXPERIMENTS.md quotes this table). Emits                *)
(* BENCH_exact.json.                                                  *)
(* ---------------------------------------------------------------- *)

let exact ~scale () =
  let module Json = Mcl_service.Json in
  let module Refine = Mcl_exact.Refine in
  Printf.printf
    "== Exact window solver: B&B sweep and Table-1 refinement ==\n\n";
  let cfg = Mcl.Config.default in
  let legalized spec =
    let d = Mcl_gen.Generator.generate spec in
    let gp_hpwl = Mcl_eval.Metrics.hpwl d in
    ignore (Mcl.Pipeline.run cfg d);
    (d, gp_hpwl)
  in
  (* part 1: window-size sweep on one design. Each row re-legalizes a
     fresh copy so every configuration refines the same placement. *)
  Printf.printf
    "-- sweep: certificate rate vs window size (des_perf_b_md1, k=8) --\n";
  Printf.printf "%-28s | %7s %7s | %9s %9s | %8s\n" "window (hw x hh, cells)"
    "proven" "budget" "nodes" "nodes/s" "accepted";
  let sweep_spec =
    match Mcl_gen.Suites.find ~scale "des_perf_b_md1" with
    | Some s -> s
    | None -> assert false
  in
  let node_budget = 200_000 in
  (* a fresh context per refinement, built inside the timed region: it
     is part of what one refine call costs *)
  let refine_ctx d =
    Mcl.Mgl.context cfg d ~placement:(Mcl.Placement.of_design d)
  in
  let sweep =
    List.map
      (fun (halfwidth, halfheight, max_cells) ->
         let d, gp_hpwl = legalized sweep_spec in
         let s, wall =
           timed (fun () ->
               Refine.run ~node_budget ~max_cells ~halfwidth ~halfheight ~k:8
                 ~gp_hpwl (refine_ctx d))
         in
         assert (Mcl_eval.Legality.is_legal d);
         assert (s.Refine.score_after <= s.Refine.score_before +. 1e-9);
         let nodes_per_s = float_of_int s.Refine.nodes /. Float.max 1e-9 wall in
         let label =
           Printf.sprintf "hw=%d hh=%d max_cells=%d" halfwidth halfheight
             max_cells
         in
         Printf.printf "%-28s | %7d %7d | %9d %9.0f | %8d\n%!" label
           s.Refine.proven s.Refine.budget_exhausted s.Refine.nodes nodes_per_s
           s.Refine.accepted;
         Json.Obj
           [ ("halfwidth", Json.Int halfwidth);
             ("halfheight", Json.Int halfheight);
             ("max_cells", Json.Int max_cells);
             ("windows", Json.Int s.Refine.windows);
             ("proven", Json.Int s.Refine.proven);
             ("budget_exhausted", Json.Int s.Refine.budget_exhausted);
             ("accepted", Json.Int s.Refine.accepted);
             ("nodes", Json.Int s.Refine.nodes);
             ("nodes_per_s", Json.Float nodes_per_s);
             ("wall_s", Json.Float wall) ])
      [ (6, 1, 6); (12, 2, 10); (18, 2, 14); (24, 3, 18) ]
  in
  (* part 2: refine every Table-1 design after the full pipeline *)
  Printf.printf
    "\n-- Table-1 refinement: k=8, node budget %d per window --\n" node_budget;
  Printf.printf "%-20s | %4s %4s %4s | %9s | %9s %9s %9s | %7s\n" "benchmark"
    "acc" "prov" "bud" "nodes" "S-before" "S-after" "gap" "time";
  let improved = ref 0 and worsened = ref 0 in
  let rows =
    List.map
      (fun spec ->
         let d, gp_hpwl = legalized spec in
         let s, wall =
           timed (fun () -> Refine.run ~node_budget ~k:8 ~gp_hpwl (refine_ctx d))
         in
         assert (Mcl_eval.Legality.is_legal d);
         if s.Refine.score_after < s.Refine.score_before -. 1e-9 then
           incr improved;
         if s.Refine.score_after > s.Refine.score_before +. 1e-9 then
           incr worsened;
         Printf.printf
           "%-20s | %4d %4d %4d | %9d | %9.4f %9.4f %9.4f | %6.2fs\n%!"
           spec.Mcl_gen.Spec.name s.Refine.accepted s.Refine.proven
           s.Refine.budget_exhausted s.Refine.nodes s.Refine.score_before
           s.Refine.score_after s.Refine.subopt_cost wall;
         Json.Obj
           [ ("name", Json.String spec.Mcl_gen.Spec.name);
             ("windows", Json.Int s.Refine.windows);
             ("accepted", Json.Int s.Refine.accepted);
             ("proven", Json.Int s.Refine.proven);
             ("budget_exhausted", Json.Int s.Refine.budget_exhausted);
             ("nodes", Json.Int s.Refine.nodes);
             ("score_before", Json.Float s.Refine.score_before);
             ("score_after", Json.Float s.Refine.score_after);
             ("subopt_cost", Json.Float s.Refine.subopt_cost);
             ("wall_s", Json.Float wall) ])
      (Mcl_gen.Suites.iccad2017 ~scale ())
  in
  if !worsened > 0 then failwith "exact bench: refinement worsened a score";
  Printf.printf
    "\nscore improved on %d/%d designs, worsened on %d (monotone by \
     construction)\n"
    !improved (List.length rows) !worsened;
  let json =
    Json.Obj
      [ ("bench", Json.String "exact");
        ("scale", Json.Float scale);
        ("node_budget", Json.Int node_budget);
        ("sweep", Json.List sweep);
        ("table1", Json.List rows);
        ("improved", Json.Int !improved);
        ("worsened", Json.Int !worsened) ]
  in
  let oc = open_out "BENCH_exact.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_exact.json\n\n"

(* ---------------------------------------------------------------- *)

let () =
  let section = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 1.0
  in
  let all () =
    fig3 ();
    fig4 ();
    fig5 ();
    fig6 ~scale ();
    table3 ~scale ();
    table1 ~scale ();
    table2 ~scale ();
    ablation ~scale ();
    congest ~scale ();
    shard ~scale ();
    exact ~scale ()
  in
  match section with
  | "table1" -> table1 ~scale ()
  | "table2" -> table2 ~scale ()
  | "table3" -> table3 ~scale ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ~scale ()
  | "ablation" -> ablation ~scale ()
  | "congest" -> congest ~scale ()
  | "shard" -> shard ~scale ()
  | "exact" -> exact ~scale ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown section %S (use table1|table2|table3|fig3|fig4|fig5|fig6|ablation|congest|shard|exact|all)\n"
      other;
    exit 2
