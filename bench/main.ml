(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §3 and EXPERIMENTS.md).

   Usage:  dune exec bench/main.exe -- [section] [scale]
   Sections: table1 table2 table3 fig3 fig4 fig5 fig6 threads ablation
             service service_load congest resilience shard exact micro all
             (default: all, scale 1.0). *)

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

let heights_summary d =
  let h_max = Design.max_height d in
  List.init h_max (fun i -> Design.cells_of_height d (i + 1))
  |> List.map string_of_int
  |> String.concat "/"

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
       let density =
         Mcl.Mgl.utilization d_ours
       in
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
         (Mcl.Mgl.utilization d_ours *. 100.0) disp_mll disp_ab disp_lcp
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
(* Section 3.5: deterministic multi-threading.                        *)
(* ---------------------------------------------------------------- *)

let threads ~scale () =
  Printf.printf "== Sec. 3.5: scheduler determinism and domains ==\n\n";
  let spec =
    match Mcl_gen.Suites.find ~scale "edit_dist_a_md2" with
    | Some s -> s
    | None -> assert false
  in
  let reference = ref None in
  List.iter
    (fun n ->
       let d = Mcl_gen.Generator.generate spec in
       let cfg = { Mcl.Config.default with Mcl.Config.threads = n } in
       let _, t = timed (fun () -> Mcl.Scheduler.run cfg d) in
       let positions = Design.snapshot d in
       let same =
         match !reference with
         | None ->
           reference := Some positions;
           true
         | Some p -> p = positions
       in
       Printf.printf "threads=%d: %.2fs, identical to 1-thread result: %b\n%!" n t
         same)
    [ 1; 2; 4 ];
  print_newline ()

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
  List.iter
    (fun solver ->
       let name =
         match solver with
         | Mcl_flow.Mcf.Network_simplex_block -> "NS block pivots"
         | Mcl_flow.Mcf.Network_simplex_first -> "NS first-eligible pivots (paper)"
         | Mcl_flow.Mcf.Ssp -> "successive shortest paths"
       in
       let s, t = run { base with Mcl.Config.solver = solver } in
       show ("solver: " ^ name) s t)
    [ Mcl_flow.Mcf.Network_simplex_first ];
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Service: resident-engine ECO-trace replay (see EXPERIMENTS.md).    *)
(* A synthetic ECO loop against two resident designs: each round      *)
(* perturbs a handful of cells per design and asks the service to     *)
(* re-legalize them. "batched" hands each round to the engine as one  *)
(* batch so adjacent ecos coalesce into one relegalize call;          *)
(* "sequential" replays the same trace one request per batch. Both    *)
(* run threads=1: at bench-scale designs a ~10ms relegalize loses     *)
(* more to cross-domain GC synchronisation than it gains from         *)
(* parallel dispatch, so the honest speedup to measure is coalescing. *)
(* Emits BENCH_service.json next to the human table.                  *)
(* ---------------------------------------------------------------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

let service ~scale () =
  let module P = Mcl_service.Protocol in
  let module Json = Mcl_service.Json in
  Printf.printf
    "== Service: batched ECO-trace replay ==\n\
     (two resident designs; each round re-legalizes %d cells per design; \n\
     batched = one batch per round with adjacent ecos coalesced into one \n\
     relegalize call; sequential = same trace one request at a time)\n\n"
    8;
  let num_cells = max 200 (int_of_float (2000.0 *. scale)) in
  let specs =
    [ ("left",
       { Mcl_gen.Spec.default with
         Mcl_gen.Spec.name = "svc_left"; num_cells; seed = 31 });
      ("right",
       { Mcl_gen.Spec.default with
         Mcl_gen.Spec.name = "svc_right"; num_cells; seed = 32;
         height_mix = [ (1, 0.7); (2, 0.2); (3, 0.1) ] }) ]
  in
  (* same spec+seed => same design: a local copy gives the trace
     generator die dimensions without reaching into the engine *)
  let shapes =
    List.map
      (fun (key, spec) ->
         let d = Mcl_gen.Generator.generate spec in
         let fp = d.Design.floorplan in
         (key, (Design.num_cells d, fp.Floorplan.num_sites, fp.Floorplan.num_rows)))
      specs
  in
  let rounds = 25 and ecos_per_design = 8 in
  let run_mode ~label ~batched =
    let engine =
      Mcl_service.Engine.create ~threads:1 ~config:Mcl.Config.default ()
    in
    let counter = ref 0 in
    let mk op =
      incr counter;
      { P.id = Printf.sprintf "%s-%d" label !counter; op;
        received = Unix.gettimeofday (); deadline_ms = None; fallback = None;
        req_id = None; replay_ids = [] }
    in
    let execute reqs =
      if batched then Mcl_service.Engine.execute engine (Array.of_list reqs)
      else
        Array.concat
          (List.map (fun r -> Mcl_service.Engine.execute engine [| r |]) reqs)
    in
    let expect_ok what resps =
      Array.iter
        (fun r ->
           match r.P.result with
           | Ok _ -> ()
           | Error e ->
             failwith (Printf.sprintf "service bench %s: %s" what e.P.message))
        resps
    in
    (* resident state: load + full legalize once, outside the trace *)
    List.iter
      (fun (key, spec) ->
         expect_ok "load"
           (execute
              [ mk (P.Load
                      { key;
                        source =
                          P.Generated
                            { cells = Some spec.Mcl_gen.Spec.num_cells;
                              seed = Some spec.Mcl_gen.Spec.seed } }) ]);
         expect_ok "legalize"
           (execute [ mk (P.Legalize { key; greedy = false }) ]))
      specs;
    (* the measured trace: every mode replays the same perturbations *)
    let prng = Mcl_geom.Prng.create 2024 in
    let latencies = ref [] and disp = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    for _round = 1 to rounds do
      let reqs =
        List.concat_map
          (fun (key, (n, sites, rows)) ->
             List.init ecos_per_design (fun _ ->
                 let id = Mcl_geom.Prng.int prng n in
                 (* half the ECOs also relocate the cell's anchor *)
                 let targets =
                   if Mcl_geom.Prng.bool prng then
                     [ (id,
                        (Mcl_geom.Prng.int prng (max 1 (sites - 10)),
                         Mcl_geom.Prng.int prng (max 1 (rows - 4)))) ]
                   else []
                 in
                 mk (P.Eco { key; cells = [ id ]; targets; greedy = false })))
          shapes
      in
      let resps = execute reqs in
      Array.iter
        (fun r ->
           (match r.P.result with
            | Ok _ -> ()
            | Error e ->
              failwith (Printf.sprintf "service bench eco: %s" e.P.message));
           match r.P.metrics with
           | Some m ->
             latencies := (m.P.queue_wait_s +. m.P.service_s) :: !latencies;
             disp := !disp +. m.P.disp_delta_rows
           | None -> ())
        resps
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (* end-state sanity: both designs must still be legal *)
    List.iter
      (fun (key, _) ->
         let resps = execute [ mk (P.Query { key }) ] in
         expect_ok "query" resps;
         match resps.(0).P.result with
         | Ok j when Json.get_bool "legal" j = Some true -> ()
         | Ok _ -> failwith ("service bench: design illegal after trace: " ^ key)
         | Error _ -> assert false)
      specs;
    let lats = Array.of_list !latencies in
    Array.sort compare lats;
    let n = Array.length lats in
    let throughput = float_of_int n /. wall in
    let p50 = percentile lats 0.50 and p95 = percentile lats 0.95 in
    Printf.printf
      "%-10s %5d eco reqs in %6.2fs | %8.1f req/s | p50 %6.2fms p95 %6.2fms | disp %8.1f rows\n%!"
      label n wall throughput (p50 *. 1000.0) (p95 *. 1000.0) !disp;
    (label, n, wall, throughput, p50, p95, !disp)
  in
  (* explicit lets: list literals evaluate right-to-left *)
  let batched = run_mode ~label:"batched" ~batched:true in
  let sequential = run_mode ~label:"sequential" ~batched:false in
  let results = [ batched; sequential ] in
  let mode_json (label, n, wall, throughput, p50, p95, disp) =
    ( label,
      Json.Obj
        [ ("requests", Json.Int n);
          ("wall_s", Json.Float wall);
          ("throughput_rps", Json.Float throughput);
          ("p50_ms", Json.Float (p50 *. 1000.0));
          ("p95_ms", Json.Float (p95 *. 1000.0));
          ("total_disp_rows", Json.Float disp) ] )
  in
  let json =
    Json.Obj
      [ ("bench", Json.String "service_eco_trace");
        ("scale", Json.Float scale);
        ("designs", Json.Int (List.length specs));
        ("cells_per_design", Json.Int num_cells);
        ("rounds", Json.Int rounds);
        ("ecos_per_design_per_round", Json.Int ecos_per_design);
        ("modes", Json.Obj (List.map mode_json results)) ]
  in
  let oc = open_out "BENCH_service.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_service.json\n\n"

(* ---------------------------------------------------------------- *)
(* Service load: the multi-client event loop under production-shaped  *)
(* traffic (lib/netserve). Four parts:                                *)
(*   1. WAL group-commit sweep — durable mutations/s at group sizes   *)
(*      1/8/64/256; size 1 is the fsync-per-request baseline the      *)
(*      event loop replaces.                                          *)
(*   2. closed-loop saturation sweep — N socketpair clients, each on  *)
(*      its own design, one request in flight per client; p50/p95/p99 *)
(*      from the shared log-bucketed histogram.                       *)
(*   3. open-loop arrivals — requests paced at a fixed rate           *)
(*      regardless of completions, latency measured from the          *)
(*      scheduled arrival (no coordinated omission).                  *)
(*   4. snapshot-truncated recovery — replay after a long trace must  *)
(*      be O(delta since snapshot) and fingerprint-exact.             *)
(* Emits BENCH_service_load.json.                                     *)
(* ---------------------------------------------------------------- *)

let service_load ~scale () =
  let module Json = Mcl_service.Json in
  let module H = Mcl_service.Histogram in
  let module Wal = Mcl_resilience.Wal in
  let module N = Mcl_netserve.Netserve in
  Printf.printf "== Service load: event loop, group commit, recovery ==\n\n";
  let tmp suffix = Filename.temp_file "mcl_service_load" suffix in
  (* -- IO helpers for the bench clients (blocking fds) ------------- *)
  let write_line fd line =
    let s = line ^ "\n" in
    let b = Bytes.unsafe_of_string s in
    let n = String.length s in
    let off = ref 0 in
    while !off < n do
      match Unix.write fd b !off (n - !off) with
      | w -> off := !off + w
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 1.0)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let read_line_fd fd pend =
    let chunk = Bytes.create 65536 in
    let rec go () =
      match String.index_opt (Buffer.contents pend) '\n' with
      | Some i ->
        let all = Buffer.contents pend in
        let line = String.sub all 0 i in
        Buffer.clear pend;
        Buffer.add_substring pend all (i + 1) (String.length all - i - 1);
        line
      | None ->
        (match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> failwith "service_load: unexpected EOF from server"
         | n ->
           Buffer.add_subbytes pend chunk 0 n;
           go ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    in
    go ()
  in
  let expect_status line what =
    match Json.parse line with
    | Ok j when Json.get_string "status" j = Some "ok" -> ()
    | Ok j ->
      failwith
        (Printf.sprintf "service_load %s: %s" what
           (Option.value ~default:line (Json.get_string "code" j)))
    | Error e -> failwith (Printf.sprintf "service_load %s: bad json: %s" what e)
  in
  (* ---- part 1: WAL group-commit sweep ---------------------------- *)
  Printf.printf
    "-- group commit: durable mutations/s vs fsync group size --\n";
  let payload = {|{"id":"w","op":"eco","design":"bench","cells":[17]}|} in
  let group_sizes = [ 1; 8; 64; 256 ] in
  let group_results =
    List.map
      (fun size ->
         (* size 1 pays one fsync per mutation: cap its count so the
            baseline doesn't dominate the bench wall time *)
         let muts =
           if size = 1 then max 100 (int_of_float (400.0 *. scale))
           else
             max size
               (int_of_float (float_of_int (size * 400) *. scale))
         in
         let muts = muts - (muts mod size) in
         let path = tmp ".wal" in
         let w = Wal.open_ ~path () in
         let group = List.init size (fun _ -> payload) in
         let t0 = Unix.gettimeofday () in
         for _ = 1 to muts / size do
           ignore (Wal.append_all w group)
         done;
         let wall = Unix.gettimeofday () -. t0 in
         Wal.close w;
         Sys.remove path;
         let per_s = float_of_int muts /. wall in
         Printf.printf
           "  group %4d : %7d durable mutations in %6.3fs | %10.0f muts/s | %6d fsyncs\n%!"
           size muts wall per_s (muts / size);
         (size, muts, wall, per_s))
      group_sizes
  in
  let rate_of_size s =
    List.assoc s (List.map (fun (g, _, _, r) -> (g, r)) group_results)
  in
  let baseline_per_s = rate_of_size 1 in
  let best_group_per_s =
    List.fold_left (fun acc (_, _, _, r) -> Float.max acc r) 0.0 group_results
  in
  Printf.printf "  speedup over fsync-per-request baseline: %.1fx\n\n%!"
    (best_group_per_s /. baseline_per_s);
  (* ---- part 1b: CRC framing overhead at the best group size ------- *)
  Printf.printf "-- checksum overhead: CRC-32 framing on vs off (group 256) --\n";
  let crc_sweep checksum =
    let muts =
      let m = max 256 (int_of_float (256.0 *. 400.0 *. scale)) in
      m - (m mod 256)
    in
    let path = tmp ".wal" in
    let w = Wal.open_ ~checksum ~path () in
    let group = List.init 256 (fun _ -> payload) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to muts / 256 do
      ignore (Wal.append_all w group)
    done;
    let wall = Unix.gettimeofday () -. t0 in
    Wal.close w;
    Sys.remove path;
    let per_s = float_of_int muts /. wall in
    Printf.printf "  crc %-3s : %7d durable mutations in %6.3fs | %10.0f muts/s\n%!"
      (if checksum then "on" else "off") muts wall per_s;
    per_s
  in
  let crc_on_per_s = crc_sweep true in
  let crc_off_per_s = crc_sweep false in
  let crc_overhead_pct = 100.0 *. (1.0 -. (crc_on_per_s /. crc_off_per_s)) in
  Printf.printf "  overhead: %.1f%% of un-checksummed throughput\n\n%!"
    crc_overhead_pct;
  (* ---- shared harness: an event loop over socketpair clients ----- *)
  let fresh_engine () =
    Mcl_service.Engine.create ~threads:1 ~config:Mcl.Config.default ()
  in
  (* closed-loop client: one request in flight; every eco latency goes
     into the client's own histogram (merged after the join) *)
  let closed_loop_client fd ~key ~cells ~seed ~reqs hist =
    let pend = Buffer.create 256 in
    write_line fd
      (Printf.sprintf
         {|{"id":"l","op":"load","design":"%s","cells":%d,"seed":%d}|} key
         cells seed);
    expect_status (read_line_fd fd pend) "load";
    write_line fd
      (Printf.sprintf {|{"id":"g","op":"legalize","design":"%s"}|} key);
    expect_status (read_line_fd fd pend) "legalize";
    for j = 0 to reqs - 1 do
      let cell = (j * 7 + seed) mod cells in
      let t0 = Unix.gettimeofday () in
      write_line fd
        (Printf.sprintf
           {|{"id":"e%d","op":"eco","design":"%s","cells":[%d]}|} j key cell);
      expect_status (read_line_fd fd pend) "eco";
      H.add hist (Unix.gettimeofday () -. t0)
    done;
    Unix.shutdown fd Unix.SHUTDOWN_SEND
  in
  (* ---- part 2: closed-loop saturation sweep ---------------------- *)
  Printf.printf "-- saturation: closed-loop clients over one event loop --\n";
  let cells = max 60 (int_of_float (120.0 *. scale)) in
  let reqs_per_client = max 40 (int_of_float (250.0 *. scale)) in
  let sweep_counts = [ 1; 2; 4; 8 ] in
  let saturation =
    List.map
      (fun nclients ->
         let engine = fresh_engine () in
         let wal_path = tmp ".wal" in
         let wal = Wal.open_ ~path:wal_path () in
         let t =
           N.create engine ~wal ~wal_path ~snapshot_every:1000 ~max_batch:64 ()
         in
         let pairs =
           List.init nclients (fun _ ->
               Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
         in
         List.iter (fun (server_end, _) -> ignore (N.add_conn t server_end)) pairs;
         let t0 = Unix.gettimeofday () in
         let clients =
           List.mapi
             (fun i (_, client_end) ->
                let hist = H.create () in
                ( hist,
                  Domain.spawn (fun () ->
                      closed_loop_client client_end ~key:(Printf.sprintf "sat%d" i)
                        ~cells ~seed:(100 + i) ~reqs:reqs_per_client hist;
                      Unix.close client_end) ))
             pairs
         in
         N.run t;
         List.iter (fun (_, d) -> Domain.join d) clients;
         let wall = Unix.gettimeofday () -. t0 in
         Wal.close wal;
         Sys.remove wal_path;
         (try Sys.remove (Mcl_service.Snapshot.path_for wal_path)
          with Sys_error _ -> ());
         let hist = H.create () in
         List.iter (fun (h, _) -> H.merge_into ~into:hist h) clients;
         let ecos = nclients * reqs_per_client in
         let per_s = float_of_int ecos /. wall in
         Printf.printf
           "  %2d client(s): %6d ecos in %6.2fs | %9.1f eco/s | p50 %6.2fms p95 %6.2fms p99 %6.2fms\n%!"
           nclients ecos wall per_s
           (H.quantile hist 0.50 *. 1000.0)
           (H.quantile hist 0.95 *. 1000.0)
           (H.quantile hist 0.99 *. 1000.0);
         (nclients, ecos, wall, per_s, hist))
      sweep_counts
  in
  let peak_eco_per_s =
    List.fold_left (fun acc (_, _, _, r, _) -> Float.max acc r) 0.0 saturation
  in
  print_newline ();
  (* ---- part 3: open-loop arrivals -------------------------------- *)
  Printf.printf
    "-- open loop: paced arrivals, latency from scheduled arrival --\n";
  let open_loop_rates =
    List.filter_map
      (fun frac ->
         let r = frac *. peak_eco_per_s in
         if r >= 1.0 then Some (frac, r) else None)
      [ 0.25; 0.5; 0.8 ]
  in
  let open_loop =
    List.map
      (fun (frac, rate) ->
         let engine = fresh_engine () in
         let t = N.create engine ~max_batch:64 () in
         let server_end, client_end =
           Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
         in
         ignore (N.add_conn t server_end);
         let hist = H.create () in
         let n =
           min
             (max 50 (int_of_float (rate *. 1.5)))
             (max 200 (int_of_float (4000.0 *. scale)))
         in
         let client =
           Domain.spawn (fun () ->
               let pend = Buffer.create 256 in
               write_line client_end
                 (Printf.sprintf
                    {|{"id":"l","op":"load","design":"ol","cells":%d,"seed":77}|}
                    cells);
               expect_status (read_line_fd client_end pend) "load";
               write_line client_end
                 {|{"id":"g","op":"legalize","design":"ol"}|};
               expect_status (read_line_fd client_end pend) "legalize";
               (* open loop: the send schedule never waits for
                  responses; latency is measured from the scheduled
                  arrival, so sender lag counts against the server *)
               let scheduled = Queue.create () in
               let received = ref 0 in
               let drain ~block =
                 let rec pump () =
                   let ready =
                     match Unix.select [ client_end ] [] []
                             (if block then 1.0 else 0.0)
                   with
                     | [ _ ], _, _ -> true
                     | _ -> false
                     | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
                   in
                   if ready then begin
                     let line = read_line_fd client_end pend in
                     expect_status line "eco";
                     H.add hist (Unix.gettimeofday () -. Queue.take scheduled);
                     incr received;
                     (* consume buffered siblings without re-selecting *)
                     while Buffer.length pend > 0
                           && String.contains (Buffer.contents pend) '\n' do
                       let line = read_line_fd client_end pend in
                       expect_status line "eco";
                       H.add hist
                         (Unix.gettimeofday () -. Queue.take scheduled);
                       incr received
                     done;
                     if not block then pump ()
                   end
                 in
                 pump ()
               in
               let t0 = Unix.gettimeofday () in
               for j = 0 to n - 1 do
                 let target = t0 +. (float_of_int j /. rate) in
                 while Unix.gettimeofday () < target do
                   let slack = target -. Unix.gettimeofday () in
                   if slack > 0.0 then
                     ignore (Unix.select [] [] [] (Float.min slack 0.002))
                 done;
                 Queue.add target scheduled;
                 write_line client_end
                   (Printf.sprintf
                      {|{"id":"o%d","op":"eco","design":"ol","cells":[%d]}|} j
                      ((j * 11 + 3) mod cells));
                 drain ~block:false
               done;
               while !received < n do
                 drain ~block:true
               done;
               Unix.shutdown client_end Unix.SHUTDOWN_SEND;
               Unix.close client_end)
         in
         N.run t;
         Domain.join client;
         Printf.printf
           "  %4.0f%% of peak (%8.1f/s): %5d reqs | p50 %7.2fms p95 %7.2fms p99 %7.2fms\n%!"
           (frac *. 100.0) rate n
           (H.quantile hist 0.50 *. 1000.0)
           (H.quantile hist 0.95 *. 1000.0)
           (H.quantile hist 0.99 *. 1000.0);
         (frac, rate, n, hist))
      open_loop_rates
  in
  print_newline ();
  (* ---- part 4: snapshot-truncated recovery ----------------------- *)
  Printf.printf "-- recovery: replay is O(delta since last snapshot) --\n";
  let wal_path = tmp ".wal" in
  let snapshot_every = 64 in
  let trace_ecos = max 200 (int_of_float (600.0 *. scale)) in
  let engine = fresh_engine () in
  let wal = Wal.open_ ~path:wal_path () in
  let t = N.create engine ~wal ~wal_path ~snapshot_every ~max_batch:64 () in
  let server_end, client_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (N.add_conn t server_end);
  let hist = H.create () in
  let client =
    Domain.spawn (fun () ->
        closed_loop_client client_end ~key:"rec" ~cells ~seed:7
          ~reqs:trace_ecos hist;
        Unix.close client_end)
  in
  N.run t;
  Domain.join client;
  Wal.close wal;
  let fingerprint_before = Mcl_service.Engine.state_fingerprint engine in
  let leftover_records = List.length (Wal.read ~path:wal_path).Wal.records in
  let t0 = Unix.gettimeofday () in
  let engine2 = fresh_engine () in
  let r = Mcl_service.Server.recover engine2 ~path:wal_path in
  let recover_wall = Unix.gettimeofday () -. t0 in
  let fingerprint_equal =
    Mcl_service.Engine.state_fingerprint engine2 = fingerprint_before
  in
  Sys.remove wal_path;
  (try Sys.remove (Mcl_service.Snapshot.path_for wal_path)
   with Sys_error _ -> ());
  let total_mutations = trace_ecos + 2 in
  Printf.printf
    "  %d journaled mutations, snapshot at seq %d: replayed %d (%.0f%% skipped \
     via snapshot) in %.3fs; fingerprint %s\n\n%!"
    total_mutations r.Mcl_service.Server.snapshot_seq r.replayed
    (100.0
     *. float_of_int (total_mutations - r.replayed)
     /. float_of_int total_mutations)
    recover_wall
    (if fingerprint_equal then "EXACT" else "MISMATCH");
  if not fingerprint_equal then
    failwith "service_load: recovered state fingerprint mismatch";
  if r.replayed <> leftover_records then
    failwith "service_load: recovery replayed a different record count";
  (* ---- JSON ------------------------------------------------------ *)
  let json =
    Json.Obj
      [ ("bench", Json.String "service_load");
        ("scale", Json.Float scale);
        ( "group_commit",
          Json.Obj
            [ ( "sizes",
                Json.List
                  (List.map
                     (fun (size, muts, wall, per_s) ->
                        Json.Obj
                          [ ("group", Json.Int size);
                            ("mutations", Json.Int muts);
                            ("wall_s", Json.Float wall);
                            ("durable_muts_per_s", Json.Float per_s);
                            ("fsyncs", Json.Int (muts / size)) ])
                     group_results) );
              ("baseline_per_s", Json.Float baseline_per_s);
              ("best_group_per_s", Json.Float best_group_per_s) ] );
        ( "checksum_overhead",
          Json.Obj
            [ ("group", Json.Int 256);
              ("crc_on_per_s", Json.Float crc_on_per_s);
              ("crc_off_per_s", Json.Float crc_off_per_s);
              ("overhead_pct", Json.Float crc_overhead_pct) ] );
        ( "saturation",
          Json.List
            (List.map
               (fun (nclients, ecos, wall, per_s, hist) ->
                  Json.Obj
                    [ ("clients", Json.Int nclients);
                      ("ecos", Json.Int ecos);
                      ("wall_s", Json.Float wall);
                      ("eco_per_s", Json.Float per_s);
                      ("latency", H.to_json hist) ])
               saturation) );
        ("peak_eco_per_s", Json.Float peak_eco_per_s);
        ( "open_loop",
          Json.List
            (List.map
               (fun (frac, rate, n, hist) ->
                  Json.Obj
                    [ ("fraction_of_peak", Json.Float frac);
                      ("arrival_rate_per_s", Json.Float rate);
                      ("requests", Json.Int n);
                      ("latency", H.to_json hist) ])
               open_loop) );
        ( "recovery",
          Json.Obj
            [ ("total_mutations", Json.Int total_mutations);
              ("snapshot_every", Json.Int snapshot_every);
              ("snapshot_seq", Json.Int r.Mcl_service.Server.snapshot_seq);
              ("replayed", Json.Int r.replayed);
              ("recover_wall_s", Json.Float recover_wall);
              ("fingerprint_equal", Json.Bool fingerprint_equal) ] ) ]
  in
  let oc = open_out "BENCH_service_load.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_service_load.json\n\n"

(* ---------------------------------------------------------------- *)
(* Congestion: incremental-map throughput and the weight trade-off.   *)
(* Part 1 races apply_move/undo against full rebuilds on a hotspotted *)
(* design and cross-checks the incremental map against a fresh one.   *)
(* Part 2 sweeps the MGL congestion-penalty weight and reports the    *)
(* max-overflow / displacement trade-off. Emits BENCH_congest.json.   *)
(* ---------------------------------------------------------------- *)

let congest ~scale () =
  let module C = Mcl_congest.Congestion in
  let module Json = Mcl_service.Json in
  Printf.printf
    "== Congestion: incremental RUDY map and MGL penalty sweep ==\n\n";
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "congest_bench";
      num_cells = max 300 (int_of_float (3000.0 *. scale));
      hotspots = 4;
      nets_per_cell = 2.5;
      seed = 97 }
  in
  (* part 1: incremental vs rebuild throughput *)
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
  (* part 2: pipeline quality trade-off across penalty weights *)
  Printf.printf "%-8s | %8s %8s %9s | %8s %8s | %7s\n" "weight" "maxOvf"
    "avgOvf" "overfull" "avgDisp" "maxDisp" "time";
  let sweep =
    List.map
      (fun weight ->
         let d = Mcl_gen.Generator.generate spec in
         let gp_hpwl = Mcl_eval.Metrics.hpwl d in
         let cfg =
           { Mcl.Config.default with Mcl.Config.congestion_weight = weight }
         in
         let _, t = timed (fun () -> Mcl.Pipeline.run cfg d) in
         assert (Mcl_eval.Legality.is_legal d);
         let score = Mcl_eval.Score.evaluate ~gp_hpwl d in
         let s = Mcl_eval.Metrics.congestion d in
         Printf.printf "%-8.2f | %8.3f %8.4f %9d | %8.3f %8.1f | %6.2fs\n%!"
           weight s.C.max_overflow s.C.avg_overflow s.C.overfull
           score.Mcl_eval.Score.avg_disp score.Mcl_eval.Score.max_disp t;
         ( weight,
           Json.Obj
             [ ("weight", Json.Float weight);
               ("max_overflow", Json.Float s.C.max_overflow);
               ("avg_overflow", Json.Float s.C.avg_overflow);
               ("overfull_bins", Json.Int s.C.overfull);
               ("avg_disp_rows", Json.Float score.Mcl_eval.Score.avg_disp);
               ("max_disp_rows", Json.Float score.Mcl_eval.Score.max_disp);
               ("seconds", Json.Float t) ] ))
      [ 0.0; 0.5; 2.0 ]
  in
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
             ("cross_check_equal", Json.Bool ok) ]);
        ("weights", Json.List (List.map snd sweep)) ]
  in
  let oc = open_out "BENCH_congest.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_congest.json\n\n"

(* ---------------------------------------------------------------- *)
(* Resilience: WAL append/scan/replay throughput and the cost of the  *)
(* cooperative budget poll. Emits BENCH_resilience.json.              *)
(* ---------------------------------------------------------------- *)

let resilience ~scale () =
  let module Json = Mcl_service.Json in
  let module P = Mcl_service.Protocol in
  let module Server = Mcl_service.Server in
  let module Engine = Mcl_service.Engine in
  let module Wal = Mcl_resilience.Wal in
  let module Budget = Mcl_resilience.Budget in
  Printf.printf "== Resilience: WAL throughput and budget-poll cost ==\n\n";
  let appends = max 200 (int_of_float (2000.0 *. scale)) in
  let payload = {|{"op":"eco","design":"bench","cells":[1,2,3,4,5,6,7,8]}|} in
  let wal_rates ~fsync =
    let path = Filename.temp_file "mcl_bench" ".wal" in
    let w = Wal.open_ ~fsync ~path () in
    let (), dt =
      timed (fun () ->
          for _ = 1 to appends do ignore (Wal.append w payload) done)
    in
    Wal.close w;
    let (), scan_dt = timed (fun () -> ignore (Wal.read ~path)) in
    Sys.remove path;
    (float_of_int appends /. dt, float_of_int appends /. scan_dt)
  in
  let fsync_rate, scan_rate = wal_rates ~fsync:true in
  let buffered_rate, _ = wal_rates ~fsync:false in
  Printf.printf "  WAL append (fsync)     %12.0f records/s\n" fsync_rate;
  Printf.printf "  WAL append (no fsync)  %12.0f records/s\n" buffered_rate;
  Printf.printf "  WAL scan               %12.0f records/s\n" scan_rate;
  let polls = max 100_000 (int_of_float (5_000_000.0 *. scale)) in
  let poll_ns b =
    let (), dt = timed (fun () -> for _ = 1 to polls do Budget.check b done) in
    dt /. float_of_int polls *. 1e9
  in
  let off_ns = poll_ns None in
  let armed =
    Budget.create ~clock:Unix.gettimeofday
      ~deadline:(Unix.gettimeofday () +. 3600.0) ()
  in
  let armed_ns = poll_ns (Some armed) in
  Printf.printf "  Budget.check (off)     %12.2f ns/poll\n" off_ns;
  Printf.printf "  Budget.check (armed)   %12.2f ns/poll\n" armed_ns;
  (* replay: journal a mutating trace live, then recover a fresh engine *)
  let parse line =
    match P.parse ~received:(Unix.gettimeofday ()) ~default_id:"b" line with
    | Ok r -> r
    | Error e -> failwith e.P.message
  in
  let path = Filename.temp_file "mcl_bench_replay" ".wal" in
  let eng = Engine.create ~threads:1 ~config:Mcl.Config.default () in
  let w = Wal.open_ ~path () in
  let journal line =
    ignore (Server.execute_and_journal eng ~wal:w [| parse line |])
  in
  journal {|{"op":"load","design":"b","cells":200,"seed":5}|};
  journal {|{"op":"legalize","design":"b"}|};
  let ecos = max 10 (int_of_float (30.0 *. scale)) in
  for i = 1 to ecos do
    journal
      (Printf.sprintf {|{"op":"eco","design":"b","cells":[%d,%d]}|}
         (3 + (i mod 140))
         (3 + (i * 7 mod 140)))
  done;
  Wal.close w;
  let eng2 = Engine.create ~threads:1 ~config:Mcl.Config.default () in
  let r, dt = timed (fun () -> Server.recover eng2 ~path) in
  Sys.remove path;
  let replay_rate = float_of_int r.Server.replayed /. dt in
  Printf.printf "  WAL replay             %12.1f mutations/s (%d mutations)\n"
    replay_rate r.Server.replayed;
  let json =
    Json.Obj
      [ ("bench", Json.String "resilience");
        ("wal_append_fsync_per_s", Json.Float fsync_rate);
        ("wal_append_buffered_per_s", Json.Float buffered_rate);
        ("wal_scan_per_s", Json.Float scan_rate);
        ("budget_check_off_ns", Json.Float off_ns);
        ("budget_check_armed_ns", Json.Float armed_ns);
        ("replay_mutations", Json.Int r.Server.replayed);
        ("replay_per_s", Json.Float replay_rate) ]
  in
  let oc = open_out "BENCH_resilience.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote BENCH_resilience.json\n\n"

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
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel.  *)
(* ---------------------------------------------------------------- *)

let micro () =
  Printf.printf "== Bechamel micro-benchmarks (ns/run, OLS) ==\n\n";
  let open Bechamel in
  let small name = { Mcl_gen.Spec.default with Mcl_gen.Spec.num_cells = 300; name } in
  let t1 =
    Test.make ~name:"table1:pipeline-small"
      (Staged.stage (fun () ->
           let d = Mcl_gen.Generator.generate (small "t1") in
           ignore (Mcl.Pipeline.run Mcl.Config.default d)))
  in
  let t2 =
    Test.make ~name:"table2:mll-small"
      (Staged.stage (fun () ->
           let d = Mcl_gen.Generator.generate (small "t2") in
           ignore
             (Mcl.Scheduler.run ~disp_from:`Current Mcl.Config.total_displacement d)))
  in
  let t3 =
    Test.make ~name:"table3:postprocess-small"
      (Staged.stage
         (let d = Mcl_gen.Generator.generate (small "t3") in
          ignore (Mcl.Scheduler.run Mcl.Config.default d);
          let snap = Design.snapshot d in
          fun () ->
            Design.restore d snap;
            ignore (Mcl.Matching_opt.run Mcl.Config.default d);
            ignore (Mcl.Row_order_opt.run Mcl.Config.default d)))
  in
  let f4 =
    Test.make ~name:"fig4:curve-minimize"
      (Staged.stage
         (let c = Mcl.Curve.create () in
          for i = 0 to 199 do
            Mcl.Curve.add_left c ~weight:1.0 ~cur:(1000 + i) ~gp:(900 + (2 * i))
              ~dist:(10 + i)
          done;
          fun () -> ignore (Mcl.Curve.minimize c ~lo:0 ~hi:3000)))
  in
  let f5 =
    Test.make ~name:"fig5:mcf-row-order"
      (Staged.stage
         (let d = Mcl_gen.Generator.generate (small "f5") in
          ignore (Mcl.Scheduler.run Mcl.Config.default d);
          let snap = Design.snapshot d in
          fun () ->
            Design.restore d snap;
            ignore (Mcl.Row_order_opt.run Mcl.Config.default d)))
  in
  let f6 =
    Test.make ~name:"fig6:matching"
      (Staged.stage
         (let d = Mcl_gen.Generator.generate (small "f6") in
          ignore (Mcl.Scheduler.run Mcl.Config.default d);
          let snap = Design.snapshot d in
          fun () ->
            Design.restore d snap;
            ignore (Mcl.Matching_opt.run Mcl.Config.default d)))
  in
  let tests = Test.make_grouped ~name:"mcl" [ t1; t2; t3; f4; f5; f6 ] in
  let cfg = Benchmark.cfg ~limit:30 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ t ] -> Printf.printf "%-28s %12.0f ns/run (%.3f ms)\n" name t (t /. 1e6)
      | _ -> Printf.printf "%-28s (no estimate)\n" name);
  print_newline ()

(* ---------------------------------------------------------------- *)

let () =
  let section = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let scale =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 1.0
  in
  ignore heights_summary;
  let all () =
    fig3 ();
    fig4 ();
    fig5 ();
    fig6 ~scale ();
    table3 ~scale ();
    table1 ~scale ();
    table2 ~scale ();
    threads ~scale ();
    ablation ~scale ();
    service ~scale ();
    service_load ~scale ();
    congest ~scale ();
    resilience ~scale ();
    shard ~scale ();
    exact ~scale ();
    micro ()
  in
  match section with
  | "table1" -> table1 ~scale ()
  | "table2" -> table2 ~scale ()
  | "table3" -> table3 ~scale ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ~scale ()
  | "threads" -> threads ~scale ()
  | "ablation" -> ablation ~scale ()
  | "micro" -> micro ()
  | "service" -> service ~scale ()
  | "service_load" -> service_load ~scale ()
  | "congest" -> congest ~scale ()
  | "resilience" -> resilience ~scale ()
  | "shard" -> shard ~scale ()
  | "exact" -> exact ~scale ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown section %S (use table1|table2|table3|fig3|fig4|fig5|fig6|threads|ablation|service|service_load|congest|resilience|shard|exact|micro|all)\n"
      other;
    exit 2
