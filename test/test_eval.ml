module Rect = Mcl_geom.Rect
open Mcl_netlist

let ct ?(edge_type = 0) ?(pins = []) id name w h =
  Cell_type.make ~type_id:id ~name ~width:w ~height:h ~edge_type ~pins ()

let pin name layer ~xl ~yl ~xh ~yh =
  { Cell_type.pin_name = name; layer; shape = Rect.make ~xl ~yl ~xh ~yh }

(* -- metrics -- *)

let metrics_design () =
  let fp = Floorplan.make ~num_sites:100 ~num_rows:10 ~site_width:2 ~row_height:20 () in
  let types = [| ct 0 "s" 4 1; ct 1 "d" 4 2 |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:10 ~gp_y:2 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:20 ~gp_y:2 ();
       Cell.make ~id:2 ~type_id:1 ~gp_x:30 ~gp_y:4 () |]
  in
  let nets =
    [| Net.make ~net_id:0
         ~endpoints:
           [ Net.Cell_pin { cell = 0; dx = 0; dy = 0 };
             Net.Cell_pin { cell = 1; dx = 0; dy = 0 } ] |]
  in
  Design.make ~name:"m" ~floorplan:fp ~cell_types:types ~cells ~nets ()

let test_displacement_units () =
  let d = metrics_design () in
  (* move cell 0 by 10 sites (= 1 row height) and 2 rows: delta = 3 *)
  d.Design.cells.(0).Cell.x <- 20;
  d.Design.cells.(0).Cell.y <- 4;
  Alcotest.(check (float 1e-9)) "delta" 3.0
    (Mcl_eval.Metrics.displacement d d.Design.cells.(0));
  Alcotest.(check (float 1e-9)) "max" 3.0 (Mcl_eval.Metrics.max_displacement d);
  (* S_am: heights 1 and 2; only height-1 moved: mean over heights of
     per-height means = (3/2 + 0) / 2 *)
  Alcotest.(check (float 1e-9)) "S_am" 0.75
    (Mcl_eval.Metrics.average_displacement d);
  (* total in sites: 10 + 2 * (20/2) = 30 *)
  Alcotest.(check (float 1e-9)) "total sites" 30.0
    (Mcl_eval.Metrics.total_displacement_sites d)

let test_hpwl () =
  let d = metrics_design () in
  (* pins at cell origins: (10*2, 2*20) and (20*2, 2*20): HPWL = 20 *)
  Alcotest.(check int) "hpwl" 20 (Mcl_eval.Metrics.hpwl d);
  d.Design.cells.(1).Cell.y <- 3;
  Alcotest.(check int) "hpwl with y" 40 (Mcl_eval.Metrics.hpwl d);
  Alcotest.(check (float 1e-9)) "ratio" 1.0
    (Mcl_eval.Metrics.hpwl_increase_ratio ~gp_hpwl:20 ~legal_hpwl:40)

let test_score_formula () =
  let d = metrics_design () in
  (* move cell 0 right by 4 sites: no overlap, no violations *)
  d.Design.cells.(0).Cell.x <- 14;
  let gp_hpwl = 20 in
  let s = Mcl_eval.Score.evaluate ~gp_hpwl d in
  (* dx = 4 sites = 0.4 rows; avg = (0.4/2 + 0)/2 = 0.1; max = 0.4;
     legal hpwl = |40-28| = 12, s_hpwl = (12-20)/20 = -0.4 *)
  Alcotest.(check (float 1e-6)) "avg" 0.1 s.Mcl_eval.Score.avg_disp;
  Alcotest.(check (float 1e-6)) "max" 0.4 s.Mcl_eval.Score.max_disp;
  Alcotest.(check (float 1e-6)) "s_hpwl" (-0.4) s.Mcl_eval.Score.s_hpwl;
  Alcotest.(check int) "no pin violations" 0 s.Mcl_eval.Score.pin_violations;
  Alcotest.(check int) "no edge violations" 0 s.Mcl_eval.Score.edge_violations;
  Alcotest.(check (float 1e-6)) "Eq. 10"
    ((1.0 -. 0.4) *. (1.0 +. (0.4 /. 100.0)) *. 0.1)
    s.Mcl_eval.Score.score

(* -- legality -- *)

let test_legality_violations () =
  let fp = Floorplan.make ~num_sites:20 ~num_rows:4 () in
  let types = [| ct 0 "s" 4 1; ct 1 "d" 4 2 |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:0 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:2 ~gp_y:0 ();   (* overlaps 0 *)
       Cell.make ~id:2 ~type_id:1 ~gp_x:10 ~gp_y:1 ();  (* bad parity *)
       Cell.make ~id:3 ~type_id:0 ~gp_x:18 ~gp_y:0 ();  (* out of die *)
       Cell.make ~id:4 ~type_id:0 ~is_fixed:true ~gp_x:8 ~gp_y:3 () |]
  in
  cells.(4).Cell.x <- 9;  (* fixed cell moved *)
  let d = Design.make ~name:"l" ~floorplan:fp ~cell_types:types ~cells () in
  let vs = Mcl_eval.Legality.check d in
  let has p = List.exists p vs in
  Alcotest.(check bool) "overlap" true
    (has (function Mcl_eval.Legality.Overlap (0, 1) -> true | _ -> false));
  Alcotest.(check bool) "parity" true
    (has (function Mcl_eval.Legality.Bad_parity 2 -> true | _ -> false));
  Alcotest.(check bool) "out of die" true
    (has (function Mcl_eval.Legality.Out_of_die 3 -> true | _ -> false));
  Alcotest.(check bool) "fixed moved" true
    (has (function Mcl_eval.Legality.Fixed_moved 4 -> true | _ -> false))

(* Regression: a fenced cell that leaves the die must report both
   Out_of_die and Outside_region — the die check used to gate the
   region check, so per-kind counts under-reported. *)
let test_out_of_die_and_out_of_fence () =
  let fp = Floorplan.make ~num_sites:20 ~num_rows:4 () in
  let types = [| ct 0 "s" 4 1 |] in
  let fences =
    [| Fence.make ~fence_id:1 ~name:"f"
         ~rects:[ Rect.make ~xl:0 ~yl:0 ~xh:8 ~yh:2 ] |]
  in
  let cells = [| Cell.make ~id:0 ~type_id:0 ~region:1 ~gp_x:0 ~gp_y:0 () |] in
  cells.(0).Cell.x <- 18;  (* sticks out of the die AND out of fence 1 *)
  let d = Design.make ~name:"oo" ~floorplan:fp ~cell_types:types ~cells ~fences () in
  let vs = Mcl_eval.Legality.check d in
  let has p = List.exists p vs in
  Alcotest.(check bool) "out of die" true
    (has (function Mcl_eval.Legality.Out_of_die 0 -> true | _ -> false));
  Alcotest.(check bool) "outside region reported too" true
    (has (function Mcl_eval.Legality.Outside_region 0 -> true | _ -> false))

let test_legality_clean () =
  let fp = Floorplan.make ~num_sites:20 ~num_rows:4 () in
  let types = [| ct 0 "s" 4 1 |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:0 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:4 ~gp_y:0 () |]
  in
  let d = Design.make ~name:"ok" ~floorplan:fp ~cell_types:types ~cells () in
  Alcotest.(check bool) "legal (abutting cells ok)" true (Mcl_eval.Legality.is_legal d)

(* -- routability checks (paper Fig. 1) -- *)

let routability_design ~pins_m1 ~pins_m2 =
  let fp =
    Floorplan.make ~num_sites:100 ~num_rows:8 ~site_width:2 ~row_height:20
      ~hrail_period:4 ~hrail_halfwidth:3 ~vrail_pitch:25 ~vrail_width:2
      ~io_pins:
        [ { Floorplan.io_layer = Layer.M2;
            io_rect = Rect.make ~xl:100 ~yl:50 ~xh:106 ~yh:56 } ] ()
  in
  let pins =
    List.map (fun (n, x, y) -> pin n Layer.M1 ~xl:x ~yl:y ~xh:(x + 2) ~yh:(y + 3)) pins_m1
    @ List.map (fun (n, x, y) -> pin n Layer.M2 ~xl:x ~yl:y ~xh:(x + 2) ~yh:(y + 3)) pins_m2
  in
  let types = [| ct 0 "t" 6 1 ~pins |] in
  let cells = [| Cell.make ~id:0 ~type_id:0 ~gp_x:10 ~gp_y:1 () |] in
  Design.make ~name:"r" ~floorplan:fp ~cell_types:types ~cells ()

let kinds d =
  Mcl_eval.Routability_check.pin_violations d
  |> List.map (fun v -> (v.Mcl_eval.Routability_check.kind, v.Mcl_eval.Routability_check.against))

let test_pin_access_hrail () =
  (* M1 pin near the cell bottom at a stripe row boundary: the M2
     stripe above it blocks access *)
  let d = routability_design ~pins_m1:[ ("p", 2, 0) ] ~pins_m2:[] in
  (* cell at row 4 (a stripe boundary at y=80 dbu); pin y = 80..83,
     stripe spans 77..83 *)
  d.Design.cells.(0).Cell.y <- 4;
  Alcotest.(check bool) "access vs hrail" true
    (List.mem (`Access, `Hrail) (kinds d));
  (* at row 2 the pin sits at 40..43, far from stripes at 0 and 80 *)
  d.Design.cells.(0).Cell.y <- 2;
  Alcotest.(check int) "clean row" 0 (List.length (kinds d))

let test_pin_short_hrail () =
  let d = routability_design ~pins_m1:[] ~pins_m2:[ ("p", 2, 0) ] in
  d.Design.cells.(0).Cell.y <- 4;
  Alcotest.(check bool) "short vs hrail" true (List.mem (`Short, `Hrail) (kinds d))

let test_pin_access_vrail () =
  (* M2 pin under the M3 vertical stripe at site 25 (x = 50 dbu) *)
  let d = routability_design ~pins_m1:[] ~pins_m2:[ ("p", 0, 8) ] in
  d.Design.cells.(0).Cell.y <- 2;
  d.Design.cells.(0).Cell.x <- 25;  (* pin x-span = 50..52; stripe 49..51 *)
  Alcotest.(check bool) "access vs vrail" true (List.mem (`Access, `Vrail) (kinds d));
  d.Design.cells.(0).Cell.x <- 30;
  Alcotest.(check int) "clean column" 0 (List.length (kinds d))

let test_pin_vs_io () =
  (* M2 IO pin at dbu (100..106, 50..56); an M1 pin under it loses
     access, an M2 pin shorts *)
  let d = routability_design ~pins_m1:[ ("a", 0, 12) ] ~pins_m2:[] in
  d.Design.cells.(0).Cell.y <- 2;   (* cell origin y = 40 dbu; pin y 52..55 *)
  d.Design.cells.(0).Cell.x <- 50;  (* pin x 100..102 *)
  Alcotest.(check bool) "access vs io" true (List.mem (`Access, `Io) (kinds d))

let test_edge_violation_detection () =
  let fp =
    Floorplan.make ~num_sites:40 ~num_rows:2
      ~edge_spacing:[| [| 0; 2 |]; [| 2; 2 |] |] ()
  in
  let types = [| ct 0 "a" 4 1 ~edge_type:0; ct 1 "b" 4 1 ~edge_type:1 |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:0 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:1 ~gp_x:5 ~gp_y:0 () |]  (* gap 1 < 2 *)
  in
  let d = Design.make ~name:"e" ~floorplan:fp ~cell_types:types ~cells () in
  (match Mcl_eval.Routability_check.edge_violations d with
   | [ v ] ->
     Alcotest.(check int) "need" 2 v.Mcl_eval.Routability_check.need;
     Alcotest.(check int) "got" 1 v.Mcl_eval.Routability_check.got
   | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l));
  d.Design.cells.(1).Cell.x <- 6;
  Alcotest.(check int) "fixed by spacing" 0
    (List.length (Mcl_eval.Routability_check.edge_violations d))

(* -- the fast per-cell checks against their definitions -- *)

(* Definition of the region test behind [Legality.Outside_region]:
   every site of the cell belongs to its region. *)
let region_ok_by_site d (c : Cell.t) =
  let r = Design.cell_rect d c in
  let ok = ref true in
  for y = r.Rect.y.lo to r.Rect.y.hi - 1 do
    for x = r.Rect.x.lo to r.Rect.x.hi - 1 do
      if not (Design.region_covers d ~region:c.Cell.region ~x ~y) then ok := false
    done
  done;
  !ok

(* Definition of [Routability_check.cell_pin_violations]: every pin
   against every stripe and every IO pin, in that order per pin. *)
let pin_violations_all_pins d (c : Cell.t) ~x ~y =
  let module RC = Mcl_eval.Routability_check in
  let fp = d.Design.floorplan in
  let relation ~pin_layer ~obstacle_layer =
    if Layer.equal pin_layer obstacle_layer then Some `Short
    else
      match Layer.above pin_layer with
      | Some up when Layer.equal up obstacle_layer -> Some `Access
      | Some _ | None -> None
  in
  let ct = Design.cell_type d c in
  let ox = x * fp.Floorplan.site_width and oy = y * fp.Floorplan.row_height in
  let hstripes = Floorplan.hrail_stripes fp in
  let vstripes = Floorplan.vrail_stripes fp in
  let check_pin (p : Cell_type.pin) =
    let shape = Rect.shift p.Cell_type.shape ~dx:ox ~dy:oy in
    let acc = ref [] in
    let add kind against =
      acc :=
        { RC.cell = c.Cell.id; pin_name = p.Cell_type.pin_name; kind; against }
        :: !acc
    in
    (match relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M2 with
     | Some kind ->
       if List.exists (fun s -> Mcl_geom.Interval.overlaps s shape.Rect.y) hstripes
       then add kind `Hrail
     | None -> ());
    (match relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:Layer.M3 with
     | Some kind ->
       if List.exists (fun s -> Mcl_geom.Interval.overlaps s shape.Rect.x) vstripes
       then add kind `Vrail
     | None -> ());
    List.iter
      (fun (io : Floorplan.io_pin) ->
         match
           relation ~pin_layer:p.Cell_type.layer ~obstacle_layer:io.Floorplan.io_layer
         with
         | Some kind -> if Rect.overlaps shape io.Floorplan.io_rect then add kind `Io
         | None -> ())
      fp.Floorplan.io_pins;
    !acc
  in
  List.concat_map check_pin ct.Cell_type.pins

(* random, mostly illegal placements of a fenced design with the P/G
   grid and IO pins on: cells land anywhere, partly off the die *)
let prop_fast_checks_match_definitions =
  QCheck.Test.make ~name:"region and pin checks == per-site / all-pins"
    ~count:25
    QCheck.(int_range 1 100000)
    (fun seed ->
       let d =
         Mcl_gen.Generator.generate
           { Mcl_gen.Spec.default with
             Mcl_gen.Spec.name = "rand";
             seed;
             num_cells = 150;
             num_fences = 2;
             fence_cell_frac = 0.3;
             num_io_pins = 300;
             routability = true }
       in
       let fp = d.Design.floorplan in
       let rng = Mcl_geom.Prng.create seed in
       Array.iter
         (fun (c : Cell.t) ->
            if not c.Cell.is_fixed then begin
              c.Cell.x <- Mcl_geom.Prng.int rng (fp.Floorplan.num_sites + 8) - 4;
              c.Cell.y <- Mcl_geom.Prng.int rng (fp.Floorplan.num_rows + 2) - 1
            end)
         d.Design.cells;
       let check = Mcl_eval.Routability_check.cell_pin_violations d in
       let outside =
         List.filter_map
           (function Mcl_eval.Legality.Outside_region id -> Some id | _ -> None)
           (Mcl_eval.Legality.check d)
       in
       List.sort Int.compare outside
       = List.filter_map
           (fun (c : Cell.t) ->
              if c.Cell.is_fixed || region_ok_by_site d c then None
              else Some c.Cell.id)
           (Array.to_list d.Design.cells)
       && Array.for_all
            (fun (c : Cell.t) ->
               check c ~x:c.Cell.x ~y:c.Cell.y
               = pin_violations_all_pins d c ~x:c.Cell.x ~y:c.Cell.y)
            d.Design.cells
       && Mcl_eval.Routability_check.pin_violations d
          = List.concat_map
              (fun (c : Cell.t) ->
                 if c.Cell.is_fixed then []
                 else pin_violations_all_pins d c ~x:c.Cell.x ~y:c.Cell.y)
              (Array.to_list d.Design.cells))

(* -- worst windows -- *)

(* The worst cells against the full sort they replace (displacement
   descending, id ascending, first [k]). Positions jitter by a few
   sites and at most a row from GP, so equal displacements are
   common; [k] ranges over 0 .. 12. *)
let prop_worst_cells_match_full_sort =
  QCheck.Test.make ~name:"worst_cells == full sort" ~count:60
    QCheck.(pair (int_range 1 100000) (int_range 0 12))
    (fun (seed, k) ->
       let d =
         Mcl_gen.Generator.generate
           { Mcl_gen.Spec.default with
             Mcl_gen.Spec.seed; num_cells = 120; name = "wc" }
       in
       let rng = Mcl_geom.Prng.create seed in
       Array.iter
         (fun (c : Cell.t) ->
            if not c.Cell.is_fixed then begin
              c.Cell.x <- c.Cell.gp_x + Mcl_geom.Prng.int_in rng (-3) 3;
              c.Cell.y <- c.Cell.gp_y + Mcl_geom.Prng.int_in rng (-1) 1
            end)
         d.Design.cells;
       let oracle =
         Array.to_list d.Design.cells
         |> List.filter_map (fun (c : Cell.t) ->
             let disp = Mcl_eval.Metrics.displacement d c in
             if c.Cell.is_fixed || not (disp > 0.0) then None
             else Some (c.Cell.id, disp))
         |> List.sort (fun (ia, da) (ib, db) ->
             let c = Float.compare db da in
             if c <> 0 then c else Int.compare ia ib)
         |> List.filteri (fun i _ -> i < k)
       in
       let got =
         Mcl_eval.Windows.worst_cells ~k ~halfwidth:12 ~halfheight:2 d
         |> List.map (fun (w : Mcl_eval.Windows.worst) ->
             (w.Mcl_eval.Windows.w_cell, w.Mcl_eval.Windows.w_disp))
       in
       got = oracle)

let () =
  Alcotest.run "eval"
    [ ("metrics",
       [ Alcotest.test_case "displacement units" `Quick test_displacement_units;
         Alcotest.test_case "hpwl" `Quick test_hpwl;
         Alcotest.test_case "score Eq.10" `Quick test_score_formula ]);
      ("legality",
       [ Alcotest.test_case "violations" `Quick test_legality_violations;
         Alcotest.test_case "out-of-die + out-of-fence" `Quick
           test_out_of_die_and_out_of_fence;
         Alcotest.test_case "clean" `Quick test_legality_clean ]);
      ("routability",
       [ Alcotest.test_case "access vs hrail" `Quick test_pin_access_hrail;
         Alcotest.test_case "short vs hrail" `Quick test_pin_short_hrail;
         Alcotest.test_case "access vs vrail" `Quick test_pin_access_vrail;
         Alcotest.test_case "access vs io" `Quick test_pin_vs_io;
         Alcotest.test_case "edge spacing" `Quick test_edge_violation_detection ]);
      ("fast-checks",
       [ QCheck_alcotest.to_alcotest prop_fast_checks_match_definitions ]);
      ("worst-cells",
       [ QCheck_alcotest.to_alcotest prop_worst_cells_match_full_sort ]) ]
