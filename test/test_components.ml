(* Unit tests for the core data structures: Segment, Placement and the
   Routability navigator. *)

module Rect = Mcl_geom.Rect
module Interval = Mcl_geom.Interval
open Mcl_netlist

let ct ?(edge_type = 0) ?(pins = []) id name w h =
  Cell_type.make ~type_id:id ~name ~width:w ~height:h ~edge_type ~pins ()

(* ---- Segment ---- *)

let seg_design () =
  let fp =
    Floorplan.make ~num_sites:100 ~num_rows:6
      ~blockages:[ Rect.make ~xl:40 ~yl:0 ~xh:50 ~yh:2 ] ()
  in
  let fence =
    Fence.make ~fence_id:1 ~name:"f" ~rects:[ Rect.make ~xl:60 ~yl:0 ~xh:90 ~yh:4 ]
  in
  let types = [| ct 0 "a" 4 1 |] in
  let cells = [| Cell.make ~id:0 ~type_id:0 ~gp_x:0 ~gp_y:0 () |] in
  Design.make ~name:"seg" ~floorplan:fp ~cell_types:types ~cells
    ~fences:[| fence |] ()

let iv_list = Alcotest.testable
    (Fmt.list Interval.pp)
    (fun a b -> List.length a = List.length b && List.for_all2 Interval.equal a b)

let test_segment_default_region () =
  let d = seg_design () in
  let s = Mcl.Segment.build ~respect_fences:true d in
  Alcotest.(check int) "regions" 2 (Mcl.Segment.num_regions s);
  (* row 0: die minus blockage [40,50) minus fence [60,90) *)
  Alcotest.check iv_list "row 0 default"
    [ Interval.make 0 40; Interval.make 50 60; Interval.make 90 100 ]
    (Mcl.Segment.spans s ~row:0 ~region:0);
  (* row 2: blockage gone, fence still there *)
  Alcotest.check iv_list "row 2 default"
    [ Interval.make 0 60; Interval.make 90 100 ]
    (Mcl.Segment.spans s ~row:2 ~region:0);
  (* row 5: above the fence *)
  Alcotest.check iv_list "row 5 default" [ Interval.make 0 100 ]
    (Mcl.Segment.spans s ~row:5 ~region:0)

let test_segment_fence_region () =
  let d = seg_design () in
  let s = Mcl.Segment.build ~respect_fences:true d in
  Alcotest.check iv_list "fence row 1" [ Interval.make 60 90 ]
    (Mcl.Segment.spans s ~row:1 ~region:1);
  Alcotest.check iv_list "fence row 4 empty" [] (Mcl.Segment.spans s ~row:4 ~region:1);
  (match Mcl.Segment.span_at s ~row:1 ~region:1 ~x:75 with
   | Some span -> Alcotest.(check bool) "span_at" true (Interval.equal span (Interval.make 60 90))
   | None -> Alcotest.fail "span_at missed");
  Alcotest.(check bool) "span_at outside" true
    (Mcl.Segment.span_at s ~row:1 ~region:1 ~x:30 = None)

let test_segment_no_fences_mode () =
  let d = seg_design () in
  let s = Mcl.Segment.build ~respect_fences:false d in
  Alcotest.(check int) "one region" 1 (Mcl.Segment.num_regions s);
  (* fence ignored; blockage still honored *)
  Alcotest.check iv_list "row 0"
    [ Interval.make 0 40; Interval.make 50 100 ]
    (Mcl.Segment.spans s ~row:0 ~region:0)

let test_segment_boundary_gap () =
  let d = seg_design () in
  let s = Mcl.Segment.build ~boundary_gap:2 ~respect_fences:true d in
  Alcotest.check iv_list "row 0 padded"
    [ Interval.make 2 38; Interval.make 52 58; Interval.make 92 98 ]
    (Mcl.Segment.spans s ~row:0 ~region:0)

let test_segment_region_area () =
  let d = seg_design () in
  let s = Mcl.Segment.build ~respect_fences:true d in
  (* fence: 30 sites x 4 rows *)
  Alcotest.(check int) "fence area" 120 (Mcl.Segment.region_area s ~region:1)

(* ---- Placement ---- *)

let placement_design () =
  let fp = Floorplan.make ~num_sites:60 ~num_rows:4 () in
  let types = [| ct 0 "s" 5 1; ct 1 "d" 5 2 |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:10 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:20 ~gp_y:0 ();
       Cell.make ~id:2 ~type_id:1 ~gp_x:15 ~gp_y:0 () |]
  in
  Design.make ~name:"pl" ~floorplan:fp ~cell_types:types ~cells ()

let test_placement_rows_sorted () =
  let d = placement_design () in
  let p = Mcl.Placement.create d in
  Mcl.Placement.add p 1;
  Mcl.Placement.add p 0;
  Mcl.Placement.add p 2;
  Alcotest.(check bool) "well formed" true (Mcl.Placement.well_formed p);
  let arr, len = Mcl.Placement.row_cells p 0 in
  Alcotest.(check (list int)) "row 0 sorted by x" [ 0; 2; 1 ]
    (Array.to_list (Array.sub arr 0 len));
  (* the double-height cell also sits in row 1 *)
  let arr, len = Mcl.Placement.row_cells p 1 in
  Alcotest.(check (list int)) "row 1" [ 2 ] (Array.to_list (Array.sub arr 0 len))

let test_placement_remove_and_membership () =
  let d = placement_design () in
  let p = Mcl.Placement.create d in
  Mcl.Placement.add p 2;
  Alcotest.(check bool) "mem" true (Mcl.Placement.mem p 2);
  Mcl.Placement.remove p 2;
  Alcotest.(check bool) "removed" false (Mcl.Placement.mem p 2);
  let _, len = Mcl.Placement.row_cells p 1 in
  Alcotest.(check int) "row emptied" 0 len;
  Alcotest.check_raises "double remove rejected"
    (Invalid_argument "Placement.remove: not registered")
    (fun () -> Mcl.Placement.remove p 2)

let test_placement_x_range () =
  let d = placement_design () in
  let p = Mcl.Placement.of_design d in
  (* row 0 holds cell 0 at x=10, cell 2 at x=15, cell 1 at x=20 *)
  let ids ~lo ~hi =
    let arr, _ = Mcl.Placement.row_cells p 0 in
    let first, last = Mcl.Placement.x_range p ~row:0 ~lo ~hi in
    List.init (last - first) (fun k -> arr.(first + k))
  in
  Alcotest.(check (list int)) "left edges in [12, 20]" [ 2; 1 ] (ids ~lo:12 ~hi:20);
  Alcotest.(check (list int)) "bounds inclusive" [ 0; 2 ] (ids ~lo:10 ~hi:15);
  Alcotest.(check (list int)) "past the row" [] (ids ~lo:21 ~hi:60);
  Alcotest.(check (list int)) "hi < lo" [] (ids ~lo:16 ~hi:14)

(* the binary-searched range equals a linear filter of the row, on
   random rows with repeated and overlapping x (sorting is all the
   lookup relies on) *)
let prop_placement_x_range_linear =
  QCheck.Test.make ~name:"x_range == linear filter on random rows" ~count:200
    QCheck.(int_range 1 100000)
    (fun seed ->
       let rng = Mcl_geom.Prng.create seed in
       let fp = Floorplan.make ~num_sites:64 ~num_rows:1 () in
       let types = Array.init 4 (fun i -> ct i (Printf.sprintf "w%d" i) (i + 1) 1) in
       let n = Mcl_geom.Prng.int rng 24 in
       let cells =
         Array.init n (fun i ->
             let c =
               Cell.make ~id:i ~type_id:(Mcl_geom.Prng.int rng 4) ~gp_x:0 ~gp_y:0 ()
             in
             c.Cell.x <- Mcl_geom.Prng.int rng 60;
             c)
       in
       let d = Design.make ~name:"xr" ~floorplan:fp ~cell_types:types ~cells () in
       let p = Mcl.Placement.of_design d in
       let arr, len = Mcl.Placement.row_cells p 0 in
       let lo = Mcl_geom.Prng.int rng 70 - 5 in
       let hi = lo + Mcl_geom.Prng.int rng 30 - 5 in
       let first, last = Mcl.Placement.x_range p ~row:0 ~lo ~hi in
       let linear =
         List.filter
           (fun i ->
              let x = cells.(arr.(i)).Cell.x in
              lo <= x && x <= hi)
           (List.init len (fun i -> i))
       in
       linear = List.init (last - first) (fun k -> first + k))

(* ---- Routability navigator ---- *)

let rout_design () =
  let pins =
    [ { Cell_type.pin_name = "low";
        layer = Layer.M1;
        shape = Rect.make ~xl:2 ~yl:0 ~xh:4 ~yh:3 };
      { Cell_type.pin_name = "mid_m2";
        layer = Layer.M2;
        shape = Rect.make ~xl:6 ~yl:8 ~xh:8 ~yh:11 } ]
  in
  let fp =
    Floorplan.make ~num_sites:128 ~num_rows:16 ~site_width:2 ~row_height:20
      ~hrail_period:4 ~hrail_halfwidth:3 ~vrail_pitch:32 ~vrail_width:2 ()
  in
  let types = [| ct 0 "t" 8 1 ~pins; ct 1 "plain" 8 1 |] in
  let cells = [| Cell.make ~id:0 ~type_id:0 ~gp_x:10 ~gp_y:1 () |] in
  Design.make ~name:"rt" ~floorplan:fp ~cell_types:types ~cells ()

let test_row_ok_periodicity () =
  let d = rout_design () in
  let r = Mcl.Routability.create d in
  (* the M1 pin touches rows adjacent to every 4th boundary: row 0, 4,
     8 ... conflict (pin y-span 0..3 under stripe -3..3) *)
  Alcotest.(check bool) "row 0 blocked" false (Mcl.Routability.row_ok r ~type_id:0 ~y:0);
  Alcotest.(check bool) "row 4 blocked" false (Mcl.Routability.row_ok r ~type_id:0 ~y:4);
  Alcotest.(check bool) "row 1 fine" true (Mcl.Routability.row_ok r ~type_id:0 ~y:1);
  (* a pinless type is never blocked *)
  for y = 0 to 15 do
    Alcotest.(check bool) "plain type ok" true (Mcl.Routability.row_ok r ~type_id:1 ~y)
  done

let test_x_ok_and_nearest () =
  let d = rout_design () in
  let r = Mcl.Routability.create d in
  (* M2 pin x-span at position x: [2x+6, 2x+8); M3 stripes at
     64k +- 1 dbu. x = 29 -> span 64..66 overlaps stripe 63..65. *)
  Alcotest.(check bool) "conflict column" false (Mcl.Routability.x_ok r ~type_id:0 ~x:29);
  Alcotest.(check bool) "free column" true (Mcl.Routability.x_ok r ~type_id:0 ~x:20);
  (match Mcl.Routability.nearest_ok_x r ~type_id:0 ~x:29 ~lo:0 ~hi:100 with
   | Some x ->
     Alcotest.(check bool) "nearest is adjacent" true (abs (x - 29) <= 2);
     Alcotest.(check bool) "nearest ok" true (Mcl.Routability.x_ok r ~type_id:0 ~x)
   | None -> Alcotest.fail "expected a free column");
  (* pinless type: everything ok *)
  Alcotest.(check bool) "plain ok" true (Mcl.Routability.x_ok r ~type_id:1 ~x:29)

let test_feasible_range_stops_at_conflicts () =
  let d = rout_design () in
  let r = Mcl.Routability.create d in
  let lo, hi =
    Mcl.Routability.feasible_x_range r ~type_id:0 ~x:20 ~y:1 ~span_lo:0
      ~span_hi:120 ~max_reach:64
  in
  Alcotest.(check bool) "contains start" true (lo <= 20 && 20 <= hi);
  (* the range must not contain the conflicting column 29 *)
  Alcotest.(check bool) "stops before conflict" true (hi < 29);
  (* every column in the range is clean *)
  for x = lo to hi do
    Alcotest.(check bool) "clean" true (Mcl.Routability.x_ok r ~type_id:0 ~x)
  done

let prop_placement_add_remove_random =
  QCheck.Test.make ~name:"placement add/remove keeps rows well-formed" ~count:100
    QCheck.(int_range 1 10000)
    (fun seed ->
       let rng = Mcl_geom.Prng.create seed in
       let fp = Floorplan.make ~num_sites:200 ~num_rows:6 () in
       let types = [| ct 0 "s" 4 1; ct 1 "d" 4 2 |] in
       let n = 20 in
       let cells =
         Array.init n (fun i ->
             let tid = Mcl_geom.Prng.int rng 2 in
             let c = Cell.make ~id:i ~type_id:tid ~gp_x:(9 * i) ~gp_y:0 () in
             c.Cell.y <- (if tid = 1 then 2 * Mcl_geom.Prng.int rng 3 else Mcl_geom.Prng.int rng 6);
             c)
       in
       let d = Design.make ~name:"pp" ~floorplan:fp ~cell_types:types ~cells () in
       let p = Mcl.Placement.create d in
       let registered = Array.make n false in
       for _ = 1 to 120 do
         let i = Mcl_geom.Prng.int rng n in
         if registered.(i) then begin
           Mcl.Placement.remove p i;
           registered.(i) <- false
         end
         else begin
           Mcl.Placement.add p i;
           registered.(i) <- true
         end
       done;
       Mcl.Placement.well_formed p
       && Array.for_all (fun i -> Mcl.Placement.mem p i = registered.(i))
            (Array.init n (fun i -> i)))

let () =
  Alcotest.run "components"
    [ ("segment",
       [ Alcotest.test_case "default region" `Quick test_segment_default_region;
         Alcotest.test_case "fence region" `Quick test_segment_fence_region;
         Alcotest.test_case "fences ignored" `Quick test_segment_no_fences_mode;
         Alcotest.test_case "boundary gap" `Quick test_segment_boundary_gap;
         Alcotest.test_case "region area" `Quick test_segment_region_area ]);
      ("placement",
       [ Alcotest.test_case "rows sorted" `Quick test_placement_rows_sorted;
         Alcotest.test_case "remove/membership" `Quick test_placement_remove_and_membership;
         Alcotest.test_case "x range" `Quick test_placement_x_range;
         QCheck_alcotest.to_alcotest prop_placement_x_range_linear;
         QCheck_alcotest.to_alcotest prop_placement_add_remove_random ]);
      ("routability",
       [ Alcotest.test_case "row_ok periodicity" `Quick test_row_ok_periodicity;
         Alcotest.test_case "x_ok and nearest" `Quick test_x_ok_and_nearest;
         Alcotest.test_case "feasible range" `Quick test_feasible_range_stops_at_conflicts ]) ]
