(* Routability model unit tests: vertical-rail residue math at range
   boundaries, the feasible_x_range conflict fallback, off-die IO
   queries, and feasible_x_range against the site-by-site walk on a
   design with many IO pins (paper Sec. 2 / 3.4 constraints).

   Geometry used throughout: site_width = 4 dbu, vrail_pitch = 4 sites
   => one M3 stripe every 16 dbu, vrail_width = 2 dbu centred on the
   site boundary (stripe k covers dbu [16k - 1, 16k + 1)). The
   "railpin" type carries an M3 pin spanning dbu x in [0, 2) of the
   cell, so its left edge conflicts exactly when x mod 4 = 0; the
   "clean" type has no pins and conflicts nowhere. *)

open Mcl_netlist
module Rect = Mcl_geom.Rect

let mk_design ?(vrail_pitch = 4) ?(io_pins = []) () =
  let fp =
    Floorplan.make ~num_sites:16 ~num_rows:4 ~site_width:4 ~row_height:8
      ~hrail_period:0 ~vrail_pitch ~vrail_width:2 ~io_pins ()
  in
  let rail_pin =
    { Cell_type.pin_name = "a"; layer = Layer.M3;
      shape = Rect.make ~xl:0 ~yl:0 ~xh:2 ~yh:2 }
  in
  let types =
    [| Cell_type.make ~type_id:0 ~name:"railpin" ~width:2 ~height:1
         ~pins:[ rail_pin ] ();
       Cell_type.make ~type_id:1 ~name:"clean" ~width:2 ~height:1 () |]
  in
  Design.make ~name:"rt" ~floorplan:fp ~cell_types:types ~cells:[||] ()

let rt ?vrail_pitch ?io_pins () =
  Mcl.Routability.create (mk_design ?vrail_pitch ?io_pins ())

let test_x_ok_residues () =
  let r = rt () in
  List.iter
    (fun (x, expect) ->
       Alcotest.(check bool)
         (Printf.sprintf "railpin x_ok at %d" x)
         expect
         (Mcl.Routability.x_ok r ~type_id:0 ~x))
    [ (0, false); (1, true); (2, true); (3, true); (4, false); (8, false) ];
  for x = 0 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "clean x_ok at %d" x)
      true
      (Mcl.Routability.x_ok r ~type_id:1 ~x)
  done

let test_nearest_ok_x_boundaries () =
  let r = rt () in
  let nearest ~x ~lo ~hi = Mcl.Routability.nearest_ok_x r ~type_id:0 ~x ~lo ~hi in
  (* conflicting start at the range's low edge: forced one site right *)
  Alcotest.(check (option int)) "x=0 in [0,10]" (Some 1) (nearest ~x:0 ~lo:0 ~hi:10);
  (* ties search left first *)
  Alcotest.(check (option int)) "x=4 in [0,10]" (Some 3) (nearest ~x:4 ~lo:0 ~hi:10);
  (* a one-point range on a conflicting residue has no answer *)
  Alcotest.(check (option int)) "x=0 in [0,0]" None (nearest ~x:0 ~lo:0 ~hi:0);
  (* conflicting low edge, only the right neighbour in range *)
  Alcotest.(check (option int)) "x=8 in [8,9]" (Some 9) (nearest ~x:8 ~lo:8 ~hi:9);
  (* clean position inside the range is returned unchanged *)
  Alcotest.(check (option int)) "clean x kept" (Some 5)
    (Mcl.Routability.nearest_ok_x r ~type_id:0 ~x:5 ~lo:0 ~hi:10);
  (* at the range's high edge *)
  Alcotest.(check (option int)) "x=10 = hi kept" (Some 10)
    (nearest ~x:10 ~lo:0 ~hi:10)

let test_nearest_ok_x_all_conflict () =
  (* pitch 1 site: every residue carries the stripe, nothing is ok *)
  let r = rt ~vrail_pitch:1 () in
  Alcotest.(check bool) "no residue ok" false
    (Mcl.Routability.x_ok r ~type_id:0 ~x:3);
  Alcotest.(check (option int)) "whole range conflicts" None
    (Mcl.Routability.nearest_ok_x r ~type_id:0 ~x:5 ~lo:0 ~hi:15);
  (* the pinless type never conflicts even at pitch 1 *)
  Alcotest.(check (option int)) "clean type unaffected" (Some 5)
    (Mcl.Routability.nearest_ok_x r ~type_id:1 ~x:5 ~lo:0 ~hi:15)

let test_feasible_x_range () =
  let r = rt () in
  let range ~type_id ~x ~max_reach =
    Mcl.Routability.feasible_x_range r ~type_id ~x ~y:0 ~span_lo:0 ~span_hi:15
      ~max_reach
  in
  (* conflicting x falls back to the single point x *)
  Alcotest.(check (pair int int)) "conflict => (x, x)" (4, 4)
    (range ~type_id:0 ~x:4 ~max_reach:10);
  (* clean x expands until the neighbouring conflicting residues *)
  Alcotest.(check (pair int int)) "stops at rails" (1, 3)
    (range ~type_id:0 ~x:2 ~max_reach:10);
  (* expansion is capped by max_reach in both directions *)
  Alcotest.(check (pair int int)) "max_reach cap" (2, 8)
    (range ~type_id:1 ~x:5 ~max_reach:3);
  (* and by the span *)
  Alcotest.(check (pair int int)) "span cap" (0, 4)
    (Mcl.Routability.feasible_x_range r ~type_id:1 ~x:2 ~y:0 ~span_lo:0
       ~span_hi:4 ~max_reach:50)

let test_io_conflicts () =
  (* one IO pad on M3 over dbu [40, 44) x [8, 16) *)
  let io =
    [ { Floorplan.io_layer = Layer.M3;
        io_rect = Rect.make ~xl:40 ~yl:8 ~xh:44 ~yh:16 } ]
  in
  let r = rt ~io_pins:io () in
  (* cell at site (10, 1): pin covers dbu [40, 42) x [8, 10) => short *)
  Alcotest.(check int) "overlapping pad" 1
    (Mcl.Routability.io_conflicts r ~type_id:0 ~x:10 ~y:1);
  (* one row below: pin y-span [0, 2) misses the pad *)
  Alcotest.(check int) "clear of pad" 0
    (Mcl.Routability.io_conflicts r ~type_id:0 ~x:10 ~y:0);
  (* pinless cells cannot conflict *)
  Alcotest.(check int) "clean type" 0
    (Mcl.Routability.io_conflicts r ~type_id:1 ~x:10 ~y:1);
  (* off-die positions must answer (zero), not crash: the query is
     used on speculative candidates before die clamping *)
  Alcotest.(check int) "far negative" 0
    (Mcl.Routability.io_conflicts r ~type_id:0 ~x:(-10) ~y:(-5));
  Alcotest.(check int) "far beyond die" 0
    (Mcl.Routability.io_conflicts r ~type_id:0 ~x:1000 ~y:1000)

(* ---------------------------------------------------------------- *)
(* feasible_x_range against the site-by-site walk                    *)
(* ---------------------------------------------------------------- *)

(* The reference: probe every site outward from [x], one per-site
   test at a time. [walk clean] is that walk for any per-site test;
   the reference tests with the public [x_ok] and [io_conflicts]. *)
let walk clean ~x ~span_lo ~span_hi ~max_reach =
  if not (clean x) then (x, x)
  else begin
    let lo = ref x in
    while !lo > span_lo && x - !lo < max_reach && clean (!lo - 1) do decr lo done;
    let hi = ref x in
    while !hi < span_hi && !hi - x < max_reach && clean (!hi + 1) do incr hi done;
    (!lo, !hi)
  end

(* A generated design (real cell library, M1/M2 cell pins, M2 and M3
   rails) with 300 IO pins on M2 and M3: sparse enough that many
   probed ranges touch no IO pin, dense enough that many do. *)
let io_design =
  lazy
    (Mcl_gen.Generator.generate
       { Mcl_gen.Spec.default with
         Mcl_gen.Spec.name = "io300"; seed = 11; num_io_pins = 300 })

type query = {
  q_type : int; q_x : int; q_y : int;
  q_span_lo : int; q_span_hi : int; q_reach : int;
}

(* Spans mostly bracket [x], but not always: the row-order stage can
   hand in a span that excludes the current position. *)
let draw_query (d : Design.t) rng =
  let module Prng = Mcl_geom.Prng in
  let fp = d.Design.floorplan in
  let x = Prng.int rng fp.Floorplan.num_sites in
  { q_type = Prng.int rng (Array.length d.Design.cell_types);
    q_x = x;
    q_y = Prng.int rng fp.Floorplan.num_rows;
    q_span_lo = x - Prng.int_in rng (-8) 150;
    q_span_hi = x + Prng.int_in rng (-8) 150;
    q_reach = Prng.int_in rng 0 100 }

let range_of r q =
  Mcl.Routability.feasible_x_range r ~type_id:q.q_type ~x:q.q_x ~y:q.q_y
    ~span_lo:q.q_span_lo ~span_hi:q.q_span_hi ~max_reach:q.q_reach

let walk_of clean q =
  walk clean ~x:q.q_x ~span_lo:q.q_span_lo ~span_hi:q.q_span_hi
    ~max_reach:q.q_reach

let reference_of r q =
  walk_of
    (fun x ->
       Mcl.Routability.x_ok r ~type_id:q.q_type ~x
       && Mcl.Routability.io_conflicts r ~type_id:q.q_type ~x ~y:q.q_y = 0)
    q

let prop_feasible_x_range_reference =
  QCheck.Test.make ~name:"feasible_x_range == site-by-site walk" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
       let d = Lazy.force io_design in
       let r = Mcl.Routability.create d in
       let rng = Mcl_geom.Prng.create seed in
       List.for_all
         (fun q -> range_of r q = reference_of r q)
         (List.init 20 (fun _ -> draw_query d rng)))

(* Both regimes occur on this design: probed ranges that no IO pin of
   a related layer touches, and ranges an IO pin cuts short (the
   result differs from the walk over the rail residues alone). *)
let test_feasible_x_range_regimes () =
  let d = Lazy.force io_design in
  let fp = d.Design.floorplan in
  let sw = fp.Floorplan.site_width and rh = fp.Floorplan.row_height in
  let r = Mcl.Routability.create d in
  let related ~pin (io : Floorplan.io_pin) =
    Layer.equal pin io.Floorplan.io_layer
    || Layer.above pin = Some io.Floorplan.io_layer
  in
  let io_free q =
    let lo = min q.q_x (max q.q_span_lo (q.q_x - q.q_reach))
    and hi = max q.q_x (min q.q_span_hi (q.q_x + q.q_reach)) in
    let ct = d.Design.cell_types.(q.q_type) in
    List.for_all
      (fun (p : Cell_type.pin) ->
         let s = p.Cell_type.shape in
         let swept =
           Rect.make ~xl:((lo * sw) + s.Rect.x.Mcl_geom.Interval.lo)
             ~xh:((hi * sw) + s.Rect.x.Mcl_geom.Interval.hi)
             ~yl:((q.q_y * rh) + s.Rect.y.Mcl_geom.Interval.lo)
             ~yh:((q.q_y * rh) + s.Rect.y.Mcl_geom.Interval.hi)
         in
         not
           (List.exists
              (fun io ->
                 related ~pin:p.Cell_type.layer io
                 && Rect.overlaps swept io.Floorplan.io_rect)
              fp.Floorplan.io_pins))
      ct.Cell_type.pins
  in
  let rails_only q =
    walk_of (fun x -> Mcl.Routability.x_ok r ~type_id:q.q_type ~x) q
  in
  let rng = Mcl_geom.Prng.create 2018 in
  let free = ref 0 and cut = ref 0 in
  for _ = 1 to 2000 do
    let q = draw_query d rng in
    let expect = reference_of r q in
    Alcotest.(check (pair int int)) "range" expect (range_of r q);
    if io_free q then incr free;
    if expect <> rails_only q then incr cut
  done;
  Alcotest.(check bool)
    (Printf.sprintf "IO-free ranges occur (%d of 2000)" !free) true (!free > 100);
  Alcotest.(check bool)
    (Printf.sprintf "IO-cut ranges occur (%d of 2000)" !cut) true (!cut > 100)

let () =
  Alcotest.run "routability"
    [ ("vrails",
       [ Alcotest.test_case "x_ok residues" `Quick test_x_ok_residues;
         Alcotest.test_case "nearest_ok_x boundaries" `Quick
           test_nearest_ok_x_boundaries;
         Alcotest.test_case "nearest_ok_x all-conflict" `Quick
           test_nearest_ok_x_all_conflict;
         Alcotest.test_case "feasible_x_range" `Quick test_feasible_x_range ]);
      ("io",
       [ Alcotest.test_case "io_conflicts incl. off-die" `Quick
           test_io_conflicts;
         QCheck_alcotest.to_alcotest prop_feasible_x_range_reference;
         Alcotest.test_case "feasible_x_range IO regimes" `Quick
           test_feasible_x_range_regimes ]) ]
