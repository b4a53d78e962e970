(* Congestion-map tests: hand-checked demand/pin accounting on a tiny
   two-bin design, the incremental == rebuilt invariant under long
   randomized move/undo traces, the eco sync path, golden hotspot
   metrics on a generated design, and a check that the map's bin width
   never reaches the legalizer. *)

open Mcl_netlist
module C = Mcl_congest.Congestion
module G = Mcl_congest.Grid

(* Two 16x16-dbu bins side by side: 8 sites x 2 rows at 4x8 dbu,
   bin_sites = 4 (=> bin_rows = 2, one bin row). *)
let tiny () =
  let fp =
    Floorplan.make ~num_sites:8 ~num_rows:2 ~site_width:4 ~row_height:8
      ~hrail_period:0 ~vrail_pitch:0 ()
  in
  let types = [| Cell_type.make ~type_id:0 ~name:"u" ~width:1 ~height:1 () |] in
  let cells =
    [| Cell.make ~id:0 ~type_id:0 ~gp_x:0 ~gp_y:0 ();
       Cell.make ~id:1 ~type_id:0 ~gp_x:4 ~gp_y:0 ();
       Cell.make ~id:2 ~type_id:0 ~gp_x:7 ~gp_y:1 ~is_fixed:true () |]
  in
  let nets =
    [| Net.make ~net_id:0
         ~endpoints:
           [ Net.Cell_pin { cell = 0; dx = 0; dy = 0 };
             Net.Cell_pin { cell = 1; dx = 0; dy = 0 };
             Net.Fixed_pin { px = 2; py = 8 } ] |]
  in
  Design.make ~name:"tiny" ~floorplan:fp ~cell_types:types ~cells ~nets ()

let test_tiny_accounting () =
  let d = tiny () in
  let m = C.create ~bin_sites:4 d in
  let g = C.grid m in
  Alcotest.(check int) "two bins" 2 (G.num_bins g);
  (* cell 0's pin at dbu (0,0) -> bin 0; cell 1's at (16,0) -> bin 1;
     the fixed pin at (2,8) -> bin 0; the fixed *cell* 2 has no pins.
     pin_density = pins per site area = pins * 32 / 256 *)
  Alcotest.(check (float 1e-9)) "bin0 pins" 0.25 (C.pin_density m 0);
  Alcotest.(check (float 1e-9)) "bin1 pins" 0.125 (C.pin_density m 1);
  (* the net bbox spans both bins: demand on each side *)
  Alcotest.(check bool) "bin0 wire" true (C.wire_density m 0 > 0.0);
  Alcotest.(check bool) "bin1 wire" true (C.wire_density m 1 > 0.0);
  (* pull cell 1 into bin 0: all endpoints now at x <= 2 dbu, so bin 1
     must drop to exactly zero demand and zero pins *)
  C.apply_move m ~cell:1 ~x:0 ~y:1;
  Alcotest.(check (float 1e-9)) "bin1 wire emptied" 0.0 (C.wire_density m 1);
  Alcotest.(check (float 1e-9)) "bin1 pins emptied" 0.0 (C.pin_density m 1);
  Alcotest.(check (float 1e-9)) "bin0 pins grew" 0.375 (C.pin_density m 0);
  Alcotest.(check bool) "incremental == fresh" true (C.equal m (C.create ~bin_sites:4 d));
  (* undo restores the original maps exactly *)
  Alcotest.(check bool) "undo" true (C.undo m);
  Alcotest.(check bool) "journal empty" false (C.undo m);
  Alcotest.(check bool) "undone == fresh" true (C.equal m (C.create ~bin_sites:4 d));
  Alcotest.check_raises "fixed cell rejected"
    (Invalid_argument "Congestion.apply_move: fixed cell")
    (fun () -> C.apply_move m ~cell:2 ~x:0 ~y:0)

let gen_design ?(num_cells = 300) seed =
  Mcl_gen.Generator.generate
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.seed;
      num_cells;
      name = Printf.sprintf "cg%d" seed }

let test_randomized_moves () =
  let d = gen_design 11 in
  let fp = d.Design.floorplan in
  let m = C.create d in
  let prng = Mcl_geom.Prng.create 2718 in
  let n = Design.num_cells d in
  let ops = 1200 in
  let moved = ref 0 and undone = ref 0 in
  for _ = 1 to ops do
    if C.journal_depth m > 0 && Mcl_geom.Prng.int prng 10 < 3 then begin
      ignore (C.undo m);
      incr undone
    end
    else begin
      let rec movable () =
        let id = Mcl_geom.Prng.int prng n in
        if d.Design.cells.(id).Cell.is_fixed then movable () else id
      in
      let id = movable () in
      let ct = Design.cell_type d d.Design.cells.(id) in
      C.apply_move m ~cell:id
        ~x:(Mcl_geom.Prng.int prng
              (max 1 (fp.Floorplan.num_sites - ct.Cell_type.width + 1)))
        ~y:(Mcl_geom.Prng.int prng
              (max 1 (fp.Floorplan.num_rows - ct.Cell_type.height + 1)));
      incr moved
    end;
    (* spot-check the invariant mid-trace too, cheaply *)
    if (!moved + !undone) mod 400 = 0 then
      Alcotest.(check bool) "mid-trace incremental == fresh" true
        (C.equal m (C.create d))
  done;
  Alcotest.(check bool) "ran enough ops" true (!moved + !undone >= 1000);
  Alcotest.(check bool) "end incremental == fresh" true (C.equal m (C.create d));
  (* unwinding the whole journal reproduces the load-time maps *)
  let reference = C.create d in
  ignore reference;
  while C.undo m do () done;
  Alcotest.(check bool) "fully undone == fresh at origin" true
    (C.equal m (C.create d))

let test_sync_after_eco () =
  let d = gen_design 12 in
  let cfg = Mcl.Config.default in
  ignore (Mcl.Pipeline.run cfg d);
  let m = C.create d in
  let victims = [ 3; 50; 123; 200 ] in
  (* drop the victims onto cell 0 through the map, then re-insert them
     outside its control and patch it from the eco's undo log *)
  List.iter
    (fun id ->
       let c0 = d.Design.cells.(0) in
       C.apply_move m ~cell:id ~x:c0.Cell.x ~y:c0.Cell.y)
    victims;
  let ctx = Mcl.Eco.context cfg d in
  ignore (Mcl.Eco.relegalize ctx ~cells:victims);
  let moved = Mcl.Insertion.moved ctx in
  Alcotest.(check bool) "every victim logged" true
    (List.for_all (fun v -> List.exists (fun (c, _, _) -> c = v) moved) victims);
  Alcotest.(check bool) "stale before sync" false (C.equal m (C.create d));
  C.sync m ~moved;
  Alcotest.(check bool) "synced == fresh" true (C.equal m (C.create d))

(* Golden aggregates of the GP state of the bench's congested design
   (hotspotted generator, seed 97): pins the generator + summarize
   chain. Regenerate by printing [Mcl_eval.Metrics.congestion d] here
   if the generator intentionally changes. *)
let test_golden_hotspots () =
  let d =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with
        Mcl_gen.Spec.name = "congest_bench";
        num_cells = 600;
        hotspots = 4;
        nets_per_cell = 2.5;
        seed = 97 }
  in
  let s = Mcl_eval.Metrics.congestion d in
  Alcotest.(check int) "bins" 110 s.C.bins;
  Alcotest.(check int) "overfull" 14 s.C.overfull;
  Alcotest.(check (float 1e-6)) "max overflow" 3.016861 s.C.max_overflow;
  Alcotest.(check (float 1e-6)) "avg overflow" 0.054131 s.C.avg_overflow;
  match s.C.hotspots with
  | worst :: _ ->
    Alcotest.(check (pair int int)) "worst bin" (0, 0) (worst.C.bx, worst.C.by);
    Alcotest.(check (float 1e-6)) "worst overflow" s.C.max_overflow
      worst.C.hs_overflow
  | [] -> Alcotest.fail "no hotspots reported"

let test_bin_sites_ignored () =
  (* the map's bin width is a reporting knob: the pipeline output is
     the default flow's, bit for bit *)
  let run cfg =
    let d = gen_design 13 in
    ignore (Mcl.Pipeline.run cfg d);
    Design.snapshot d
  in
  Alcotest.(check bool) "bin_sites ignored" true
    (run { Mcl.Config.default with Mcl.Config.congestion_bin_sites = 8 }
     = run Mcl.Config.default)

(* Hotspots against the full sort they replace (overflow descending,
   bin index ascending, first [top_k], positive only). Small bins make
   equal overflows common; [top_k] ranges over 0 .. 12. *)
let full_sort_hotspots m ~top_k =
  let n = G.num_bins (C.grid m) in
  let all = Array.init n (fun i -> (C.overflow m i, i)) in
  Array.sort (fun (a, i) (b, j) -> compare (-.a, i) (-.b, j)) all;
  Array.to_list (Array.sub all 0 (min top_k n))
  |> List.filter (fun (ov, _) -> ov > 0.0)

let hotspot_pairs m ~top_k =
  let nx = (C.grid m).G.nx in
  List.map
    (fun (h : C.hotspot) -> (h.C.hs_overflow, (h.C.by * nx) + h.C.bx))
    (C.summarize ~top_k m).C.hotspots

let prop_hotspots_match_full_sort =
  QCheck.Test.make ~name:"summarize hotspots == full sort" ~count:40
    QCheck.(triple (int_range 1 1000) (int_range 1 8) (int_range 0 12))
    (fun (seed, bin_sites, top_k) ->
       let m = C.create ~bin_sites (gen_design ~num_cells:200 seed) in
       hotspot_pairs m ~top_k = full_sort_hotspots m ~top_k)

(* The same oracle on maps chosen to have equal overflows straddling
   the cut, so the index tie-break decides which bins are kept. *)
let test_hotspot_ties () =
  let cases = ref 0 in
  for seed = 1 to 30 do
    let m = C.create ~bin_sites:1 (gen_design ~num_cells:200 seed) in
    let sorted = full_sort_hotspots m ~top_k:max_int in
    List.iteri
      (fun k (ov, _) ->
         match List.nth_opt sorted (k + 1) with
         | Some (ov', _) when ov' = ov && k < 12 ->
           incr cases;
           let top_k = k + 1 in
           Alcotest.(check bool)
             (Printf.sprintf "seed %d top_k %d" seed top_k)
             true
             (hotspot_pairs m ~top_k = full_sort_hotspots m ~top_k)
         | Some _ | None -> ())
      sorted
  done;
  Alcotest.(check bool) "ties at the cut were found" true (!cases > 0);
  (* k = 0 asks for no hotspots at all *)
  let m = C.create (gen_design 3) in
  Alcotest.(check int) "k = 0" 0 (List.length (hotspot_pairs m ~top_k:0))

let () =
  Alcotest.run "congest"
    [ ("maps",
       [ Alcotest.test_case "tiny accounting" `Quick test_tiny_accounting;
         Alcotest.test_case "randomized moves/undo" `Quick test_randomized_moves;
         Alcotest.test_case "sync after eco" `Quick test_sync_after_eco;
         Alcotest.test_case "golden hotspots" `Quick test_golden_hotspots;
         Alcotest.test_case "hotspot ties at the cut" `Quick test_hotspot_ties;
         QCheck_alcotest.to_alcotest prop_hotspots_match_full_sort ]);
      ("pipeline",
       [ Alcotest.test_case "bin_sites ignored" `Quick test_bin_sites_ignored ])
    ]
