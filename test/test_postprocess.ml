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

(* The candidate sort must order ties exactly as Array.sort does, or
   different tied neighbours become edges. Keys come from at most five
   values (nan and infinity included) or are distinct. *)
let prop_sort_by_key_matches_array_sort =
  QCheck.Test.make ~name:"sort_by_key == Array.sort (ties included)" ~count:300
    QCheck.(pair (int_range 0 2000) (int_range 0 1_000_000))
    (fun (n, seed) ->
       let rng = Mcl_geom.Prng.create seed in
       let key =
         if Mcl_geom.Prng.bool rng then begin
           let pool =
             [| 0.0; 1.5; -2.0; Float.infinity; Float.nan; 7.25 |]
           in
           let m = 1 + Mcl_geom.Prng.int rng 5 in
           Array.init n (fun _ -> pool.(Mcl_geom.Prng.int rng m))
         end
         else begin
           let k = Array.init n (fun i -> float_of_int i *. 0.5) in
           Mcl_geom.Prng.shuffle rng k;
           k
         end
       in
       (* both start from a scrambled index order, as in matching's
          reused index array *)
       let start = Array.init n (fun i -> i) in
       Mcl_geom.Prng.shuffle rng start;
       let expect = Array.copy start and got = Array.copy start in
       Array.sort (fun a b -> compare key.(a) key.(b)) expect;
       Mcl.Matching_opt.sort_by_key key got;
       expect = got)

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

let pin name expected actual = Alcotest.(check string) name expected actual

let kernel_line (k : Mcl.Arena.counters) =
  Printf.sprintf "k=%d/%d/%d" k.Mcl.Arena.windows_built
    k.Mcl.Arena.cuts_evaluated k.Mcl.Arena.cuts_pruned

let scheduler_line (s : Mcl.Scheduler.stats) =
  Printf.sprintf "legalized=%d rounds=%d growths=%d fallbacks=%d %s shard=%s"
    s.Mcl.Scheduler.legalized s.Mcl.Scheduler.rounds
    s.Mcl.Scheduler.window_growths s.Mcl.Scheduler.fallbacks
    (kernel_line s.Mcl.Scheduler.kernel)
    (match s.Mcl.Scheduler.sharding with
     | None -> "-"
     | Some i ->
       Printf.sprintf "%d/%d/%d/%d/%d" i.Mcl.Scheduler.shard_count
         i.Mcl.Scheduler.seam_margin i.Mcl.Scheduler.interior_legalized
         i.Mcl.Scheduler.boundary_zone i.Mcl.Scheduler.deferred)

let mgl_line (s : Mcl.Mgl.stats) =
  Printf.sprintf "legalized=%d growths=%d fallbacks=%d %s" s.Mcl.Mgl.legalized
    s.Mcl.Mgl.window_growths s.Mcl.Mgl.fallbacks (kernel_line s.Mcl.Mgl.kernel)

(* Move 11 GP anchors past the die edge (lint's G102): the windowed
   search must grow from the empty die-clamped window, not give up. *)
let anchors_off_die (d : Design.t) =
  let fp = d.Design.floorplan in
  let movable =
    Array.of_list
      (List.filter
         (fun i -> not d.Design.cells.(i).Cell.is_fixed)
         (List.init (Design.num_cells d) Fun.id))
  in
  List.iteri
    (fun k side ->
       let c = d.Design.cells.(movable.((k * 104729 + 13) mod Array.length movable)) in
       match side with
       | `Right -> c.Cell.gp_x <- fp.Floorplan.num_sites + 3 + k
       | `Top -> c.Cell.gp_y <- fp.Floorplan.num_rows + 1 + k
       | `Left -> c.Cell.gp_x <- -20 - k)
    [ `Right; `Right; `Right; `Top; `Top; `Left; `Left; `Top; `Right; `Top; `Left ];
  d

(* Every MGL driver, pinned by positions and stats: the sharded
   scheduler's stripe and boundary passes, the greedy baseline's gap
   scan, a dense design whose run takes fallbacks, and anchors past the
   die edge. *)
let test_driver_digests ~roster ~tiled =
  let cfg ~shards = { Mcl.Config.default with Mcl.Config.shards; threads = 2 } in
  List.iter
    (fun (name, spec, config, expected_digest, expected_stats) ->
       let d = Mcl_gen.Generator.generate spec in
       let s = Mcl.Scheduler.run config d in
       pin (name ^ ": positions") expected_digest (positions_digest d);
       pin (name ^ ": stats") expected_stats (scheduler_line s))
    [ ("des_perf_1 shards 3", List.nth roster 0, cfg ~shards:3,
       "2a557ff0d7586eb94a4c04e6adca4d9d",
       "legalized=450 rounds=2 growths=24 fallbacks=0 k=474/28405/1542 shard=3/0/59/391/0");
      ("edit_dist_1_md1 shards 4", List.nth roster 5, cfg ~shards:4,
       "215ea080f1c86b52e77bdd788bfeb5fc",
       "legalized=472 rounds=2 growths=0 fallbacks=0 k=472/22169/1769 shard=4/0/108/364/0");
      ("tiled shards 3", List.nth tiled 2, cfg ~shards:3,
       "f425bf333220b1f03fe5652f3e0f37f2",
       "legalized=1680 rounds=2 growths=0 fallbacks=0 k=1680/70355/8974 shard=3/0/1421/259/0");
      ("tiled shards 4", List.nth tiled 2, cfg ~shards:4,
       "7a75abc4d9ab28e19cee6dabef76b2f6",
       "legalized=1680 rounds=2 growths=0 fallbacks=0 k=1680/70542/8738 shard=4/0/1344/336/0");
      ("fft_2_md2 shards 3", List.nth roster 8, cfg ~shards:3,
       "ba9c68550c38b9420fd4023d1d81d140",
       "legalized=200 rounds=2 growths=6 fallbacks=0 k=206/8988/785 shard=2/0/57/143/0") ];
  let d = Mcl_gen.Generator.generate (List.nth roster 0) in
  let s = Mcl.Baseline_greedy.run Mcl.Config.default d in
  pin "greedy: positions"
    "c90ad977a10cb66209cb1fea469a3cc4" (positions_digest d);
  pin "greedy: legalized" "450" (string_of_int s.Mcl.Baseline_greedy.legalized);
  (* the Abacus baseline, and the full flow through row ordering *)
  List.iter
    (fun (i, abacus, pipeline) ->
       let spec = List.nth roster i in
       let name = spec.Mcl_gen.Spec.name in
       let d = Mcl_gen.Generator.generate spec in
       ignore (Mcl.Baseline_abacus.run Mcl.Config.default d);
       pin (name ^ " abacus: positions") abacus (positions_digest d);
       let d = Mcl_gen.Generator.generate spec in
       ignore (Mcl.Pipeline.run Mcl.Config.default d);
       pin (name ^ " pipeline: positions") pipeline (positions_digest d))
    [ (0, "a5ad0a1396c61548f9818af409d5aba4", "6305b058ea3766bf0ece05be7b56c643"); (6, "0e1b4cdfabc44918d75c6dc4c6cc6d11", "b5cc33b1940a3a506100c4d848959496") ];
  let dense () =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with
        Mcl_gen.Spec.seed = 121;
        num_cells = 400;
        density = 0.8;
        height_mix = [ (1, 0.7); (2, 0.2); (3, 0.1) ];
        num_fences = 2;
        fence_cell_frac = 0.15;
        routability = true;
        name = "dense121" }
  in
  let d = dense () in
  let s = Mcl.Mgl.run Mcl.Config.default d in
  pin "dense mgl: positions"
    "dfccfc115a88797c15ef133f02d6dcef" (positions_digest d);
  pin "dense mgl: stats"
    "legalized=400 growths=87 fallbacks=3 k=487/24409/1195" (mgl_line s);
  let d = dense () in
  let s = Mcl.Scheduler.run Mcl.Config.default d in
  pin "dense scheduler: positions"
    "06b3f7ef766a1e616a5f22dea8568b49" (positions_digest d);
  pin "dense scheduler: stats"
    "legalized=400 rounds=185 growths=71 fallbacks=3 k=471/22439/1399 shard=-"
    (scheduler_line s);
  let off () = anchors_off_die (Mcl_gen.Generator.generate (List.nth roster 3)) in
  let d = off () in
  let s = Mcl.Mgl.run Mcl.Config.default d in
  pin "off-die mgl: positions"
    "e0c284f706d11074c29456d38dbd8de6" (positions_digest d);
  pin "off-die mgl: stats"
    "legalized=427 growths=17 fallbacks=0 k=440/11110/2267" (mgl_line s);
  let d = off () in
  let s = Mcl.Scheduler.run (cfg ~shards:3) d in
  pin "off-die shards 3: positions"
    "4966f872e705f0cd169400233a72fbde" (positions_digest d);
  pin "off-die shards 3: stats"
    "legalized=427 rounds=2 growths=16 fallbacks=0 k=439/12781/2134 shard=3/0/173/251/3"
    (scheduler_line s);
  (* the round-batched scheduler at scale 0.25, where tall cells form
     long push chains across rows: edit_dist_a_md3 (heights 1-4) and
     des_perf_b_md2 (heights 1-3) *)
  let quarter = Mcl_gen.Suites.iccad2017 ~scale:0.25 () in
  List.iter
    (fun (i, expected_digest, expected_stats) ->
       let spec = List.nth quarter i in
       let d = Mcl_gen.Generator.generate spec in
       let s = Mcl.Scheduler.run Mcl.Config.default d in
       let name = spec.Mcl_gen.Spec.name ^ " x0.25 scheduler" in
       pin (name ^ ": positions") expected_digest (positions_digest d);
       pin (name ^ ": stats") expected_stats (scheduler_line s))
    [ (7, "116757019db3c19dd175d6570784751a",
       "legalized=1195 rounds=183 growths=125 fallbacks=0 k=1320/45247/7656 shard=-");
      (4, "7f447e809d325a9636b4a5f3a3aa99e2",
       "legalized=1020 rounds=195 growths=111 fallbacks=0 k=1131/52148/5052 shard=-") ]

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
      (List.nth tiled 2, "b106dbd48776be86a3162b86800644ba") ];
  test_driver_digests ~roster ~tiled

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
         QCheck_alcotest.to_alcotest prop_sort_by_key_matches_array_sort;
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
