(* Spatially-sharded legalization (DESIGN.md §16): seam planning and
   cell classification are pure functions of geometry, stripe jobs own
   disjoint state, and the boundary pass is sequential — so the output
   depends on [config.shards] but never on [config.threads], and the
   sharded result stays legal and close to the sequential score. *)

open Mcl_netlist

let spec ?(cells = 500) seed =
  { Mcl_gen.Spec.default with
    Mcl_gen.Spec.seed;
    num_cells = cells;
    density = 0.6;
    height_mix = [ (1, 0.6); (2, 0.25); (3, 0.1); (4, 0.05) ];
    num_fences = 2;
    fence_cell_frac = 0.15;
    name = Printf.sprintf "shard%d" seed }

let placements_equal a b =
  Array.for_all2 (fun (x1, y1) (x2, y2) -> x1 = x2 && y1 = y2) a b

let config ~shards ~threads =
  { Mcl.Config.default with Mcl.Config.shards; threads }

(* ----- plan / classification properties ----- *)

let in_stripe (st : Mcl_geom.Rect.t) lo hi =
  st.Mcl_geom.Rect.x.lo <= lo && hi <= st.Mcl_geom.Rect.x.hi

let test_partition_property () =
  List.iter
    (fun seed ->
       let d = Mcl_gen.Generator.generate (spec seed) in
       let cfg = Mcl.Config.default in
       let plan = Mcl.Shard.plan ~shards:4 d in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: stripes cover the die" seed)
         true
         (plan.Mcl.Shard.stripes.(0).Mcl_geom.Rect.x.lo = 0
          && plan.Mcl.Shard.stripes.(plan.Mcl.Shard.shards - 1).Mcl_geom.Rect.x.hi
             = d.Design.floorplan.Floorplan.num_sites
          && Array.for_all
               (fun k ->
                  plan.Mcl.Shard.stripes.(k).Mcl_geom.Rect.x.hi
                  = plan.Mcl.Shard.stripes.(k + 1).Mcl_geom.Rect.x.lo)
               (Array.init (plan.Mcl.Shard.shards - 1) Fun.id));
       let util = Mcl.Insertion.utilization d in
       Array.iter
         (fun (c : Cell.t) ->
            if not c.Cell.is_fixed then
              match Mcl.Shard.classify plan cfg d ~util c with
              | Mcl.Shard.Boundary -> ()
              | Mcl.Shard.Interior k ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d cell %d: stripe index valid" seed
                     c.Cell.id)
                  true
                  (k >= 0 && k < plan.Mcl.Shard.shards);
                if not (cfg.Mcl.Config.consider_fences && c.Cell.region > 0)
                then begin
                  (* interior region-0 cells: the whole initial window
                     fits the stripe, so interior insertion never
                     competes for sites with a neighbouring stripe *)
                  let h = Design.height d c and w = Design.width d c in
                  let win = Mcl.Mgl.initial_window cfg d c ~h ~w ~util in
                  Alcotest.(check bool)
                    (Printf.sprintf "seed %d cell %d: window inside stripe"
                       seed c.Cell.id)
                    true
                    (in_stripe plan.Mcl.Shard.stripes.(k)
                       (max 0 win.Mcl_geom.Rect.x.lo)
                       (min d.Design.floorplan.Floorplan.num_sites
                          win.Mcl_geom.Rect.x.hi))
                end)
         d.Design.cells)
    [ 3; 17; 42 ]

let test_permutation_invariance () =
  (* classification reads only die/fence geometry and the one cell —
     visiting cells in any order yields the same per-cell assignment *)
  let d = Mcl_gen.Generator.generate (spec 11) in
  let cfg = Mcl.Config.default in
  let plan = Mcl.Shard.plan ~shards:4 d in
  let util = Mcl.Insertion.utilization d in
  let movable =
    Array.of_list
      (List.filter
         (fun id -> not d.Design.cells.(id).Cell.is_fixed)
         (List.init (Design.num_cells d) Fun.id))
  in
  let assign_in order =
    let a = Hashtbl.create 64 in
    Array.iter
      (fun id ->
         Hashtbl.replace a id
           (Mcl.Shard.classify plan cfg d ~util d.Design.cells.(id)))
      order;
    a
  in
  let forward = assign_in movable in
  let shuffled = Array.copy movable in
  let rng = Mcl_geom.Prng.create 7 in
  Mcl_geom.Prng.shuffle rng shuffled;
  let backward = assign_in shuffled in
  Array.iter
    (fun id ->
       Alcotest.(check bool)
         (Printf.sprintf "cell %d: same assignment" id)
         true
         (Hashtbl.find forward id = Hashtbl.find backward id))
    movable

(* ----- determinism across thread counts ----- *)

let test_threads_bit_identical () =
  List.iter
    (fun seed ->
       let run threads =
         let d = Mcl_gen.Generator.generate (spec seed) in
         let s = Mcl.Scheduler.run (config ~shards:4 ~threads) d in
         (Design.snapshot d, s, d)
       in
       let p1, s1, _ = run 1 in
       List.iter
         (fun threads ->
            let pn, sn, dn = run threads in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d threads %d: bit-identical" seed threads)
              true
              (placements_equal p1 pn);
            Alcotest.(check bool)
              (Printf.sprintf "seed %d threads %d: legal" seed threads)
              true
              (Mcl_eval.Legality.is_legal dn);
            (* stats too: counters merge in shard-index order, so the
               whole record is byte-stable across thread counts *)
            Alcotest.(check bool)
              (Printf.sprintf "seed %d threads %d: stats equal" seed threads)
              true (s1 = sn))
         [ 2; 4 ])
    [ 17; 42 ]

(* ----- parity vs the sequential scheduler ----- *)

let test_parity_vs_sequential () =
  List.iter
    (fun seed ->
       let gp = Mcl_gen.Generator.generate (spec seed) in
       let gp_hpwl = Mcl_eval.Metrics.hpwl gp in
       let seq = Mcl_gen.Generator.generate (spec seed) in
       ignore (Mcl.Scheduler.run (config ~shards:1 ~threads:1) seq);
       let shd = Mcl_gen.Generator.generate (spec seed) in
       let stats = Mcl.Scheduler.run (config ~shards:4 ~threads:2) shd in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: sharded output legal" seed)
         true
         (Mcl_eval.Legality.is_legal shd);
       (match stats.Mcl.Scheduler.sharding with
        | None -> Alcotest.fail "sharded path did not run"
        | Some info ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d: every cell accounted" seed)
            stats.Mcl.Scheduler.legalized
            (info.Mcl.Scheduler.interior_legalized + info.Mcl.Scheduler.boundary_zone
             + info.Mcl.Scheduler.deferred));
       let s_seq = (Mcl_eval.Score.evaluate ~gp_hpwl seq).Mcl_eval.Score.score in
       let s_shd = (Mcl_eval.Score.evaluate ~gp_hpwl shd).Mcl_eval.Score.score in
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: score within 10%% of sequential (%.4f vs %.4f)"
            seed s_shd s_seq)
         true
         (s_shd <= s_seq *. 1.10))
    [ 17; 42; 99 ]

(* ----- placement merge ----- *)

let test_placement_merge () =
  let d = Mcl_gen.Generator.generate (spec 23) in
  ignore (Mcl.Scheduler.run (config ~shards:1 ~threads:1) d);
  (* split the legalized cells across three parts (fixed cells in all),
     then check the merge equals the all-in-one structure row by row *)
  let parts =
    Array.init 3 (fun _ -> Mcl.Placement.create d)
  in
  Array.iter
    (fun (c : Cell.t) ->
       if c.Cell.is_fixed then
         Array.iter (fun p -> Mcl.Placement.add p c.Cell.id) parts
       else Mcl.Placement.add parts.(c.Cell.id mod 3) c.Cell.id)
    d.Design.cells;
  let merged = Mcl.Placement.merge d parts in
  let whole = Mcl.Placement.of_design d in
  Alcotest.(check bool) "merged well-formed" true
    (Mcl.Placement.well_formed merged);
  Array.iter
    (fun (c : Cell.t) ->
       Alcotest.(check bool)
         (Printf.sprintf "cell %d registered" c.Cell.id)
         true
         (Mcl.Placement.mem merged c.Cell.id))
    d.Design.cells;
  for row = 0 to d.Design.floorplan.Floorplan.num_rows - 1 do
    let ma, ml = Mcl.Placement.row_cells merged row in
    let wa, wl = Mcl.Placement.row_cells whole row in
    Alcotest.(check int) (Printf.sprintf "row %d: same count" row) wl ml;
    for i = 0 to ml - 1 do
      Alcotest.(check int)
        (Printf.sprintf "row %d slot %d: same cell" row i)
        wa.(i) ma.(i)
    done
  done

(* ----- stripe replication ----- *)

let test_replicate_stripes () =
  let base = Mcl_gen.Generator.generate (spec 5) in
  let copies = 3 in
  let wide = Mcl_gen.Generator.replicate_stripes base ~copies in
  let n = Design.num_cells base in
  let ns = base.Design.floorplan.Floorplan.num_sites in
  Alcotest.(check int) "cells scaled" (copies * n) (Design.num_cells wide);
  Alcotest.(check int) "die widened"
    (copies * ns) wide.Design.floorplan.Floorplan.num_sites;
  Alcotest.(check int) "fences scaled"
    (copies * Array.length base.Design.fences)
    (Array.length wide.Design.fences);
  Alcotest.(check int) "nets scaled"
    (copies * Array.length base.Design.nets)
    (Array.length wide.Design.nets);
  Array.iter
    (fun (c : Cell.t) ->
       let src = base.Design.cells.(c.Cell.id mod n) in
       let shift = c.Cell.id / n * ns in
       Alcotest.(check int)
         (Printf.sprintf "cell %d: shifted gp_x" c.Cell.id)
         (src.Cell.gp_x + shift) c.Cell.gp_x;
       Alcotest.(check int)
         (Printf.sprintf "cell %d: same gp_y" c.Cell.id)
         src.Cell.gp_y c.Cell.gp_y)
    wide.Design.cells;
  (* the wide design legalizes under the sharded scheduler *)
  ignore (Mcl.Scheduler.run (config ~shards:3 ~threads:2) wide);
  Alcotest.(check bool) "wide design legal" true
    (Mcl_eval.Legality.is_legal wide)

let () =
  Alcotest.run "shard"
    [ ("plan",
       [ Alcotest.test_case "partition property" `Quick test_partition_property;
         Alcotest.test_case "permutation invariance" `Quick
           test_permutation_invariance ]);
      ("determinism",
       [ Alcotest.test_case "threads bit-identical" `Slow
           test_threads_bit_identical ]);
      ("parity",
       [ Alcotest.test_case "vs sequential" `Slow test_parity_vs_sequential ]);
      ("merge", [ Alcotest.test_case "placement merge" `Quick test_placement_merge ]);
      ("replicate",
       [ Alcotest.test_case "stripes" `Slow test_replicate_stripes ]) ]
