(* Exhaustive cross-check of the insertion-point machinery: on tiny
   single-row instances, Insertion.best must find the same optimal cost
   as brute-force enumeration over every combination of target position
   and push-only shifts of the local cells. *)

open Mcl_netlist

let sites = 16

let make_design ~widths ~gps ~curs ~target_w ~target_gp =
  let n = Array.length widths in
  let types =
    Array.init (n + 1) (fun i ->
        let w = if i < n then widths.(i) else target_w in
        Cell_type.make ~type_id:i ~name:(Printf.sprintf "t%d" i) ~width:w
          ~height:1 ())
  in
  let cells =
    Array.init (n + 1) (fun i ->
        if i < n then begin
          let c = Cell.make ~id:i ~type_id:i ~gp_x:gps.(i) ~gp_y:0 () in
          c.Cell.x <- curs.(i);
          c
        end
        else Cell.make ~id:i ~type_id:i ~gp_x:target_gp ~gp_y:0 ())
  in
  let fp = Floorplan.make ~num_sites:sites ~num_rows:1 () in
  Design.make ~name:"tiny" ~floorplan:fp ~cell_types:types ~cells ()

(* Brute force over MGL's move model: locals keep their relative order,
   the target is inserted at some order slot k and position x_t (both
   enumerated exhaustively); locals are then pushed minimally — left
   cells right-to-left to p = min(cur, limit - w), right cells
   left-to-right to p = max(cur, limit) — exactly the saturating-shift
   semantics the displacement curves encode. *)
let brute_force design ~target =
  let cells = design.Design.cells in
  let n = Array.length cells - 1 in
  let w i = Design.width design cells.(i) in
  let order =
    List.init n (fun i -> i)
    |> List.sort (fun a b -> compare cells.(a).Cell.x cells.(b).Cell.x)
    |> Array.of_list
  in
  let tw = Design.width design cells.(target) in
  let best = ref infinity in
  for k = 0 to n do
    for x_t = 0 to sites - tw do
      (* push left cells (order slots k-1 .. 0) right-to-left *)
      let feasible = ref true in
      let cost = ref (float_of_int (abs (x_t - cells.(target).Cell.gp_x))) in
      let limit = ref x_t in
      for s = k - 1 downto 0 do
        let id = order.(s) in
        let p = min cells.(id).Cell.x (!limit - w id) in
        if p < 0 then feasible := false;
        cost :=
          !cost
          +. float_of_int
               (abs (p - cells.(id).Cell.gp_x)
                - abs (cells.(id).Cell.x - cells.(id).Cell.gp_x));
        limit := p
      done;
      let limit = ref (x_t + tw) in
      for s = k to n - 1 do
        let id = order.(s) in
        let p = max cells.(id).Cell.x !limit in
        if p + w id > sites then feasible := false;
        cost :=
          !cost
          +. float_of_int
               (abs (p - cells.(id).Cell.gp_x)
                - abs (cells.(id).Cell.x - cells.(id).Cell.gp_x));
        limit := p + w id
      done;
      if !feasible && !cost < !best then best := !cost
    done
  done;
  if !best = infinity then None else Some !best

let run_insertion design ~target =
  let cfg = Mcl.Config.total_displacement in
  let segments = Mcl.Segment.build ~respect_fences:false design in
  let placement = Mcl.Placement.create design in
  Array.iter
    (fun (c : Cell.t) -> if c.Cell.id <> target then Mcl.Placement.add placement c.Cell.id)
    design.Design.cells;
  let ctx =
    Mcl.Insertion.make_ctx cfg design ~placement ~segments ~routability:None
  in
  let window = Mcl_geom.Rect.make ~xl:0 ~yl:0 ~xh:sites ~yh:1 in
  Mcl.Insertion.best ctx ~target ~window

let gen_instance seed =
  let rng = Mcl_geom.Prng.create seed in
  let n = 1 + Mcl_geom.Prng.int rng 3 in
  let widths = Array.init n (fun _ -> 1 + Mcl_geom.Prng.int rng 3) in
  (* non-overlapping current positions *)
  let curs = Array.make n 0 in
  let ok = ref true in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let slack = Mcl_geom.Prng.int rng 3 in
    curs.(i) <- !pos + slack;
    pos := curs.(i) + widths.(i)
  done;
  if !pos > sites then ok := false;
  let gps = Array.init n (fun _ -> Mcl_geom.Prng.int rng (sites - 1)) in
  let target_w = 1 + Mcl_geom.Prng.int rng 3 in
  let target_gp = Mcl_geom.Prng.int rng (sites - target_w) in
  if !ok then Some (make_design ~widths ~gps ~curs ~target_w ~target_gp)
  else None

let prop_insertion_matches_brute_force =
  QCheck.Test.make ~name:"Insertion.best == brute force on tiny rows" ~count:150
    QCheck.(int_range 1 100000)
    (fun seed ->
       match gen_instance seed with
       | None -> true
       | Some design ->
         let target = Array.length design.Design.cells - 1 in
         let brute = brute_force design ~target in
         (match run_insertion design ~target, brute with
          | None, None -> true
          | Some cand, Some b ->
            (* MGL's enumeration may be restricted (cuts around GP), so
               it can be >= the brute optimum but never better; on these
               tiny instances it must match exactly *)
            abs_float (cand.Mcl.Insertion.cost -. b) < 1e-6
          | Some _, None -> false
          | None, Some _ -> false))

(* applying the best candidate must produce a legal row with exactly
   the predicted cost *)
let prop_apply_consistent =
  QCheck.Test.make ~name:"apply realizes the predicted cost" ~count:150
    QCheck.(int_range 1 100000)
    (fun seed ->
       match gen_instance seed with
       | None -> true
       | Some design ->
         let target = Array.length design.Design.cells - 1 in
         let before =
           Array.to_list design.Design.cells
           |> List.filter (fun (c : Cell.t) -> c.Cell.id <> target)
           |> List.map (fun (c : Cell.t) ->
               float_of_int (abs (c.Cell.x - c.Cell.gp_x)))
           |> List.fold_left ( +. ) 0.0
         in
         let cfg = Mcl.Config.total_displacement in
         let segments = Mcl.Segment.build ~respect_fences:false design in
         let placement = Mcl.Placement.create design in
         Array.iter
           (fun (c : Cell.t) ->
              if c.Cell.id <> target then Mcl.Placement.add placement c.Cell.id)
           design.Design.cells;
         let ctx =
           Mcl.Insertion.make_ctx cfg design ~placement ~segments ~routability:None
         in
         let window = Mcl_geom.Rect.make ~xl:0 ~yl:0 ~xh:sites ~yh:1 in
         (match Mcl.Insertion.best ctx ~target ~window with
          | None -> true
          | Some cand ->
            Mcl.Insertion.apply ctx ~target cand;
            let after =
              Array.to_list design.Design.cells
              |> List.map (fun (c : Cell.t) ->
                  float_of_int (abs (c.Cell.x - c.Cell.gp_x)))
              |> List.fold_left ( +. ) 0.0
            in
            Mcl_eval.Legality.is_legal design
            && abs_float (after -. before -. cand.Mcl.Insertion.cost) < 1e-6))

(* ---------------------------------------------------------------- *)
(* Arena kernel vs reference oracle.                                  *)
(*                                                                    *)
(* The optimized Insertion.best must be bit-identical to the cons-list *)
(* Insertion_oracle.best: same candidate, float-equal cost, same      *)
(* shift lists — across the whole config matrix (routability, fences, *)
(* MGL/MLL displacement) and the Table-1 roster.                      *)
(* Lockstep.run replicates the real MGL flow (order, window growth,   *)
(* apply) so every window the flow would evaluate gets cross-checked, *)
(* and ~check_pruning re-evaluates every pruned cut to prove the lower *)
(* bound never discards a winner. test/oracle/kernel_parity.exe runs  *)
(* the same walk on the roster at full scale.                         *)
(* ---------------------------------------------------------------- *)

module Rect = Mcl_geom.Rect

let matrix_spec ~fences ~seed =
  { Mcl_gen.Spec.default with
    Mcl_gen.Spec.name = "equiv";
    num_cells = 120;
    seed;
    num_fences = (if fences then 2 else 0);
    fence_cell_frac = (if fences then 0.3 else 0.0) }

let test_kernel_matches_reference () =
  List.iter
    (fun routability ->
       List.iter
         (fun fences ->
            List.iter
              (fun disp_from ->
                 List.iter
                   (fun seed ->
                      let d =
                        Mcl_gen.Generator.generate (matrix_spec ~fences ~seed)
                      in
                      let cfg =
                        { Mcl.Config.default with
                          Mcl.Config.consider_routability = routability;
                          consider_fences = fences }
                      in
                      let ok, _ = Lockstep.run ~disp_from cfg d in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "kernel == reference (rout=%b fences=%b %s seed=%d)"
                           routability fences
                           (match disp_from with
                            | `Gp -> "gp"
                            | `Current -> "cur")
                           seed)
                        true ok)
                   [ 11; 42 ])
              [ `Gp; `Current ])
         [ false; true ])
    [ false; true ]

(* the paper's Table-1 roster with fences and routability on, as the
   CLI flow legalizes it, plus two inputs where the windowed row scan
   can go wrong: a roster design tiled 4x has rows far longer than a
   window, and fixed macros (1/10 of the die wide, so the die must be
   wide enough for a window to start inside one) are the widest cells
   a row holds, so a scan bound that ignored them would drop obstacles
   the reference kernel still sees *)
let test_kernel_matches_reference_table1 () =
  let tiled = List.nth (Mcl_gen.Suites.iccad2017 ~scale:0.1 ~replicate:4 ()) 0 in
  let macros =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "macros";
      num_cells = 600;
      density = 0.5;
      height_mix = [ (1, 0.8); (2, 0.2) ];
      num_macros = 3;
      seed = 5 }
  in
  List.iter
    (fun spec ->
       let d = Mcl_gen.Generator.generate spec in
       let ok, _ = Lockstep.run ~disp_from:`Gp Mcl.Config.default d in
       Alcotest.(check bool)
         (Printf.sprintf "kernel == reference (%s x%d)" spec.Mcl_gen.Spec.name
            spec.Mcl_gen.Spec.replicate)
         true ok)
    (Mcl_gen.Suites.iccad2017 ~scale:0.1 () @ [ tiled; macros ])

(* The obstacle scan reaches clip_pad past each window edge, because a
   cell there still sets the edge type a sub-span keeps its spacing
   to. One row, a fence at [fence_lo, fence_hi), a fenced cell just
   outside the window and a region-0 target whose GP hugs that edge:
   the target must keep spacing 2 from the fenced cell, exactly as the
   whole-row oracle does. *)
let edge_design ~fence_lo ~fence_hi ~fenced_x ~target_gp =
  let fp =
    Floorplan.make ~num_sites:40 ~num_rows:1
      ~edge_spacing:[| [| 0; 0 |]; [| 0; 2 |] |] ()
  in
  let types =
    [| Cell_type.make ~type_id:0 ~name:"t" ~width:2 ~height:1 ~edge_type:1 () |]
  in
  let fence =
    Fence.make ~fence_id:1 ~name:"f"
      ~rects:[ Rect.make ~xl:fence_lo ~yl:0 ~xh:fence_hi ~yh:1 ]
  in
  let fenced = Cell.make ~id:0 ~type_id:0 ~region:1 ~gp_x:fenced_x ~gp_y:0 () in
  let target = Cell.make ~id:1 ~type_id:0 ~gp_x:target_gp ~gp_y:0 () in
  Design.make ~name:"edge" ~floorplan:fp ~cell_types:types
    ~cells:[| fenced; target |] ~fences:[| fence |] ()

let test_window_edge_spacing () =
  let cfg =
    { Mcl.Config.default with
      Mcl.Config.consider_routability = true;
      consider_fences = true }
  in
  List.iter
    (fun (what, d, window, expect_x) ->
       let segments = Mcl.Segment.build ~respect_fences:true d in
       let placement = Mcl.Placement.create d in
       Mcl.Placement.add placement 0;
       let ctx =
         Mcl.Insertion.make_ctx cfg d ~placement ~segments
           ~routability:(Some (Mcl.Routability.create d))
       in
       let a = Mcl.Insertion.best ctx ~target:1 ~window in
       let r = Insertion_oracle.best ctx ~target:1 ~window in
       Alcotest.(check bool) (what ^ ": kernel == reference") true
         (Lockstep.same_candidate a r);
       Alcotest.(check (option int)) (what ^ ": spacing kept") (Some expect_x)
         (Option.map (fun c -> c.Mcl.Insertion.x) a))
    [ (* window ends at the fence; the fenced cell starts one site
         past the window edge *)
      ("right edge",
       edge_design ~fence_lo:20 ~fence_hi:40 ~fenced_x:21 ~target_gp:18,
       Rect.make ~xl:0 ~yl:0 ~xh:20 ~yh:1, 16);
      (* window starts at the fence end; the fenced cell ends one site
         before the window edge *)
      ("left edge",
       edge_design ~fence_lo:0 ~fence_hi:20 ~fenced_x:17 ~target_gp:20,
       Rect.make ~xl:20 ~yl:0 ~xh:40 ~yh:1, 22) ]

(* A local cell that overlaps an obstacle, as an ECO on a design that
   was never legalized meets, lies in no sub-span: the window build
   refuses it with a typed code rather than an index out of bounds.
   Cell 0 ends past the window, so it is an obstacle; cell 1 sits on
   it, inside the window. *)
let test_overlapping_local_refused () =
  let d =
    make_design ~widths:[| 6; 1 |] ~gps:[| 8; 10 |] ~curs:[| 8; 10 |]
      ~target_w:2 ~target_gp:2
  in
  let placement = Mcl.Placement.create d in
  Mcl.Placement.add placement 0;
  Mcl.Placement.add placement 1;
  let cfg =
    { Mcl.Config.default with
      Mcl.Config.consider_routability = false;
      consider_fences = false }
  in
  let ctx =
    Mcl.Insertion.make_ctx cfg d ~placement
      ~segments:(Mcl.Segment.build ~respect_fences:false d)
      ~routability:None
  in
  match
    Mcl.Insertion.best ctx ~target:2 ~window:(Rect.make ~xl:0 ~yl:0 ~xh:12 ~yh:1)
  with
  | _ -> Alcotest.fail "expected S305-window-overlap"
  | exception Mcl_analysis.Diagnostic.Failed diags ->
    Alcotest.(check (list string)) "refused with S305 on the overlapping cell"
      [ "S305-window-overlap" ]
      (List.map (fun (g : Mcl_analysis.Diagnostic.t) -> g.Mcl_analysis.Diagnostic.code) diags)

(* A push chain that crosses rows holding no part of the target: the
   target (row 0) pushes a 3-row local (rows 0-2), which pushes the
   cells after it in rows 1 and 2. Row 3's cells share no sub-span
   with anything the target's row reaches, so no insertion into row 0
   can move them. Four rows, 24 sites, all cells movable:
   row 3  . . . . . 5 5 5 . . . . 6 6 6 . . .
   row 2  . . . . . . . . L L 2 2 2 . 3 3 3 .
   row 1  . . . . . . . . L L . . . 4 4 4 . .
   row 0  . . 1 1 1 . . . L L . . . . . . . .   target: 3 wide, GP x 7 *)
let chain_design () =
  let fp = Floorplan.make ~num_sites:24 ~num_rows:4 () in
  let types =
    [| Cell_type.make ~type_id:0 ~name:"s" ~width:3 ~height:1 ();
       Cell_type.make ~type_id:1 ~name:"tall" ~width:2 ~height:3 () |]
  in
  let cells =
    Array.mapi
      (fun id (type_id, x, y) -> Cell.make ~id ~type_id ~gp_x:x ~gp_y:y ())
      [| (1, 8, 0); (0, 2, 0); (0, 10, 2); (0, 14, 2); (0, 13, 1); (0, 5, 3);
         (0, 12, 3); (0, 7, 0) |]
  in
  Design.make ~name:"chain" ~floorplan:fp ~cell_types:types ~cells ()

let test_chain_across_rows () =
  let d = chain_design () in
  let target = 7 in
  let placement = Mcl.Placement.create d in
  for id = 0 to target - 1 do
    Mcl.Placement.add placement id
  done;
  let ctx =
    Mcl.Insertion.make_ctx Mcl.Config.total_displacement d ~placement
      ~segments:(Mcl.Segment.build ~respect_fences:false d)
      ~routability:None
  in
  let window = Floorplan.die d.Design.floorplan in
  let a = Mcl.Insertion.best ~check_pruning:true ctx ~target ~window in
  let r = Insertion_oracle.best ctx ~target ~window in
  Alcotest.(check bool) "kernel == reference" true
    (Lockstep.same_candidate a r);
  match a with
  | None -> Alcotest.fail "no insertion point"
  | Some cand ->
    let shifted =
      List.map
        (fun (s : Mcl.Insertion.shift) -> s.Mcl.Insertion.cell)
        (cand.Mcl.Insertion.lefts @ cand.Mcl.Insertion.rights)
    in
    Alcotest.(check int) "target stays in its GP row" 0 cand.Mcl.Insertion.y0;
    Alcotest.(check bool) "the chain reaches row 2 through the tall cell"
      true
      (List.mem 0 shifted && List.mem 2 shifted && List.mem 3 shifted);
    Alcotest.(check bool) "row 3 is unreached" false
      (List.mem 5 shifted || List.mem 6 shifted)

(* a dense design exercises the pruner hard; ~check_pruning (above and
   here) fails the run if a pruned cut would have won, and the counters
   must show the pruner actually fired *)
let test_pruning_fires_and_is_sound () =
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "dense";
      num_cells = 150;
      density = 0.85;
      seed = 7 }
  in
  let d = Mcl_gen.Generator.generate spec in
  let ok, ctx = Lockstep.run ~disp_from:`Gp Mcl.Config.default d in
  Alcotest.(check bool) "dense equivalence" true ok;
  let k = Mcl.Arena.counters ctx.Mcl.Insertion.arena in
  Alcotest.(check bool) "pruner fired" true (k.Mcl.Arena.cuts_pruned > 0);
  Alcotest.(check bool) "windows counted" true (k.Mcl.Arena.windows_built > 0)

(* scratch reuse must not leak state between windows: evaluating two
   targets from one warm arena equals evaluating each from a fresh one *)
let test_arena_reuse_is_stateless () =
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "reuse"; num_cells = 100; seed = 23 }
  in
  let d = Mcl_gen.Generator.generate spec in
  let cfg = Mcl.Config.default in
  let ctx = Lockstep.flow_ctx ~disp_from:`Gp cfg d in
  let order = Mcl.Mgl.default_order d in
  let window target =
    let tgt = d.Design.cells.(target) in
    Mcl.Mgl.initial_window cfg d tgt ~h:(Design.height d tgt)
      ~w:(Design.width d tgt) ~util:ctx.Mcl.Insertion.utilization
  in
  let warm_ctx = { ctx with Mcl.Insertion.arena = Mcl.Arena.create () } in
  Array.iteri
    (fun i target ->
       if i < 8 then begin
         let fresh =
           Mcl.Insertion.best
             { ctx with Mcl.Insertion.arena = Mcl.Arena.create () }
             ~target ~window:(window target)
         in
         let warm = Mcl.Insertion.best warm_ctx ~target ~window:(window target) in
         Alcotest.(check bool)
           (Printf.sprintf "warm arena == fresh arena (target %d)" target)
           true
           (Lockstep.same_candidate warm fresh);
         (* leave the design state as the real flow would *)
         match fresh with
         | Some cand -> Mcl.Insertion.apply ctx ~target cand
         | None -> ()
       end)
    order

let () =
  Alcotest.run "insertion"
    [ ("brute-force",
       [ QCheck_alcotest.to_alcotest prop_insertion_matches_brute_force;
         QCheck_alcotest.to_alcotest prop_apply_consistent ]);
      ("arena-kernel",
       [ Alcotest.test_case "matches reference across config matrix" `Quick
           test_kernel_matches_reference;
         Alcotest.test_case "matches reference on Table-1 roster" `Quick
           test_kernel_matches_reference_table1;
         Alcotest.test_case "spacing to obstacles past the window edge"
           `Quick test_window_edge_spacing;
         Alcotest.test_case "a local on an obstacle is refused (S305)" `Quick
           test_overlapping_local_refused;
         Alcotest.test_case "push chain across rows the target misses"
           `Quick test_chain_across_rows;
         Alcotest.test_case "pruning fires and is sound" `Quick
           test_pruning_fires_and_is_sound;
         Alcotest.test_case "arena reuse is stateless" `Quick
           test_arena_reuse_is_stateless ]) ]
