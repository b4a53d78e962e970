(* The exact window solver and its integrations: brute-force
   enumeration must match branch-and-bound bit-for-bit, Insertion.best
   can never beat a certified window optimum, the refiner is a
   monotone deterministic post-pass (and a guaranteed no-op at k=0),
   refined designs replay from the WAL to the exact fingerprint, and
   the service keeps the incremental congestion map synced across a
   refine. *)

module Solver = Mcl_exact.Solver
module Refine = Mcl_exact.Refine
module Rect = Mcl_geom.Rect
module Windows = Mcl_eval.Windows
open Mcl_netlist

(* ---------------------------------------------------------------- *)
(* Shared: the insertion ctx the refiner runs on, over a legalized    *)
(* design with every cell registered.                                *)
(* ---------------------------------------------------------------- *)

let make_ctx config design =
  Mcl.Mgl.context config design ~placement:(Mcl.Placement.of_design design)

(* ---------------------------------------------------------------- *)
(* Brute force vs branch-and-bound, bit-for-bit                      *)
(* ---------------------------------------------------------------- *)

(* Exhaustive DFS through the solver's own candidate space
   (order/candidates/compatible), accumulating candidate costs in
   slot order exactly like the solver's search — so on Proven
   instances the two optimal costs must agree to the last bit. *)
let brute_force t =
  let order = Solver.order t in
  let n = Array.length order in
  let cands = Array.init n (fun i -> Solver.candidates t i) in
  let chosen = Array.make n { Solver.px = 0; py = 0; pcost = 0.0 } in
  let best = ref infinity in
  let rec go i acc =
    if i = n then begin
      if acc < !best then best := acc
    end
    else
      Array.iter
        (fun (c : Solver.pos) ->
           let ok = ref true in
           for j = 0 to i - 1 do
             if !ok && not (Solver.compatible t j chosen.(j) i c) then
               ok := false
           done;
           if !ok then begin
             chosen.(i) <- c;
             go (i + 1) (acc +. c.Solver.pcost)
           end)
        cands.(i)
  in
  go 0 0.0;
  !best

let search_space_size t =
  let n = Array.length (Solver.order t) in
  let size = ref 1.0 in
  for i = 0 to n - 1 do
    size := !size *. float_of_int (max 1 (Array.length (Solver.candidates t i)))
  done;
  !size

(* movable cells wholly inside the window, smallest ids first *)
let cells_in_window design ~window ~max_cells =
  let picked = ref [] and count = ref 0 in
  Array.iter
    (fun (c : Cell.t) ->
       if (not c.Cell.is_fixed)
          && !count < max_cells
          && Rect.contains_rect window (Design.cell_rect design c)
       then begin
         picked := c.Cell.id :: !picked;
         incr count
       end)
    design.Design.cells;
  List.rev !picked

(* Solve [t] both ways; the optimal costs must agree to the last bit.
   Returns the B&B moves. *)
let check_bnb_vs_brute what t =
  let res = Solver.solve ~max_nodes:5_000_000 t in
  Alcotest.(check bool) (what ^ " proven") true
    (res.Solver.verdict = Solver.Proven);
  let brute = brute_force t in
  if brute = infinity then
    Alcotest.(check (list (triple int int int)))
      "no feasible assignment: no moves" []
      (List.map
         (fun (m : Solver.move) -> (m.Solver.mv_cell, m.Solver.mv_x, m.Solver.mv_y))
         res.Solver.moves)
  else
    Alcotest.(check int64)
      (what ^ ": brute == B&B bit-for-bit")
      (Int64.bits_of_float brute)
      (Int64.bits_of_float res.Solver.best_cost);
  res.Solver.moves

(* The obstacle scan reaches clip_pad past each window edge, and reach
   further on the left, because a cell there still sets the edge type
   a sub-span keeps its spacing to. One row, a fence at [fence_lo,
   fence_hi), a fenced cell just outside the window and a region-0
   instance cell whose GP hugs that edge: the optimum must keep
   spacing 2 from the fenced cell. *)
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

(* The solver's windows and prices, pinned on two Table-1 designs
   under the default config: for each window the refiner would pick
   (its worst cells) the solve order, every candidate as (site, row,
   cost bits) and the baseline's bits, then every position and stats
   field after an 8-window refine. *)
let solver_pin spec =
  let config = Mcl.Config.default in
  let d = Mcl_gen.Generator.generate spec in
  let gp_hpwl = Mcl_eval.Metrics.hpwl d in
  ignore (Mcl.Pipeline.run config d);
  let b = Buffer.create 65536 in
  let bits f = Int64.bits_of_float f in
  let ctx = make_ctx config d in
  let halfwidth = Refine.default_halfwidth
  and halfheight = Refine.default_halfheight in
  List.iter
    (fun (w : Windows.worst) ->
       let window = w.Windows.w_window in
       let cells = cells_in_window d ~window ~max_cells:10 in
       if cells <> [] then begin
         let t = Solver.build ctx ~window ~cells in
         Array.iteri
           (fun i id ->
              Printf.bprintf b "[%d:" id;
              Array.iter
                (fun (p : Solver.pos) ->
                   Printf.bprintf b "%d,%d,%Ld;" p.Solver.px p.Solver.py
                     (bits p.Solver.pcost))
                (Solver.candidates t i))
           (Solver.order t);
         Printf.bprintf b "|%Ld\n" (bits (Solver.baseline_cost t))
       end)
    (Windows.worst_cells ~k:8 ~halfwidth ~halfheight d);
  let s = Refine.run ~k:8 ~gp_hpwl (make_ctx config d) in
  Array.iter
    (fun (c : Cell.t) -> Printf.bprintf b "%d,%d;" c.Cell.x c.Cell.y)
    d.Design.cells;
  Printf.bprintf b "\n%d/%d/%d/%d/%d/%Ld/%Ld/%Ld" s.Refine.windows
    s.Refine.accepted s.Refine.proven s.Refine.budget_exhausted s.Refine.nodes
    (bits s.Refine.subopt_cost) (bits s.Refine.score_before)
    (bits s.Refine.score_after);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_brute_force_matches_bnb () =
  let roster = Mcl_gen.Suites.iccad2017 ~scale:0.1 () in
  List.iter
    (fun (i, expected) ->
       let spec = List.nth roster i in
       Alcotest.(check string)
         (Printf.sprintf "solver windows and refine pinned (%s)"
            spec.Mcl_gen.Spec.name)
         expected (solver_pin spec))
    [ (0, "538d7c7ca7e3c2ed7ef525b93ec774b9");
      (6, "bf53e5591053039f2deefe1ad8c239a8") ];
  let checked = ref 0 in
  let check_worst_windows what ctx d =
    List.iter
      (fun (w : Windows.worst) ->
         let window = w.Windows.w_window in
         let cells = cells_in_window d ~window ~max_cells:3 in
         if cells <> [] then begin
           let t = Solver.build ctx ~window ~cells in
           if search_space_size t <= 200_000.0 then begin
             ignore (check_bnb_vs_brute what t);
             incr checked
           end
         end)
      (Windows.worst_cells ~k:4 ~halfwidth:5 ~halfheight:1 d)
  in
  List.iter
    (fun seed ->
       let spec =
         { Mcl_gen.Spec.default with
           Mcl_gen.Spec.name = Printf.sprintf "exact_bf_%d" seed;
           num_cells = 90;
           seed }
       in
       let d = Mcl_gen.Generator.generate spec in
       ignore (Mcl.Pipeline.run Mcl.Config.default d);
       check_worst_windows (Printf.sprintf "seed %d" seed)
         (make_ctx Mcl.Config.default d) d)
    [ 1; 2; 3; 5; 8 ];
  (* a Table-1 design tiled 4x: windows see a small slice of long rows *)
  (match Mcl_gen.Suites.iccad2017 ~scale:0.1 ~replicate:4 () with
   | spec :: _ ->
     let d = Mcl_gen.Generator.generate spec in
     ignore (Mcl.Pipeline.run Mcl.Config.default d);
     check_worst_windows "tiled 4x" (make_ctx Mcl.Config.default d) d
   | [] -> Alcotest.fail "empty Table-1 roster");
  Alcotest.(check bool) "cross-checked at least one window" true (!checked > 0);
  let cfg =
    { Mcl.Config.default with
      Mcl.Config.consider_routability = true;
      consider_fences = true }
  in
  List.iter
    (fun (what, d, window, expect_x) ->
       let placement = Mcl.Placement.create d in
       Mcl.Placement.add placement 0;
       let ctx =
         Mcl.Insertion.make_ctx cfg d ~placement
           ~segments:(Mcl.Segment.build ~respect_fences:true d)
           ~routability:(Some (Mcl.Routability.create d))
       in
       let moves = check_bnb_vs_brute what (Solver.build ctx ~window ~cells:[ 1 ]) in
       Alcotest.(check (list int)) (what ^ ": spacing kept") [ expect_x ]
         (List.map (fun (m : Solver.move) -> m.Solver.mv_x) moves))
    [ (* window ends at the fence; the fenced cell starts one site
         past the window edge *)
      ("right edge",
       edge_design ~fence_lo:20 ~fence_hi:40 ~fenced_x:21 ~target_gp:18,
       Rect.make ~xl:0 ~yl:0 ~xh:20 ~yh:1, 16);
      (* window starts at the fence end; the fenced cell ends one site
         before the window edge, so it starts reach + clip_pad - 1
         sites left of it *)
      ("left edge",
       edge_design ~fence_lo:0 ~fence_hi:20 ~fenced_x:17 ~target_gp:20,
       Rect.make ~xl:20 ~yl:0 ~xh:40 ~yh:1, 22) ]

(* ---------------------------------------------------------------- *)
(* Insertion.best vs the certified window optimum                     *)
(* ---------------------------------------------------------------- *)

let sites = 16

(* single-row instance in the style of test_insertion: [n] locals
   placed at [curs], an unplaced target; routability and fences off so
   the objective is pure curve-weighted displacement *)
let tiny_design ~widths ~gps ~curs ~target_w ~target_gp =
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
  Design.make ~name:"tiny_exact" ~floorplan:fp ~cell_types:types ~cells ()

let tiny_cfg =
  { Mcl.Config.default with
    Mcl.Config.consider_routability = false;
    consider_fences = false;
    objective = Mcl.Config.Total }

(* insertion total = locals baseline + candidate cost (the candidate
   cost is the target displacement plus the saturating-shift deltas);
   the solver optimum over the same window can only be <=, and the
   solve must be a certificate, never a silent budget exhaustion *)
let oracle_gap design ~target =
  let segments = Mcl.Segment.build ~respect_fences:false design in
  let placement = Mcl.Placement.create design in
  for i = 0 to Array.length design.Design.cells - 2 do
    Mcl.Placement.add placement i
  done;
  let ctx =
    Mcl.Insertion.make_ctx ~disp_from:`Gp tiny_cfg design ~placement ~segments
      ~routability:None
  in
  let window = Rect.make ~xl:0 ~yl:0 ~xh:sites ~yh:1 in
  match Mcl.Insertion.best ctx ~target ~window with
  | None -> None
  | Some cand ->
    let locals = List.init target (fun i -> i) in
    let t = Solver.build ctx ~window ~cells:(target :: locals) in
    let res = Solver.solve ~max_nodes:5_000_000 t in
    Alcotest.(check bool) "oracle solve is a certificate" true
      (res.Solver.verdict = Solver.Proven);
    let ins_total = Solver.baseline_cost t +. cand.Mcl.Insertion.cost in
    Some (ins_total -. res.Solver.best_cost)

let test_insertion_window_optimality () =
  (* crafted: pushing is optimal, so insertion must hit the optimum *)
  let d =
    tiny_design ~widths:[| 3; 3 |] ~gps:[| 0; 3 |] ~curs:[| 0; 3 |]
      ~target_w:2 ~target_gp:3
  in
  (match oracle_gap d ~target:2 with
   | None -> Alcotest.fail "crafted instance: no insertion point"
   | Some gap ->
     Alcotest.(check bool) "crafted: insertion total == window optimum" true
       (Float.abs gap <= 1e-6));
  (* seeded: over random tiny instances insertion never beats the
     certified optimum (gap >= -eps), and usually meets it *)
  let prng = Mcl_geom.Prng.create 20260808 in
  let tried = ref 0 and met = ref 0 in
  for _ = 1 to 60 do
    let n = 1 + Mcl_geom.Prng.int prng 3 in
    let widths = Array.init n (fun _ -> 1 + Mcl_geom.Prng.int prng 3) in
    (* place locals left-to-right with random gaps; skip overfull draws *)
    let curs = Array.make n 0 in
    let x = ref 0 in
    Array.iteri
      (fun i w ->
         x := !x + Mcl_geom.Prng.int prng 3;
         curs.(i) <- !x;
         x := !x + w)
      widths;
    if !x <= sites then begin
      let gps =
        Array.map (fun w -> Mcl_geom.Prng.int prng (sites - w + 1)) widths
      in
      let target_w = 1 + Mcl_geom.Prng.int prng 3 in
      let target_gp = Mcl_geom.Prng.int prng (sites - target_w + 1) in
      let d = tiny_design ~widths ~gps ~curs ~target_w ~target_gp in
      match oracle_gap d ~target:n with
      | None -> ()
      | Some gap ->
        incr tried;
        Alcotest.(check bool) "insertion never beats the certified optimum"
          true
          (gap >= -1e-6);
        if Float.abs gap <= 1e-6 then incr met
    end
  done;
  Alcotest.(check bool) "exercised some seeded instances" true (!tried >= 20);
  Alcotest.(check bool) "insertion meets the optimum somewhere" true (!met > 0)

(* ---------------------------------------------------------------- *)
(* Refiner: monotone, deterministic, and a no-op at k=0               *)
(* ---------------------------------------------------------------- *)

let refined_design () =
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "exact_refine";
      num_cells = 500;
      seed = 11 }
  in
  let d = Mcl_gen.Generator.generate spec in
  let gp_hpwl = Mcl_eval.Metrics.hpwl d in
  ignore (Mcl.Pipeline.run Mcl.Config.default d);
  (d, gp_hpwl)

let test_refine_monotone_and_noop () =
  let d, gp_hpwl = refined_design () in
  let snap = Design.snapshot d in
  (* k=0: score measured, design untouched *)
  let s0 = Refine.run ~k:0 ~gp_hpwl (make_ctx Mcl.Config.default d) in
  Alcotest.(check bool) "k=0 leaves the placement bit-identical" true
    (Design.snapshot d = snap);
  Alcotest.(check (float 0.0)) "k=0 score unchanged" s0.Refine.score_before
    s0.Refine.score_after;
  (* k>0: monotone score, legality preserved, accepted windows improve *)
  let s = Refine.run ~k:6 ~gp_hpwl (make_ctx Mcl.Config.default d) in
  Alcotest.(check bool) "refine examined windows" true (s.Refine.windows > 0);
  Alcotest.(check bool) "score never worsens" true
    (s.Refine.score_after <= s.Refine.score_before +. 1e-9);
  Alcotest.(check bool) "still legal after refine" true
    (Mcl_eval.Legality.is_legal d);
  List.iter
    (fun (o : Refine.outcome) ->
       if o.Refine.o_accepted then
         Alcotest.(check bool) "accepted window strictly improved" true
           (o.Refine.o_after < o.Refine.o_before -. 1e-9))
    s.Refine.outcomes;
  (* determinism: an identical design refines to the identical result *)
  let d2, gp_hpwl2 = refined_design () in
  let s2 =
    Refine.run ~k:6 ~gp_hpwl:gp_hpwl2 (make_ctx Mcl.Config.default d2)
  in
  Alcotest.(check bool) "refinement is deterministic" true
    (Design.snapshot d = Design.snapshot d2
     && s.Refine.score_after = s2.Refine.score_after
     && s.Refine.nodes = s2.Refine.nodes)

(* ---------------------------------------------------------------- *)
(* Service: WAL replay of a refined design, congestion map sync       *)
(* ---------------------------------------------------------------- *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Server = Mcl_service.Server
module Protocol = Mcl_service.Protocol
module Wal = Mcl_resilience.Wal

let fresh_engine () = Engine.create ~config:Mcl.Config.default ()

let parse_req line =
  match
    Protocol.parse ~received:(Unix.gettimeofday ()) ~default_id:"t" line
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "bad request %s: %s" line e.Protocol.message

let journal_ok eng wal line =
  let resps = Server.execute_and_journal eng ~wal [| parse_req line |] in
  Array.iter
    (fun r ->
       match r.Protocol.result with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "journaled op failed: %s" e.Protocol.message)
    resps

let test_wal_replay_refined () =
  let path = Filename.temp_file "mcl_exact_replay" ".wal" in
  let eng = fresh_engine () in
  let wal = Wal.open_ ~path () in
  journal_ok eng wal {|{"op":"load","design":"r","suite":"fft_2_md2"}|};
  journal_ok eng wal {|{"op":"legalize","design":"r"}|};
  journal_ok eng wal {|{"op":"refine","design":"r","k":6}|};
  journal_ok eng wal {|{"op":"eco","design":"r","cells":[5,9]}|};
  Wal.close wal;
  let fingerprint = Engine.state_fingerprint eng in
  let eng2 = fresh_engine () in
  let r = Server.recover eng2 ~path in
  Sys.remove path;
  Alcotest.(check bool) "replayed the journaled mutations" true
    (r.Server.replayed > 0);
  Alcotest.(check string) "refined design replays to the exact fingerprint"
    fingerprint
    (Engine.state_fingerprint eng2)

let handle_ok eng what line =
  let resp = Engine.handle_line eng line in
  match Json.parse resp with
  | Ok j when Json.get_string "status" j = Some "ok" -> j
  | Ok j -> Alcotest.failf "%s failed: %s" what (Json.to_string j)
  | Error e -> Alcotest.failf "%s: bad response json: %s" what e

let test_congest_sync_after_refine () =
  let eng = fresh_engine () in
  ignore (handle_ok eng "load" {|{"op":"load","design":"c","suite":"fft_2_md2"}|});
  ignore (handle_ok eng "legalize" {|{"op":"legalize","design":"c"}|});
  (* first query builds the lazy per-entry congestion map *)
  ignore (handle_ok eng "query" {|{"op":"query","design":"c"}|});
  let j = handle_ok eng "refine" {|{"op":"refine","design":"c","k":6}|} in
  let accepted =
    match Json.member "result" j with
    | Some r -> Option.value ~default:0 (Json.get_int "accepted" r)
    | None -> 0
  in
  Alcotest.(check bool) "refine moved cells (sync is exercised)" true
    (accepted > 0);
  match Mcl_service.Cache.find (Engine.cache eng) "c" with
  | None -> Alcotest.fail "design evicted"
  | Some entry ->
    (match entry.Mcl_service.Cache.refine with
     | None -> Alcotest.fail "refine note not recorded"
     | Some note ->
       Alcotest.(check int) "note matches the response" accepted
         note.Mcl_service.Cache.rn_accepted);
    (match entry.Mcl_service.Cache.congest with
     | None -> Alcotest.fail "congestion map dropped by refine"
     | Some m ->
       let fresh =
         Mcl_congest.Congestion.create entry.Mcl_service.Cache.design
       in
       Alcotest.(check bool) "incremental map == rebuild after refine" true
         (Mcl_congest.Congestion.equal m fresh))

let () =
  Alcotest.run "exact"
    [ ("solver",
       [ Alcotest.test_case "brute force == B&B bit-for-bit" `Quick
           test_brute_force_matches_bnb;
         Alcotest.test_case "Insertion.best vs certified optimum" `Quick
           test_insertion_window_optimality ]);
      ("refine",
       [ Alcotest.test_case "monotone, deterministic, k=0 no-op" `Quick
           test_refine_monotone_and_noop ]);
      ("service",
       [ Alcotest.test_case "WAL replay of refined design" `Quick
           test_wal_replay_refined;
         Alcotest.test_case "congestion map synced across refine" `Quick
           test_congest_sync_after_refine ]) ]
