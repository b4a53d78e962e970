module Rect = Mcl_geom.Rect
open Mcl_netlist

type shard_info = {
  shard_count : int;
  seam_margin : int;
  interior_legalized : int;
  boundary_zone : int;
  deferred : int;
}

type stats = {
  legalized : int;
  rounds : int;
  window_growths : int;
  fallbacks : int;
  kernel : Arena.counters;
  sharding : shard_info option;
}

type pending = {
  cell : int;
  mutable window : Rect.t;
  mutable tries : int;
}

(* Shared-queue domain pool: runs the sharded path's stripe jobs and
   the service engine's dispatch of independent designs. *)
let run_jobs ~threads jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs when threads <= 1 -> List.iter (fun job -> job ()) jobs
  | jobs ->
    let jobs = Array.of_list jobs in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length jobs then begin
          jobs.(i) ();
          loop ()
        end
      in
      loop ()
    in
    let domains =
      List.init (min threads (Array.length jobs)) (fun _ -> Domain.spawn worker)
    in
    (* join everything before re-raising, so no domain outlives the call *)
    let first_exn = ref None in
    List.iter
      (fun d ->
         match Domain.join d with
         | () -> ()
         | exception e -> if !first_exn = None then first_exn := Some e)
      domains;
    match !first_exn with Some e -> raise e | None -> ()

(* ---------------------------------------------------------------- *)
(* Classic path: per-round batches of disjoint windows (Sec. 3.5)    *)
(* ---------------------------------------------------------------- *)

let run_batched ~disp_from ?budget config design =
  let ctx =
    Mgl.context ~disp_from ?congest:(Mgl.congest_map config design) config
      design ~placement:(Mgl.fixed_placement design)
  in
  let die = Floorplan.die design.Design.floorplan in
  let waiting = Queue.create () in
  Array.iter
    (fun id ->
       let c = design.Design.cells.(id) in
       let h = Design.height design c and w = Design.width design c in
       Queue.add
         { cell = id;
           window =
             Mgl.initial_window config design c ~h ~w
               ~util:ctx.Insertion.utilization;
           tries = 0 }
         waiting)
    (Mgl.default_order design);
  let growths = ref 0 and fallbacks = ref 0 and legalized = ref 0 and rounds = ref 0 in
  while not (Queue.is_empty waiting) do
    (* round boundary: the placement is consistent here, and every
       window retry passes through this loop, so deadline cancellation
       can never observe a half-applied batch *)
    Mcl_resilience.Budget.check_now budget;
    incr rounds;
    (* L_p: greedy maximal batch of non-overlapping windows, in order *)
    let batch = ref [] and deferred = Queue.create () in
    Queue.iter
      (fun p ->
         if List.exists (fun q -> Rect.overlaps q.window p.window) !batch then
           Queue.add p deferred
         else batch := p :: !batch)
      waiting;
    Queue.clear waiting;
    Queue.transfer deferred waiting;
    let batch = Array.of_list (List.rev !batch) in
    (* compute every candidate read-only before applying any; the
       per-candidate poll is safe because nothing has moved yet *)
    let results =
      Array.map
        (fun p ->
           Mcl_resilience.Budget.check budget;
           Insertion.best ctx ~target:p.cell ~window:p.window)
        batch
    in
    (* apply in order; windows are disjoint so candidates stay valid *)
    Array.iteri
      (fun i p ->
         match results.(i) with
         | Some cand ->
           Insertion.apply ctx ~target:p.cell cand;
           incr legalized
         | None ->
           if p.tries >= config.Config.max_window_tries || Rect.equal p.window die
           then begin
             incr fallbacks;
             let ok =
               Mgl.fallback_place ctx p.cell
               || Mgl.fallback_place ~relax_routability:true ctx p.cell
             in
             if not ok then
               Mcl_analysis.Diagnostic.(
                 fail
                   [ error ~code:"S301-unplaceable-cell" ~stage:"mgl"
                       ~loc:(Cell p.cell)
                       "no legal insertion point even at full-die window \
                        (region over capacity?)" ]);
             incr legalized
           end
           else begin
             incr growths;
             p.tries <- p.tries + 1;
             p.window <-
               Mgl.grow_window p.window ~die ~factor:config.Config.window_growth;
             Queue.add p waiting
           end)
      batch
  done;
  (* the context, and with it the arena, was made for this run *)
  { legalized = !legalized; rounds = !rounds; window_growths = !growths;
    fallbacks = !fallbacks; kernel = Arena.counters ctx.Insertion.arena;
    sharding = None }

(* ---------------------------------------------------------------- *)
(* Sharded path: one coarse job per die stripe, then a sequential     *)
(* boundary-reconciliation pass over the merged occupancy             *)
(* ---------------------------------------------------------------- *)

(* Windowed insertion restricted to one stripe: the window never
   leaves the stripe (so concurrent stripes touch disjoint cells and
   sites), and exhaustion defers to the boundary pass instead of
   falling back — the emergency fallback scans whole rows, which would
   escape the stripe. *)
let legalize_interior ?budget ctx ~stripe ~target ~growths =
  let design = ctx.Insertion.design in
  let config = ctx.Insertion.config in
  let tgt = design.Design.cells.(target) in
  let h = Design.height design tgt and w = Design.width design tgt in
  let w0 =
    Rect.inter stripe
      (Mgl.initial_window config design tgt ~h ~w
         ~util:ctx.Insertion.utilization)
  in
  if Rect.is_empty w0 then false
  else begin
    let rec attempt window tries =
      Mcl_resilience.Budget.check budget;
      match Insertion.best ctx ~target ~window with
      | Some cand ->
        Insertion.apply ctx ~target cand;
        true
      | None ->
        if tries >= config.Config.max_window_tries || Rect.equal window stripe
        then false
        else begin
          incr growths;
          attempt
            (Mgl.grow_window window ~die:stripe
               ~factor:config.Config.window_growth)
            (tries + 1)
        end
    in
    attempt w0 0
  end

let run_sharded ~disp_from ?budget ?shard_margin config design =
  let threads = max 1 config.Config.threads in
  let plan = Shard.plan ?margin:shard_margin ~shards:config.Config.shards design in
  let shards = plan.Shard.shards in
  let segments =
    Segment.build ~boundary_gap:(Mgl.boundary_gap config design)
      ~respect_fences:config.Config.consider_fences design
  in
  let routability =
    if config.Config.consider_routability then Some (Routability.create design)
    else None
  in
  (* congestion prior: built in parallel over net chunks; the chunked
     build is bit-identical to the sequential one (integer fixed-point
     contributions sum associatively) *)
  let congest =
    if config.Config.congestion_weight > 0.0 then
      Some
        (Mcl_congest.Congestion.create_par
           ~bin_sites:config.Config.congestion_bin_sites
           ~run:(run_jobs ~threads) ~chunks:shards design)
    else None
  in
  let util = Insertion.utilization design in
  let order = Mgl.default_order design in
  (* classification is per-cell pure (geometry only), so the resulting
     ownership never depends on processing order *)
  let n = Design.num_cells design in
  let assign = Array.make n (-2) in
  let boundary_zone = ref 0 in
  Array.iter
    (fun id ->
       match
         Shard.classify plan config design ~util design.Design.cells.(id)
       with
       | Shard.Interior k -> assign.(id) <- k
       | Shard.Boundary ->
         assign.(id) <- -1;
         incr boundary_zone)
    order;
  (* per-stripe work lists, in global legalization order *)
  let shard_order =
    Array.init shards (fun k ->
        let ids = ref [] in
        Array.iter (fun id -> if assign.(id) = k then ids := id :: !ids) order;
        Array.of_list (List.rev !ids))
  in
  (* single-owner state per stripe: placement, scratch arena, counters.
     Fixed cells are obstacles everywhere, so each stripe registers all
     of them. *)
  let placements = Array.init shards (fun _ -> Mgl.fixed_placement design) in
  let arenas = Array.init shards (fun _ -> Arena.create ()) in
  let growths = Array.make shards 0 in
  let placed = Array.make shards 0 in
  let jobs =
    List.init shards (fun k () ->
        let ctx =
          Insertion.make_ctx ~disp_from ?congest ~arena:arenas.(k) config
            design ~placement:placements.(k) ~segments ~routability
        in
        let stripe = plan.Shard.stripes.(k) in
        let g = ref 0 in
        Array.iter
          (fun target ->
             if legalize_interior ?budget ctx ~stripe ~target ~growths:g then
               placed.(k) <- placed.(k) + 1)
          shard_order.(k);
        growths.(k) <- !g)
  in
  run_jobs ~threads jobs;
  (* boundary reconciliation: merge the per-stripe occupancies and run
     the ordinary sequential search (full-die growth + fallback) over
     every cell not yet placed — the boundary zone plus any interior
     cell that exhausted its stripe. Sequential and in global order,
     so the result is independent of how the stripe jobs interleaved. *)
  let merged = Placement.merge design placements in
  let bctx =
    Insertion.make_ctx ~disp_from ?congest config design ~placement:merged
      ~segments ~routability
  in
  let b_growths = ref 0 and fallbacks = ref 0 and b_placed = ref 0 in
  Array.iter
    (fun target ->
       if not (Placement.mem merged target) then begin
         let ok = Mgl.legalize_one ?budget bctx ~target ~growths:b_growths in
         let ok =
           if ok then true
           else begin
             incr fallbacks;
             Mgl.fallback_place bctx target
             || Mgl.fallback_place ~relax_routability:true bctx target
           end
         in
         if not ok then
           Mcl_analysis.Diagnostic.(
             fail
               [ error ~code:"S301-unplaceable-cell" ~stage:"mgl"
                   ~loc:(Cell target)
                   "no legal insertion point even at full-die window (region \
                    over capacity?)" ]);
         incr b_placed
       end)
    order;
  (* counters merge in shard-index order (never completion order), then
     the boundary arena: stats stay byte-stable across thread counts *)
  let kernel = ref (Arena.counters arenas.(0)) in
  for k = 1 to shards - 1 do
    kernel := Arena.merge !kernel (Arena.counters arenas.(k))
  done;
  kernel := Arena.merge !kernel (Arena.counters bctx.Insertion.arena);
  let interior_legalized = Array.fold_left ( + ) 0 placed in
  let interior_assigned =
    Array.fold_left (fun acc o -> acc + Array.length o) 0 shard_order
  in
  let growths_total = Array.fold_left ( + ) 0 growths + !b_growths in
  { legalized = interior_legalized + !b_placed;
    rounds = 1 + (if !b_placed > 0 then 1 else 0);
    window_growths = growths_total;
    fallbacks = !fallbacks;
    kernel = !kernel;
    sharding =
      Some
        { shard_count = shards;
          seam_margin = plan.Shard.margin;
          interior_legalized;
          boundary_zone = !boundary_zone;
          deferred = interior_assigned - interior_legalized } }

let run ?(disp_from = `Gp) ?budget ?shard_margin config design =
  if config.Config.shards > 1 then
    run_sharded ~disp_from ?budget ?shard_margin config design
  else run_batched ~disp_from ?budget config design
