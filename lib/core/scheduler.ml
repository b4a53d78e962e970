module Rect = Mcl_geom.Rect
module Interval = Mcl_geom.Interval
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

(* Shared-queue domain pool: runs the sharded path's stripe jobs. *)
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

(* Batch occupancy: the windows of the batch being formed, listed in
   every bucket (64 sites x 8 rows of the die) they touch, so a window
   is tested only against batch windows near it. Two windows that
   overlap share a site and row, so they share a bucket; bucket
   indices are clamped, which keeps that true for windows past the die.
   A bucket's list belongs to the current batch only when its stamp
   equals [batch]; bumping [batch] empties every bucket at once, so one
   grid serves every round of a run. *)
type occupancy = {
  x0 : int;
  y0 : int;
  nbx : int;
  nby : int;
  lists : Rect.t list array;
  stamp : int array;
  mutable batch : int;
}

let bucket_sites = 64
let bucket_rows = 8

let occupancy ~(die : Rect.t) =
  let nbx = max 1 ((Rect.width die + bucket_sites - 1) / bucket_sites)
  and nby = max 1 ((Rect.height die + bucket_rows - 1) / bucket_rows) in
  { x0 = die.Rect.x.Interval.lo; y0 = die.Rect.y.Interval.lo; nbx; nby;
    lists = Array.make (nbx * nby) []; stamp = Array.make (nbx * nby) 0;
    batch = 0 }

(* Adds [w] to the batch unless it overlaps a window already there
   ([Rect.overlaps]: half-open, so an empty window overlaps nothing and
   always joins). *)
let try_join occ (w : Rect.t) =
  Rect.is_empty w
  || begin
    let bucket v per n = Int.max 0 (Int.min (n - 1) (v / per)) in
    let bx0 = bucket (w.Rect.x.Interval.lo - occ.x0) bucket_sites occ.nbx
    and bx1 = bucket (w.Rect.x.Interval.hi - 1 - occ.x0) bucket_sites occ.nbx
    and by0 = bucket (w.Rect.y.Interval.lo - occ.y0) bucket_rows occ.nby
    and by1 = bucket (w.Rect.y.Interval.hi - 1 - occ.y0) bucket_rows occ.nby in
    let clear = ref true and by = ref by0 in
    while !clear && !by <= by1 do
      let bx = ref bx0 in
      while !clear && !bx <= bx1 do
        let b = (!by * occ.nbx) + !bx in
        if occ.stamp.(b) = occ.batch
        && List.exists (fun q -> Rect.overlaps q w) occ.lists.(b)
        then clear := false;
        incr bx
      done;
      incr by
    done;
    if !clear then
      for by = by0 to by1 do
        for bx = bx0 to bx1 do
          let b = (by * occ.nbx) + bx in
          if occ.stamp.(b) = occ.batch then occ.lists.(b) <- w :: occ.lists.(b)
          else begin
            occ.stamp.(b) <- occ.batch;
            occ.lists.(b) <- [ w ]
          end
        done
      done;
    !clear
  end

let greedy_batch occ ~window items len ~batch ~rest =
  occ.batch <- occ.batch + 1;
  let nb = ref 0 and nr = ref 0 in
  for i = 0 to len - 1 do
    let p = items.(i) in
    if try_join occ (window p) then begin
      batch.(!nb) <- p;
      incr nb
    end
    else begin
      rest.(!nr) <- p;
      incr nr
    end
  done;
  !nb

let run_batched ~disp_from ?budget config design =
  let ctx =
    Mgl.context ~disp_from config design ~placement:(Mgl.fixed_placement design)
  in
  let die = Floorplan.die design.Design.floorplan in
  (* L_w, the waiting cells, in two arrays that swap each round: a
     round reads [waiting] and writes the cells it defers to [next], in
     order, then the windows it grows after them. No array holds a
     cell twice, so n slots each suffice and no round allocates per
     waiting cell. *)
  let waiting =
    ref
      (Array.map
         (fun id ->
            let c = design.Design.cells.(id) in
            let h = Design.height design c and w = Design.width design c in
            { cell = id;
              window =
                Mgl.initial_window config design c ~h ~w
                  ~util:ctx.Insertion.utilization;
              tries = 0 })
         (Mgl.default_order design))
  in
  let n_waiting = ref (Array.length !waiting) in
  let next = ref (Array.copy !waiting) and batch = Array.copy !waiting in
  let growths = ref 0 and fallbacks = ref 0 and legalized = ref 0 and rounds = ref 0 in
  let occ = occupancy ~die in
  while !n_waiting > 0 do
    (* round boundary: the placement is consistent here, and every
       window retry passes through this loop, so deadline cancellation
       can never observe a half-applied batch *)
    Mcl_resilience.Budget.check_now budget;
    incr rounds;
    (* L_p: greedy maximal batch of non-overlapping windows, in order;
       the rest wait, ahead of this round's grown windows *)
    let nb =
      greedy_batch occ ~window:(fun p -> p.window) !waiting !n_waiting ~batch
        ~rest:!next
    in
    let n_next = ref (!n_waiting - nb) in
    (* compute every candidate read-only before applying any; the
       per-candidate poll is safe because nothing has moved yet *)
    let results =
      Array.init nb (fun i ->
          Mcl_resilience.Budget.check budget;
          Insertion.best ctx ~target:batch.(i).cell ~window:batch.(i).window)
    in
    (* apply in order; windows are disjoint so candidates stay valid *)
    for i = 0 to nb - 1 do
      let p = batch.(i) in
      match results.(i) with
      | Some cand ->
        Insertion.apply ctx ~target:p.cell cand;
        incr legalized
      | None ->
        if p.tries >= config.Config.max_window_tries || Rect.equal p.window die
        then begin
          incr fallbacks;
          Mgl.place_fallback ctx p.cell;
          incr legalized
        end
        else begin
          incr growths;
          p.tries <- p.tries + 1;
          p.window <-
            Mgl.grow_window p.window ~die ~factor:config.Config.window_growth;
          !next.(!n_next) <- p;
          incr n_next
        end
    done;
    let read = !waiting in
    waiting := !next;
    next := read;
    n_waiting := !n_next
  done;
  (* the context, and with it the arena, was made for this run *)
  { legalized = !legalized; rounds = !rounds; window_growths = !growths;
    fallbacks = !fallbacks; kernel = Arena.counters ctx.Insertion.arena;
    sharding = None }

(* ---------------------------------------------------------------- *)
(* Sharded path: one coarse job per die stripe, then a sequential     *)
(* boundary-reconciliation pass over the merged occupancy             *)
(* ---------------------------------------------------------------- *)

let run_sharded ~disp_from ?budget ?shard_margin config design =
  let threads = max 1 config.Config.threads in
  let plan = Shard.plan ?margin:shard_margin ~shards:config.Config.shards design in
  let shards = plan.Shard.shards in
  (* one context for the run; the boundary pass swaps in the merged
     occupancy *)
  let ctx =
    Mgl.context ~disp_from config design ~placement:(Placement.create design)
  in
  let order = Mgl.default_order design in
  (* classification is per-cell pure (geometry only), so the resulting
     ownership never depends on processing order *)
  let n = Design.num_cells design in
  let assign = Array.make n (-2) in
  let boundary_zone = ref 0 in
  Array.iter
    (fun id ->
       match
         Shard.classify plan config design ~util:ctx.Insertion.utilization
           design.Design.cells.(id)
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
  (* single-owner state per stripe: a copy of the context with its own
     placement and scratch arena (segments and routability tables are
     read-only, so the stripes share them). Fixed cells are obstacles
     everywhere, so each stripe registers all of them. Windows never
     leave the stripe, so concurrent stripes touch disjoint cells and
     sites, and a cell that exhausts its stripe is left for the
     boundary pass instead of falling back: the fallback scans whole
     rows, which would escape the stripe. *)
  let stripe_ctx =
    Array.init shards (fun _ ->
        { ctx with
          Insertion.placement = Mgl.fixed_placement design;
          arena = Arena.create () })
  in
  let growths = Array.make shards 0 in
  let placed = Array.make shards 0 in
  run_jobs ~threads
    (List.init shards (fun k () ->
         let bound = `Stripe plan.Shard.stripes.(k) in
         let g = ref 0 in
         Array.iter
           (fun target ->
              if Mgl.legalize_one ?budget stripe_ctx.(k) ~bound ~target ~growths:g
              then placed.(k) <- placed.(k) + 1)
           shard_order.(k);
         growths.(k) <- !g));
  (* boundary reconciliation: merge the per-stripe occupancies and run
     the ordinary sequential loop (die-bounded growth + fallback) over
     every cell not yet placed — the boundary zone plus any interior
     cell that exhausted its stripe. Sequential and in global order,
     so the result is independent of how the stripe jobs interleaved. *)
  let merged =
    Placement.merge design
      (Array.map (fun c -> c.Insertion.placement) stripe_ctx)
  in
  let rest =
    Array.of_list
      (List.filter
         (fun id -> not (Placement.mem merged id))
         (Array.to_list order))
  in
  let b =
    Mgl.run_with_ctx ?budget { ctx with Insertion.placement = merged }
      ~order:rest
  in
  (* counters merge in shard-index order (never completion order), then
     the boundary pass: stats stay byte-stable across thread counts *)
  let kernel =
    Array.fold_left
      (fun acc c -> Arena.merge acc (Arena.counters c.Insertion.arena))
      Arena.zero_counters stripe_ctx
  in
  let interior_legalized = Array.fold_left ( + ) 0 placed in
  let interior_assigned =
    Array.fold_left (fun acc o -> acc + Array.length o) 0 shard_order
  in
  { legalized = interior_legalized + b.Mgl.legalized;
    rounds = 1 + (if b.Mgl.legalized > 0 then 1 else 0);
    window_growths = Array.fold_left ( + ) 0 growths + b.Mgl.window_growths;
    fallbacks = b.Mgl.fallbacks;
    kernel = Arena.merge kernel b.Mgl.kernel;
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
