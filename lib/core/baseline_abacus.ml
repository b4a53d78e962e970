module Interval = Mcl_geom.Interval
open Mcl_netlist

type stats = { legalized : int }

(* A cluster is a maximal run of abutting cells. [desired] holds
   (gp_x - offset) per member, [x] the chosen left edge. Rigid
   clusters are multi-row walls that never move. *)
type cluster = {
  members : (int * int) list;  (* (cell id, offset within cluster), left to right *)
  width : int;
  desired : int list;          (* gp_x - offset per member *)
  x : int;
  rigid : bool;
}

(* per (row, span): clusters left to right *)
type strip = {
  span : Interval.t;
  mutable clusters : cluster list;
}

let median xs =
  let arr = Array.of_list xs in
  Array.sort compare arr;
  arr.(Array.length arr / 2)

let cluster_cost design c =
  List.fold_left
    (fun acc (id, off) ->
       acc + abs (c.x + off - design.Design.cells.(id).Cell.gp_x))
    0 c.members

let strip_cost design clusters =
  List.fold_left (fun acc c -> acc + cluster_cost design c) 0 clusters

(* Clamp a cluster's ideal position into the strip and against its
   left neighbour; merge with the neighbour when they collide.
   [clusters] is given right-to-left (head = rightmost). *)
let rec settle span = function
  | [] -> Some []
  | c :: rest ->
    (* rigid walls keep their position; movable clusters seek their
       weighted median, clamped into the span *)
    let x =
      if c.rigid then c.x
      else max (min (median c.desired) (span.Interval.hi - c.width)) span.Interval.lo
    in
    (match rest with
     | [] ->
       if (not c.rigid) && (x + c.width > span.Interval.hi || x < span.Interval.lo)
       then None
       else Some [ { c with x } ]
     | prev :: older ->
       if x >= prev.x + prev.width then Some ({ c with x } :: rest)
       else if c.rigid then begin
         (* the wall must stay at its position in every row it spans;
            previous clusters compact left of it or the insertion fails *)
         match compact_left span (c.x :: []) (prev :: older) with
         | Some rest' -> Some (c :: rest')
         | None -> None
       end
       else if prev.rigid then begin
         (* cannot move the wall: clamp right of it, or squeeze into
            the space on its left when the right side overflows *)
         let x = prev.x + prev.width in
         if x + c.width <= span.Interval.hi then Some ({ c with x } :: rest)
         else
           match
             settle (Interval.make span.Interval.lo prev.x) (c :: older)
           with
           | Some list' -> Some (prev :: list')
           | None -> None
       end
       else begin
         (* merge c into prev *)
         let shifted_members =
           List.map (fun (id, off) -> (id, off + prev.width)) c.members
         in
         let shifted_desired = List.map (fun d -> d - prev.width) c.desired in
         let merged =
           { members = prev.members @ shifted_members;
             width = prev.width + c.width;
             desired = prev.desired @ shifted_desired;
             x = prev.x;
             rigid = false }
         in
         settle span (merged :: older)
       end)

(* Push clusters left so that the rightmost ends at or before [limit].
   Rigid walls (multi-row cells, fixed cells) cannot move: if one
   blocks, the insertion is infeasible. *)
and compact_left span limits = function
  | [] -> Some []
  | c :: rest ->
    let limit = match limits with l :: _ -> l | [] -> span.Interval.hi in
    if c.rigid then begin
      if c.x + c.width > limit then None
      else
        match compact_left span (c.x :: limits) rest with
        | Some rest' -> Some (c :: rest')
        | None -> None
    end
    else begin
      let x = min c.x (limit - c.width) in
      if x < span.Interval.lo then None
      else
        match compact_left span (x :: limits) rest with
        | Some rest' -> Some ({ c with x } :: rest')
        | None -> None
    end

let append_cell design strip id =
  let c = design.Design.cells.(id) in
  let w = Design.width design c in
  let cl =
    { members = [ (id, 0) ];
      width = w;
      desired = [ c.Cell.gp_x ];
      x = c.Cell.gp_x;
      rigid = false }
  in
  settle strip.span (cl :: strip.clusters)

(* Place a wall at exactly [x]: if it fits in a free gap it is inserted
   in sorted position untouched; if it only collides with clusters on
   its left-or-overlapping side while being right of everything else,
   the settle path pushes those clusters left; otherwise fail. *)
let append_wall strip ~x ~w =
  let cl = { members = []; width = w; desired = []; x; rigid = true } in
  let disjoint =
    x >= strip.span.Interval.lo
    && x + w <= strip.span.Interval.hi
    && List.for_all (fun c -> x + w <= c.x || c.x + c.width <= x) strip.clusters
  in
  if disjoint then begin
    (* clusters are kept rightmost-first *)
    let rec ins = function
      | c :: rest when c.x > x -> c :: ins rest
      | rest -> cl :: rest
    in
    Some (ins strip.clusters)
  end
  else begin
    (* only meaningful when the wall lands at/after the rightmost
       cluster region; otherwise a middle collision is infeasible *)
    match strip.clusters with
    | head :: _ when x + w <= head.x + head.width && x < head.x ->
      None  (* wall strictly inside/left of the rightmost cluster *)
    | _ -> settle strip.span (cl :: strip.clusters)
  end

let run config design =
  let fp = design.Design.floorplan in
  let segments =
    Segment.build ~respect_fences:config.Config.consider_fences design
  in
  (* strips per (row, region): walls for fixed cells are appended when
     reached in x order, so build them as rigid clusters up-front by
     cutting spans like Segment does for blockages; simpler: treat
     fixed cells as walls inserted before any movable cell *)
  let num_regions = Segment.num_regions segments in
  let strips =
    Array.init fp.Floorplan.num_rows (fun row ->
        Array.init num_regions (fun region ->
            Segment.spans segments ~row ~region
            |> List.map (fun span -> { span; clusters = [] })))
  in
  let strips_for (c : Cell.t) row = strips.(row).(Segment.region_of segments c) in
  let strip_for (c : Cell.t) row =
    (* span containing gp_x, else the nearest one *)
    let x = c.Cell.gp_x in
    let candidates = strips_for c row in
    match
      List.find_opt (fun s -> Interval.contains s.span x) candidates
    with
    | Some s -> Some s
    | None ->
      List.fold_left
        (fun acc s ->
           let d = abs (Interval.clamp s.span x - x) in
           match acc with
           | Some (_, bd) when bd <= d -> acc
           | Some _ | None -> Some (s, d))
        None candidates
      |> Option.map fst
  in
  (* fixed cells become rigid walls *)
  let fixed =
    Array.to_list design.Design.cells
    |> List.filter (fun (c : Cell.t) -> c.Cell.is_fixed)
    |> List.sort (fun (a : Cell.t) (b : Cell.t) -> compare a.Cell.x b.Cell.x)
  in
  List.iter
    (fun (c : Cell.t) ->
       let w = Design.width design c in
       for row = c.Cell.y to c.Cell.y + Design.height design c - 1 do
         if row >= 0 && row < fp.Floorplan.num_rows then
           Array.iter
             (fun region_strips ->
                List.iter
                  (fun s ->
                     let iv = Interval.inter s.span (Interval.make c.Cell.x (c.Cell.x + w)) in
                     if not (Interval.is_empty iv) then
                       match append_wall s ~x:iv.Interval.lo ~w:(Interval.length iv) with
                       | Some cl -> s.clusters <- cl
                       | None -> ())
                  region_strips)
             strips.(row)
       done)
    fixed;
  let dy_cost = fp.Floorplan.row_height / fp.Floorplan.site_width in
  let place_single (c : Cell.t) =
    (* candidate rows scanned outward from the GP row; commit the best *)
    let best = ref None in
    let try_strip y0 s =
      let before = strip_cost design s.clusters in
      match append_cell design s c.Cell.id with
      | None -> ()
      | Some clusters' ->
        let delta =
          strip_cost design clusters' - before
          + (abs (y0 - c.Cell.gp_y) * dy_cost)
        in
        (match !best with
         | Some (_, _, _, bc) when bc <= delta -> ()
         | Some _ | None -> best := Some (s, clusters', y0, delta))
    in
    let try_row y0 =
      if y0 >= 0 && y0 < fp.Floorplan.num_rows then
        match !best with
        | None ->
          (* nothing found yet: consider every span of the row *)
          List.iter (try_strip y0) (strips_for c y0)
        | Some _ ->
          (match strip_for c y0 with
           | None -> ()
           | Some s -> try_strip y0 s)
    in
    try_row c.Cell.gp_y;
    let radius = ref 1 in
    let continue = ref true in
    while !continue do
      let stop_at =
        match !best with
        | Some (_, _, _, bc) -> (!radius - 1) * dy_cost > bc
        | None -> false
      in
      let up = c.Cell.gp_y + !radius and dn = c.Cell.gp_y - !radius in
      if stop_at || (up >= fp.Floorplan.num_rows && dn < 0) then continue := false
      else begin
        try_row up;
        try_row dn;
        incr radius
      end
    done;
    match !best with
    | Some (s, clusters', y0, _) ->
      s.clusters <- clusters';
      c.Cell.y <- y0;
      true
    | None -> false
  in
  let place_multi (c : Cell.t) =
    let h = Design.height design c and w = Design.width design c in
    let best = ref None in
    let try_y0 y0 =
      if y0 >= 0 && y0 + h <= fp.Floorplan.num_rows && Insertion.parity_ok h y0
      then begin
        let strips_opt = List.init h (fun k -> strip_for c (y0 + k)) in
        if List.for_all Option.is_some strips_opt then begin
          let row_strips = List.filter_map (fun s -> s) strips_opt in
          let lo =
            List.fold_left (fun acc s -> max acc s.span.Interval.lo) min_int row_strips
          in
          let hi =
            List.fold_left (fun acc s -> min acc (s.span.Interval.hi - w)) max_int
              row_strips
          in
          if lo <= hi then begin
            (* two candidate x positions: the clamped GP target (pushing
               earlier clusters left) and the compact frontier *)
            let frontier =
              List.fold_left
                (fun acc s ->
                   match s.clusters with
                   | [] -> max acc s.span.Interval.lo
                   | cl :: _ -> max acc (cl.x + cl.width))
                lo row_strips
            in
            (* candidate x positions: the clamped GP target (pushing
               earlier clusters left), the compact frontier, and the
               static gaps between existing clusters *)
            let gap_candidates =
              let free_of (s : strip) =
                let cuts =
                  List.map (fun cl -> Interval.make cl.x (cl.x + cl.width)) s.clusters
                in
                Interval.subtract s.span cuts
              in
              List.fold_left
                (fun acc s ->
                   List.concat_map
                     (fun (a : Interval.t) ->
                        List.filter_map
                          (fun (b : Interval.t) ->
                             let i = Interval.inter a b in
                             if Interval.is_empty i then None else Some i)
                          (free_of s))
                     acc)
                [ Interval.make lo (hi + w) ]
                row_strips
              |> List.filter_map (fun (g : Interval.t) ->
                  if Interval.length g >= w then
                    Some (Interval.clamp (Interval.make g.Interval.lo (g.Interval.hi - w + 1)) c.Cell.gp_x)
                  else None)
            in
            let candidates =
              let clamped = max lo (min hi c.Cell.gp_x) in
              let base = if frontier <= hi then [ clamped; frontier ] else [ clamped ] in
              List.sort_uniq compare (base @ gap_candidates)
            in
            List.iter
              (fun x ->
                 (* trial-insert the wall into every row *)
                 let trials =
                   List.map
                     (fun s -> (s, append_wall s ~x ~w))
                     row_strips
                 in
                 if List.for_all (fun (_, t) -> t <> None) trials then begin
                   let delta =
                     List.fold_left
                       (fun acc (s, t) ->
                          match t with
                          | Some clusters' ->
                            acc + strip_cost design clusters'
                            - strip_cost design s.clusters
                          | None -> acc)
                       0 trials
                   in
                   let cost =
                     delta + abs (x - c.Cell.gp_x)
                     + (abs (y0 - c.Cell.gp_y) * dy_cost)
                   in
                   match !best with
                   | Some (_, _, _, bc) when bc <= cost -> ()
                   | Some _ | None -> best := Some (y0, x, trials, cost)
                 end)
              candidates
          end
        end
      end
    in
    for y0 = 0 to fp.Floorplan.num_rows - h do
      try_y0 y0
    done;
    match !best with
    | Some (y0, x, trials, _) ->
      List.iter
        (fun (s, t) -> match t with Some cl -> s.clusters <- cl | None -> ())
        trials;
      c.Cell.x <- x;
      c.Cell.y <- y0;
      true
    | None -> false
  in
  let order =
    Array.to_list design.Design.cells
    |> List.filter (fun (c : Cell.t) -> not c.Cell.is_fixed)
    |> List.sort (fun (a : Cell.t) (b : Cell.t) ->
        compare (a.Cell.gp_x, a.Cell.id) (b.Cell.gp_x, b.Cell.id))
  in
  let count = ref 0 in
  List.iter
    (fun (c : Cell.t) ->
       let ok =
         if Design.height design c = 1 then place_single c else place_multi c
       in
       if not ok then
         Mcl_analysis.Diagnostic.(
           fail
             [ error ~code:"S301-unplaceable-cell" ~stage:"abacus"
                 ~loc:(Cell c.Cell.id) "no row can take the cell" ]);
       incr count)
    order;
  (* final positions for single-row cells from the clusters *)
  Array.iter
    (fun row_strips ->
       Array.iter
         (fun region_strips ->
            List.iter
              (fun s ->
                 List.iter
                   (fun cl ->
                      if not cl.rigid then
                        List.iter
                          (fun (id, off) ->
                             let c = design.Design.cells.(id) in
                             c.Cell.x <- cl.x + off)
                          cl.members)
                   s.clusters)
              region_strips)
         row_strips)
    strips;
  { legalized = !count }
