open Mcl_netlist
module Matching = Mcl_flow.Matching

type stats = {
  groups : int;
  cells_moved : int;
  phi_before : float;
  phi_after : float;
}

let phi ~delta0 d =
  if d <= delta0 then d else d ** 5.0 /. (delta0 ** 4.0)

(* integer edge cost for the flow solver; phi can explode, so cap it *)
let cost_scale = 1024.0
let cost_cap = float_of_int (1 lsl 49)

let int_cost v = int_of_float (Float.min (v *. cost_scale) cost_cap)

(* displacement (row heights) of cell [c] if placed at position (x, y) *)
let disp_at design (c : Cell.t) (x, y) =
  let fp = design.Design.floorplan in
  float_of_int
    ((abs (x - c.gp_x) * fp.Floorplan.site_width)
     + (abs (y - c.gp_y) * fp.Floorplan.row_height))
  /. float_of_int fp.Floorplan.row_height

(* The stdlib's [Array.sort] (a ternary heap sort) specialised to
   sorting indices by a float key: the same algorithm making the same
   comparisons in the same order, so it yields the same permutation,
   ties included. Comparisons take indices, so no float is boxed, and
   [maxson] answers -1 where the stdlib raises [Bottom], so nothing is
   allocated at all. *)
let sort_by_key (key : float array) (a : int array) =
  (* the key of index [i] sorts before that of [j] under
     [Float.compare] (nan below everything), the order [compare] gives
     floats *)
  let before i j =
    let x = key.(i) and y = key.(j) in
    x < y || (x <> x && y = y)
  in
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if before a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
      if before a.(x) a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && before a.(i31) a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && before e a.(j) then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if before a.(father) e then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let optimize_group ~delta0 design stats config cells =
  let n = Array.length cells in
  let positions = Array.map (fun (c : Cell.t) -> (c.x, c.y)) cells in
  (* Candidate edges: each cell's k nearest group positions by
     displacement, found by fully sorting all n of them (groups reach
     ~1k cells on wide dies). The n displacements are computed once per
     cell into [dist], and a reused index array is sorted on them by
     [sort_by_key]. The sort is unstable, so its order among equal
     displacements comes from its exact comparison sequence: that is
     why [sort_by_key] is Array.sort's algorithm and not another sort,
     since changing it would change which tied neighbours become
     edges, and so placements. *)
  let k = min (n - 1) config.Config.matching_neighbors in
  let edges = ref [] in
  let dist = Array.make n 0.0 in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let c = cells.(i) in
    let d_i = disp_at design c positions.(i) in
    (* always include the identity edge *)
    edges := Matching.{ left = i; right = i; edge_cost = int_cost (phi ~delta0 d_i) } :: !edges;
    if k > 0 then begin
      for j = 0 to n - 1 do
        dist.(j) <- disp_at design c positions.(j);
        order.(j) <- j
      done;
      sort_by_key dist order;
      let added = ref 0 in
      let ji = ref 0 in
      while !added < k && !ji < n do
        let j = order.(!ji) in
        if j <> i then begin
          edges :=
            Matching.{ left = i; right = j; edge_cost = int_cost (phi ~delta0 dist.(j)) }
            :: !edges;
          incr added
        end;
        incr ji
      done
    end
  done;
  match Matching.solve ~n ~edges:!edges with
  | Error _ -> ()  (* identity edges make this unreachable *)
  | Ok mate ->
    let before =
      Array.to_list cells
      |> List.fold_left (fun acc c -> acc +. phi ~delta0 (disp_at design c (c.Cell.x, c.Cell.y))) 0.0
    in
    Array.iteri
      (fun i j ->
         if j <> i then begin
           let x, y = positions.(j) in
           if cells.(i).Cell.x <> x || cells.(i).Cell.y <> y then begin
             cells.(i).Cell.x <- x;
             cells.(i).Cell.y <- y;
             incr stats
           end
         end)
      mate;
    let after =
      Array.to_list cells
      |> List.fold_left (fun acc c -> acc +. phi ~delta0 (disp_at design c (c.Cell.x, c.Cell.y))) 0.0
    in
    assert (after <= before +. 1e-6);
    ()

let run ?budget config design =
  (* Adaptive threshold: phi must stay linear for the bulk of the
     distribution and explode only near the current maximum, otherwise
     the matching trades far too much average for the maximum. *)
  let delta0 =
    Float.max config.Config.delta0_rows
      (0.6 *. Mcl_eval.Metrics.max_displacement design)
  in
  let groups = Hashtbl.create 64 in
  Array.iter
    (fun (c : Cell.t) ->
       if not c.is_fixed then begin
         let region = if config.Config.consider_fences then c.region else 0 in
         let key = (c.type_id, region) in
         let cur = try Hashtbl.find groups key with Not_found -> [] in
         Hashtbl.replace groups key (c :: cur)
       end)
    design.Design.cells;
  let total_phi () =
    Array.fold_left
      (fun acc (c : Cell.t) ->
         if c.is_fixed then acc
         else acc +. phi ~delta0 (disp_at design c (c.Cell.x, c.Cell.y)))
      0.0 design.Design.cells
  in
  let phi_before = total_phi () in
  let moved = ref 0 in
  let ngroups = ref 0 in
  (* Groups are disjoint by cell and each trade permutes a group's own
     positions, so the final placement is independent of processing
     order — but a deadline can expire mid-loop, and then *which*
     groups ran would depend on Hashtbl iteration order. Sorting the
     (type_id, region) keys keeps every partial prefix deterministic
     (detlint K102). *)
  Hashtbl.fold (fun key cells acc -> (key, cells) :: acc) groups []
  |> List.sort (fun ((ta, ra), _) ((tb, rb), _) ->
      match Int.compare ta tb with 0 -> Int.compare ra rb | c -> c)
  |> List.iter (fun (_key, cells) ->
      if List.length cells >= 2 then begin
        (* matching-round boundary: each group either trades all of
           its positions or none, so cancellation between groups
           leaves a consistent (and still legal) placement *)
        Mcl_resilience.Budget.check_now budget;
        incr ngroups;
        optimize_group ~delta0 design moved config (Array.of_list cells)
      end);
  { groups = !ngroups;
    cells_moved = !moved;
    phi_before;
    phi_after = total_phi () }
