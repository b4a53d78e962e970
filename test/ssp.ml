module Graph = Mcl_flow.Graph

type status = Optimal | Infeasible
type result = { status : status; flow : int array; total_cost : int }

(* Residual representation: arc pairs. Arc 2a = forward copy of input
   arc a, arc 2a+1 = its reverse. *)

type residual = {
  m2 : int;
  head : int array;          (* per residual arc *)
  res : int array;           (* residual capacity *)
  cost : int array;
  first : int array;         (* adjacency: first residual arc of node *)
  next : int array;          (* next residual arc in adjacency list *)
}

let build_residual n arcs_src arcs_dst arcs_cap arcs_cost flow =
  let m = Array.length arcs_src in
  let m2 = 2 * m in
  let head = Array.make m2 0
  and res = Array.make m2 0
  and cost = Array.make m2 0
  and first = Array.make n (-1)
  and next = Array.make m2 (-1) in
  for a = 0 to m - 1 do
    let u = arcs_src.(a) and v = arcs_dst.(a) in
    head.(2 * a) <- v;
    res.(2 * a) <- arcs_cap.(a) - flow.(a);
    cost.(2 * a) <- arcs_cost.(a);
    next.(2 * a) <- first.(u);
    first.(u) <- 2 * a;
    head.((2 * a) + 1) <- u;
    res.((2 * a) + 1) <- flow.(a);
    cost.((2 * a) + 1) <- -arcs_cost.(a);
    next.((2 * a) + 1) <- first.(v);
    first.(v) <- (2 * a) + 1
  done;
  { m2; head; res; cost; first; next }

(* Binary min-heap on (dist, node). *)
module Heap = struct
  type t = {
    mutable size : int;
    mutable keys : int array;
    mutable vals : int array;
  }

  let create () = { size = 0; keys = Array.make 64 0; vals = Array.make 64 0 }

  let push h k v =
    if h.size = Array.length h.keys then begin
      let nk = Array.make (2 * h.size) 0 and nv = Array.make (2 * h.size) 0 in
      Array.blit h.keys 0 nk 0 h.size;
      Array.blit h.vals 0 nv 0 h.size;
      h.keys <- nk;
      h.vals <- nv
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.keys.(!i) <- k;
    h.vals.(!i) <- v;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      let p = (!i - 1) / 2 in
      let tk = h.keys.(p) and tv = h.vals.(p) in
      h.keys.(p) <- h.keys.(!i);
      h.vals.(p) <- h.vals.(!i);
      h.keys.(!i) <- tk;
      h.vals.(!i) <- tv;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let k = h.keys.(0) and v = h.vals.(0) in
      h.size <- h.size - 1;
      h.keys.(0) <- h.keys.(h.size);
      h.vals.(0) <- h.vals.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tk = h.keys.(!smallest) and tv = h.vals.(!smallest) in
          h.keys.(!smallest) <- h.keys.(!i);
          h.vals.(!smallest) <- h.vals.(!i);
          h.keys.(!i) <- tk;
          h.vals.(!i) <- tv;
          i := !smallest
        end
      done;
      Some (k, v)
    end
end

let solve g =
  let n0 = Graph.num_nodes g in
  let a_src, a_dst, a_cap, a_cost = Graph.arcs_arrays g in
  let m = Array.length a_src in
  let flow = Array.make m 0 in
  let excess = Array.make n0 0 in
  for i = 0 to n0 - 1 do
    excess.(i) <- Graph.supply g i
  done;
  (* Pre-saturate negative arcs so all residual costs admit potentials. *)
  for a = 0 to m - 1 do
    if a_cost.(a) < 0 then begin
      flow.(a) <- a_cap.(a);
      excess.(a_src.(a)) <- excess.(a_src.(a)) - a_cap.(a);
      excess.(a_dst.(a)) <- excess.(a_dst.(a)) + a_cap.(a)
    end
  done;
  let r = build_residual n0 a_src a_dst a_cap a_cost flow in
  let pot = Array.make n0 0 in
  (* Bellman-Ford on the residual graph to get valid initial potentials
     (pre-saturation leaves reverse arcs with positive cost, but mixes
     of saturated/unsaturated arcs still need exact potentials). *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n0 + 1 do
    changed := false;
    incr rounds;
    for a = 0 to r.m2 - 1 do
      if r.res.(a) > 0 then begin
        let u =
          (* source of residual arc a *)
          if a land 1 = 0 then a_src.(a / 2) else a_dst.(a / 2)
        in
        let v = r.head.(a) in
        if pot.(u) + r.cost.(a) < pot.(v) then begin
          pot.(v) <- pot.(u) + r.cost.(a);
          changed := true
        end
      end
    done
  done;
  (* Repeatedly route excess from surplus nodes to deficit nodes along
     shortest residual paths (Dijkstra with reduced costs). *)
  let dist = Array.make n0 max_int in
  let pred_arc = Array.make n0 (-1) in
  let infeasible = ref false in
  let total_excess () =
    let t = ref 0 in
    Array.iter (fun e -> if e > 0 then t := !t + e) excess;
    !t
  in
  while (not !infeasible) && total_excess () > 0 do
    Array.fill dist 0 n0 max_int;
    Array.fill pred_arc 0 n0 (-1);
    let heap = Heap.create () in
    for i = 0 to n0 - 1 do
      if excess.(i) > 0 then begin
        dist.(i) <- 0;
        Heap.push heap 0 i
      end
    done;
    let visited = Array.make n0 false in
    let target = ref (-1) in
    (try
       let rec loop () =
         match Heap.pop heap with
         | None -> ()
         | Some (d, u) ->
           if visited.(u) then loop ()
           else begin
             visited.(u) <- true;
             if excess.(u) < 0 && !target = -1 then begin
               target := u;
               raise Exit
             end;
             let a = ref r.first.(u) in
             while !a >= 0 do
               if r.res.(!a) > 0 then begin
                 let v = r.head.(!a) in
                 let rc = r.cost.(!a) + pot.(u) - pot.(v) in
                 if (not visited.(v)) && d + rc < dist.(v) then begin
                   dist.(v) <- d + rc;
                   pred_arc.(v) <- !a;
                   Heap.push heap dist.(v) v
                 end
               end;
               a := r.next.(!a)
             done;
             loop ()
           end
       in
       loop ()
     with Exit -> ());
    if !target = -1 then infeasible := true
    else begin
      let t = !target in
      (* Update potentials by min(dist_i, dist_t); unreached nodes count
         as infinitely far, so they shift by dist_t — otherwise arcs
         from unreached into reached nodes could turn negative. *)
      for i = 0 to n0 - 1 do
        pot.(i) <-
          pot.(i) + (if dist.(i) = max_int then dist.(t) else min dist.(i) dist.(t))
      done;
      (* bottleneck along path *)
      let rec bottleneck v acc =
        let a = pred_arc.(v) in
        if a < 0 then acc
        else
          let u = if a land 1 = 0 then a_src.(a / 2) else a_dst.(a / 2) in
          bottleneck u (min acc r.res.(a))
      in
      let d = bottleneck t (min (-excess.(t)) max_int) in
      let rec source_of v =
        let a = pred_arc.(v) in
        if a < 0 then v
        else source_of (if a land 1 = 0 then a_src.(a / 2) else a_dst.(a / 2))
      in
      let s0 = source_of t in
      let d = min d excess.(s0) in
      let rec augment v =
        let a = pred_arc.(v) in
        if a >= 0 then begin
          r.res.(a) <- r.res.(a) - d;
          r.res.(a lxor 1) <- r.res.(a lxor 1) + d;
          let u = if a land 1 = 0 then a_src.(a / 2) else a_dst.(a / 2) in
          augment u
        end
      in
      augment t;
      excess.(s0) <- excess.(s0) - d;
      excess.(t) <- excess.(t) + d
    end
  done;
  (* Reconstruct per-arc flow from residual capacities. *)
  for a = 0 to m - 1 do
    flow.(a) <- a_cap.(a) - r.res.(2 * a)
  done;
  let deficit = Array.exists (fun e -> e <> 0) excess in
  let total_cost = ref 0 in
  for a = 0 to m - 1 do
    total_cost := !total_cost + (flow.(a) * a_cost.(a))
  done;
  { status = (if !infeasible || deficit then Infeasible else Optimal);
    flow;
    total_cost = !total_cost }
