type pivot_rule = First_eligible | Block_search
type status = Optimal | Infeasible

type result = {
  status : status;
  flow : int array;
  potential : int array;
  total_cost : int;
}

(* Internal solver state. Node [root = n] is the artificial root; arcs
   [m .. m+n-1] are the artificial arcs of the initial basis. Arc
   states: [st_tree] basic, [st_lower] flow 0, [st_upper] flow = cap.

   The basis tree keeps each node's children in a doubly linked
   sibling list ([first_child], [next_sib], [prev_sib]; -1 ends a
   list), so a tree edit detaches a node in O(1) even from the root,
   under which the initial basis hangs all n nodes. Only [refresh]
   reads the lists, and it gives every node of the re-hung subtree the
   same depth and potential shift in any parent-before-child order, so
   the sibling order never reaches a pivot, a flow or a potential. *)

let st_lower = -1
let st_tree = 0
let st_upper = 1

type state = {
  n : int;                 (* original node count *)
  m : int;                 (* original arc count *)
  a_src : int array;
  a_dst : int array;
  a_cap : int array;
  a_cost : int array;
  flow : int array;
  st : int array;
  parent : int array;      (* parent node in tree; root has -1 *)
  pred : int array;        (* arc connecting node to parent *)
  depth : int array;
  pot : int array;
  first_child : int array;
  next_sib : int array;
  prev_sib : int array;
  stack : int array;       (* [refresh]'s DFS stack, one per solve *)
}

let big_cost g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let maxc = ref 1 in
  for a = 0 to m - 1 do
    maxc := max !maxc (abs (Graph.cost g a))
  done;
  if !maxc > max_int / (4 * (n + 2)) then
    invalid_arg "Network_simplex.solve: cost magnitude too large";
  (n + 2) * !maxc

let init g =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let src, dst, cap, cost = Graph.arcs_arrays g in
  let big = big_cost g in
  let root = n in
  let total = m + n in
  let a_src = Array.make total 0
  and a_dst = Array.make total 0
  and a_cap = Array.make total 0
  and a_cost = Array.make total 0 in
  Array.blit src 0 a_src 0 m;
  Array.blit dst 0 a_dst 0 m;
  Array.blit cap 0 a_cap 0 m;
  Array.blit cost 0 a_cost 0 m;
  let flow = Array.make total 0 in
  let st = Array.make total st_lower in
  let parent = Array.make (n + 1) (-1) in
  let pred = Array.make (n + 1) (-1) in
  let depth = Array.make (n + 1) 0 in
  let pot = Array.make (n + 1) 0 in
  let first_child = Array.make (n + 1) (-1) in
  let next_sib = Array.make (n + 1) (-1) in
  let prev_sib = Array.make (n + 1) (-1) in
  for i = 0 to n - 1 do
    let a = m + i in
    let s = Graph.supply g i in
    if s >= 0 then begin
      a_src.(a) <- i;
      a_dst.(a) <- root;
      flow.(a) <- s;
      pot.(i) <- -big
    end
    else begin
      a_src.(a) <- root;
      a_dst.(a) <- i;
      flow.(a) <- -s;
      pot.(i) <- big
    end;
    a_cap.(a) <- max_int / 2;
    a_cost.(a) <- big;
    st.(a) <- st_tree;
    parent.(i) <- root;
    pred.(i) <- a;
    depth.(i) <- 1;
    (* root's children in the order 0 .. n-1 *)
    prev_sib.(i) <- i - 1;
    if i + 1 < n then next_sib.(i) <- i + 1
  done;
  if n > 0 then first_child.(root) <- 0;
  { n; m; a_src; a_dst; a_cap; a_cost; flow; st; parent; pred; depth;
    pot; first_child; next_sib; prev_sib; stack = Array.make (n + 1) 0 }

let reduced_cost s a = s.a_cost.(a) + s.pot.(s.a_src.(a)) - s.pot.(s.a_dst.(a))

let eligible s a =
  match s.st.(a) with
  | st when st = st_lower -> reduced_cost s a < 0
  | st when st = st_upper -> reduced_cost s a > 0
  | _ -> false

(* Violation magnitude used by block search to pick the best arc. *)
let violation s a =
  match s.st.(a) with
  | st when st = st_lower -> -reduced_cost s a
  | st when st = st_upper -> reduced_cost s a
  | _ -> min_int

(* Walk both endpoints up to their lowest common ancestor. *)
let apex s u v =
  let u = ref u and v = ref v in
  while s.depth.(!u) > s.depth.(!v) do u := s.parent.(!u) done;
  while s.depth.(!v) > s.depth.(!u) do v := s.parent.(!v) done;
  while !u <> !v do
    u := s.parent.(!u);
    v := s.parent.(!v)
  done;
  !u

(* Residual capacity of tree arc [a] when the cycle traverses the node
   [w] (whose pred arc is [a]) in direction [up]: [up = true] means the
   cycle goes from [w] towards [parent w]. *)
let tree_residual s w ~up =
  let a = s.pred.(w) in
  let arc_points_up = s.a_src.(a) = w in
  if arc_points_up = up then s.a_cap.(a) - s.flow.(a) else s.flow.(a)

let remove_child s p c =
  let nx = s.next_sib.(c) and pv = s.prev_sib.(c) in
  if pv >= 0 then s.next_sib.(pv) <- nx else s.first_child.(p) <- nx;
  if nx >= 0 then s.prev_sib.(nx) <- pv

let add_child s p c =
  let f = s.first_child.(p) in
  s.prev_sib.(c) <- -1;
  s.next_sib.(c) <- f;
  if f >= 0 then s.prev_sib.(f) <- c;
  s.first_child.(p) <- c

(* Re-root the subtree that was cut below [q] so that [v] becomes its
   root, then hang it below [u] via arc [e]. Walks the path v .. q,
   reversing parent pointers; [q]'s old parent link (the leaving arc)
   is discarded. *)
let reroot s ~q ~v ~u ~e =
  let rec chain w new_parent new_pred =
    let old_parent = s.parent.(w) and old_pred = s.pred.(w) in
    remove_child s old_parent w;
    s.parent.(w) <- new_parent;
    s.pred.(w) <- new_pred;
    add_child s new_parent w;
    if w <> q then chain old_parent w old_pred
  in
  chain v u e

(* After re-rooting, refresh depths and shift potentials of the subtree
   rooted at [v] by [dp]. Iterative: subtrees can be deep. Each node is
   pushed once and the root is never in the subtree, so n slots do. *)
let refresh s v dp =
  let stack = s.stack in
  stack.(0) <- v;
  let top = ref 1 in
  while !top > 0 do
    decr top;
    let w = stack.(!top) in
    s.depth.(w) <- s.depth.(s.parent.(w)) + 1;
    s.pot.(w) <- s.pot.(w) + dp;
    let c = ref s.first_child.(w) in
    while !c >= 0 do
      stack.(!top) <- !c;
      incr top;
      c := s.next_sib.(!c)
    done
  done

let pivot_iteration s entering =
  let e = entering in
  let dir = if s.st.(e) = st_lower then 1 else -1 in
  let first, second =
    if dir = 1 then (s.a_src.(e), s.a_dst.(e)) else (s.a_dst.(e), s.a_src.(e))
  in
  let join = apex s first second in
  (* residual of the entering arc itself *)
  let delta = ref (if dir = 1 then s.a_cap.(e) - s.flow.(e) else s.flow.(e)) in
  (* min residual on second -> apex (cycle direction: up) *)
  let w = ref second in
  while !w <> join do
    delta := min !delta (tree_residual s !w ~up:true);
    w := s.parent.(!w)
  done;
  (* min residual on first -> apex scan (cycle traverses these arcs
     downward, i.e. parent -> w) *)
  w := first;
  while !w <> join do
    delta := min !delta (tree_residual s !w ~up:false);
    w := s.parent.(!w)
  done;
  let d = !delta in
  (* Leaving arc: last blocking arc along the cycle traversed from the
     apex in the push direction (Cunningham). Traversal order is
     apex->first (down), entering, second->apex (up); the last blocking
     one overall is the closest-to-apex blocking arc on the second
     side, else the entering arc, else the closest-to-first blocking
     arc on the first side. *)
  let leaving = ref (-1) in
  let leaving_node = ref (-1) in
  (* second side: keep the LAST blocking arc seen while scanning up *)
  w := second;
  while !w <> join do
    if tree_residual s !w ~up:true = d then begin
      leaving := s.pred.(!w);
      leaving_node := !w
    end;
    w := s.parent.(!w)
  done;
  if !leaving = -1 then begin
    let e_res = if dir = 1 then s.a_cap.(e) - s.flow.(e) else s.flow.(e) in
    if e_res = d then leaving := e
    else begin
      (* first side: keep the FIRST blocking arc seen while scanning up *)
      w := first;
      (try
         while !w <> join do
           if tree_residual s !w ~up:false = d then begin
             leaving := s.pred.(!w);
             leaving_node := !w;
             raise Exit
           end;
           w := s.parent.(!w)
         done
       with Exit -> ())
    end
  end;
  assert (!leaving >= 0);
  (* augment flows along the cycle *)
  s.flow.(e) <- s.flow.(e) + (dir * d);
  w := second;
  while !w <> join do
    let a = s.pred.(!w) in
    let forward = s.a_src.(a) = !w in
    s.flow.(a) <- (if forward then s.flow.(a) + d else s.flow.(a) - d);
    w := s.parent.(!w)
  done;
  w := first;
  while !w <> join do
    let a = s.pred.(!w) in
    let forward = s.a_dst.(a) = !w in
    s.flow.(a) <- (if forward then s.flow.(a) + d else s.flow.(a) - d);
    w := s.parent.(!w)
  done;
  if !leaving = e then
    (* the entering arc itself blocks: it flips bound, no tree change *)
    s.st.(e) <- (if dir = 1 then st_upper else st_lower)
  else begin
    let q = !leaving_node in
    let la = !leaving in
    (* which endpoint of e lies in the cut subtree rooted at q? *)
    let rec in_subtree x = x = q || (s.parent.(x) >= 0 && in_subtree s.parent.(x)) in
    let v_in, u_out = if in_subtree second then (second, first) else (first, second) in
    let rc_e = reduced_cost s e in
    let dp = if s.a_dst.(e) = v_in then rc_e else -rc_e in
    s.st.(la) <- (if s.flow.(la) = 0 then st_lower else st_upper);
    s.st.(e) <- st_tree;
    reroot s ~q ~v:v_in ~u:u_out ~e;
    refresh s v_in dp
  end

let find_entering_first s next =
  let total = s.m in
  let start = !next in
  let rec scan i count =
    if count > total then None
    else
      let a = if i >= total then 0 else i in
      if eligible s a then begin
        next := a + 1;
        Some a
      end
      else scan (a + 1) (count + 1)
  in
  scan start 0

let find_entering_block s next =
  let total = s.m in
  if total = 0 then None
  else begin
    let block = max 64 (int_of_float (sqrt (float_of_int total))) in
    let best = ref (-1) and best_v = ref 0 in
    let scanned = ref 0 in
    let i = ref !next in
    let answer = ref None in
    (try
       while !scanned < total do
         let stop = min (!scanned + block) total in
         while !scanned < stop do
           let a = if !i >= total then (i := 0; 0) else !i in
           let v = violation s a in
           if v > !best_v then begin
             best := a;
             best_v := v
           end;
           incr i;
           incr scanned
         done;
         if !best >= 0 then begin
           next := !i;
           answer := Some !best;
           raise Exit
         end
       done
     with Exit -> ());
    !answer
  end

let solve ?(pivot = Block_search) ?(on_pivot = fun () -> ()) g =
  let s = init g in
  let next = ref 0 in
  let find =
    match pivot with
    | First_eligible -> find_entering_first
    | Block_search -> find_entering_block
  in
  let continue = ref true in
  while !continue do
    match find s next with
    | None -> continue := false
    | Some e ->
      on_pivot ();
      pivot_iteration s e
  done;
  let infeasible = ref false in
  for i = 0 to s.n - 1 do
    if s.flow.(s.m + i) <> 0 then infeasible := true
  done;
  let total_cost = ref 0 in
  for a = 0 to s.m - 1 do
    total_cost := !total_cost + (s.flow.(a) * s.a_cost.(a))
  done;
  (* Normalize potentials so the artificial root contributes 0. *)
  let potential = Array.sub s.pot 0 s.n in
  { status = (if !infeasible then Infeasible else Optimal);
    flow = Array.sub s.flow 0 s.m;
    potential;
    total_cost = !total_cost }

let check_optimality g (r : result) =
  let n = Graph.num_nodes g and m = Graph.num_arcs g in
  let excess = Array.make n 0 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  for a = 0 to m - 1 do
    let f = r.flow.(a) in
    if f < 0 || f > Graph.cap g a then
      fail (Printf.sprintf "arc %d: flow %d out of [0,%d]" a f (Graph.cap g a));
    excess.(Graph.src g a) <- excess.(Graph.src g a) - f;
    excess.(Graph.dst g a) <- excess.(Graph.dst g a) + f
  done;
  for i = 0 to n - 1 do
    if excess.(i) + Graph.supply g i <> 0 then
      fail (Printf.sprintf "node %d: conservation violated (excess %d, supply %d)"
              i excess.(i) (Graph.supply g i))
  done;
  if r.status = Optimal then
    for a = 0 to m - 1 do
      let rc = Graph.cost g a + r.potential.(Graph.src g a) - r.potential.(Graph.dst g a) in
      let f = r.flow.(a) in
      (* zero-capacity arcs are at both bounds at once: rc unconstrained *)
      if f = 0 && Graph.cap g a > 0 && rc < 0 then
        fail (Printf.sprintf "arc %d: at lower with rc %d" a rc);
      if f = Graph.cap g a && f > 0 && rc > 0 then
        fail (Printf.sprintf "arc %d: at upper with rc %d" a rc);
      if f > 0 && f < Graph.cap g a && rc <> 0 then
        fail (Printf.sprintf "arc %d: interior flow with rc %d" a rc)
    done;
  match !err with None -> Ok () | Some msg -> Error msg
