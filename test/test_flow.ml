module Graph = Mcl_flow.Graph
module Ns = Mcl_flow.Network_simplex
module Matching = Mcl_flow.Matching

(* ---------- hand-built instances ---------- *)

(* Classic transportation: 2 sources, 2 sinks. *)
let test_transport () =
  let g = Graph.create () in
  let s1 = Graph.add_node g ~supply:4 in
  let s2 = Graph.add_node g ~supply:3 in
  let t1 = Graph.add_node g ~supply:(-5) in
  let t2 = Graph.add_node g ~supply:(-2) in
  ignore (Graph.add_arc g ~src:s1 ~dst:t1 ~cap:10 ~cost:2);
  ignore (Graph.add_arc g ~src:s1 ~dst:t2 ~cap:10 ~cost:5);
  ignore (Graph.add_arc g ~src:s2 ~dst:t1 ~cap:10 ~cost:1);
  ignore (Graph.add_arc g ~src:s2 ~dst:t2 ~cap:10 ~cost:2);
  (* optimum: s2->t2 2 (cost 4), s2->t1 1 (1), s1->t1 4 (8) => 13 *)
  let r = Ns.solve g in
  Alcotest.(check bool) "optimal" true (r.Ns.status = Ns.Optimal);
  Alcotest.(check int) "cost" 13 r.Ns.total_cost;
  (match Ns.check_optimality g r with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let r2 = Ssp.solve g in
  Alcotest.(check int) "ssp agrees" 13 r2.Ssp.total_cost

(* Negative-cost circulation: profitable cycle must be saturated. *)
let test_negative_circulation () =
  let g = Graph.create () in
  let a = Graph.add_node g ~supply:0 in
  let b = Graph.add_node g ~supply:0 in
  let c = Graph.add_node g ~supply:0 in
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:5 ~cost:(-4));
  ignore (Graph.add_arc g ~src:b ~dst:c ~cap:3 ~cost:1);
  ignore (Graph.add_arc g ~src:c ~dst:a ~cap:7 ~cost:1);
  (* cycle cost -2, bottleneck 3 -> total -6 *)
  let r = Ns.solve g in
  Alcotest.(check int) "cost" (-6) r.Ns.total_cost;
  (match Ns.check_optimality g r with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let r2 = Ssp.solve g in
  Alcotest.(check int) "ssp agrees" (-6) r2.Ssp.total_cost

let test_infeasible () =
  let g = Graph.create () in
  let s = Graph.add_node g ~supply:5 in
  let t = Graph.add_node g ~supply:(-5) in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:3 ~cost:1);
  let r = Ns.solve g in
  Alcotest.(check bool) "infeasible" true (r.Ns.status = Ns.Infeasible);
  let r2 = Ssp.solve g in
  Alcotest.(check bool) "ssp infeasible" true (r2.Ssp.status = Ssp.Infeasible)

let test_first_eligible_agrees () =
  let g = Graph.create () in
  let s = Graph.add_node g ~supply:6 in
  let a = Graph.add_node g ~supply:0 in
  let b = Graph.add_node g ~supply:0 in
  let t = Graph.add_node g ~supply:(-6) in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:4 ~cost:1);
  ignore (Graph.add_arc g ~src:s ~dst:b ~cap:4 ~cost:2);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:2 ~cost:0);
  ignore (Graph.add_arc g ~src:a ~dst:t ~cap:3 ~cost:3);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:4 ~cost:1);
  let r1 = Ns.solve ~pivot:Ns.Block_search g in
  let r2 = Ns.solve ~pivot:Ns.First_eligible g in
  Alcotest.(check int) "pivot rules agree" r1.Ns.total_cost r2.Ns.total_cost;
  (match Ns.check_optimality g r2 with
   | Ok () -> ()
   | Error m -> Alcotest.fail m)

let test_zero_capacity_arcs () =
  let g = Graph.create () in
  let s = Graph.add_node g ~supply:2 in
  let t = Graph.add_node g ~supply:(-2) in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:0 ~cost:(-100));
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:2 ~cost:3);
  let r = Ns.solve g in
  Alcotest.(check int) "zero-cap ignored" 6 r.Ns.total_cost;
  Alcotest.(check int) "zero-cap carries nothing" 0 r.Ns.flow.(0)

(* ---------- brute force cross-check ---------- *)

(* Exhaustively enumerate integer flows for tiny instances. *)
let brute_force g =
  let m = Graph.num_arcs g in
  let n = Graph.num_nodes g in
  let best = ref None in
  let flow = Array.make m 0 in
  let rec go a =
    if a = m then begin
      let excess = Array.make n 0 in
      for i = 0 to m - 1 do
        excess.(Graph.src g i) <- excess.(Graph.src g i) - flow.(i);
        excess.(Graph.dst g i) <- excess.(Graph.dst g i) + flow.(i)
      done;
      let feasible = ref true in
      for v = 0 to n - 1 do
        if excess.(v) + Graph.supply g v <> 0 then feasible := false
      done;
      if !feasible then begin
        let cost = ref 0 in
        for i = 0 to m - 1 do
          cost := !cost + (flow.(i) * Graph.cost g i)
        done;
        match !best with
        | Some b when b <= !cost -> ()
        | _ -> best := Some !cost
      end
    end
    else
      for f = 0 to Graph.cap g a do
        flow.(a) <- f;
        go (a + 1)
      done
  in
  go 0;
  !best

let random_small_instance rand =
  let open QCheck.Gen in
  let n = 2 + int_bound 3 rand in
  let m = 1 + int_bound 5 rand in
  let g = Graph.create () in
  (* random supplies that sum to zero *)
  let supplies = Array.init n (fun _ -> int_bound 4 rand - 2) in
  let total = Array.fold_left ( + ) 0 supplies in
  supplies.(0) <- supplies.(0) - total;
  Array.iter (fun s -> ignore (Graph.add_node g ~supply:s)) supplies;
  for _ = 1 to m do
    let s = int_bound (n - 1) rand and d = int_bound (n - 1) rand in
    if s <> d then
      ignore
        (Graph.add_arc g ~src:s ~dst:d ~cap:(int_bound 3 rand)
           ~cost:(int_bound 20 rand - 10))
  done;
  g

let prop_ns_matches_brute_force =
  QCheck.Test.make ~name:"network simplex == brute force (tiny instances)"
    ~count:300
    (QCheck.make random_small_instance)
    (fun g ->
       let brute = brute_force g in
       let r = Ns.solve g in
       match brute, r.Ns.status with
       | None, Ns.Infeasible -> true
       | None, Ns.Optimal -> false
       | Some _, Ns.Infeasible -> false
       | Some b, Ns.Optimal ->
         b = r.Ns.total_cost
         && (match Ns.check_optimality g r with Ok () -> true | Error _ -> false))

let prop_ns_matches_ssp =
  QCheck.Test.make ~name:"network simplex == SSP (medium random instances)"
    ~count:120
    (QCheck.make (fun rand ->
         let open QCheck.Gen in
         let n = 4 + int_bound 12 rand in
         let g = Graph.create () in
         let supplies = Array.init n (fun _ -> int_bound 10 rand - 5) in
         let total = Array.fold_left ( + ) 0 supplies in
         supplies.(0) <- supplies.(0) - total;
         Array.iter (fun s -> ignore (Graph.add_node g ~supply:s)) supplies;
         let m = n * 3 in
         for _ = 1 to m do
           let s = int_bound (n - 1) rand and d = int_bound (n - 1) rand in
           if s <> d then
             ignore
               (Graph.add_arc g ~src:s ~dst:d ~cap:(int_bound 8 rand)
                  ~cost:(int_bound 40 rand - 20))
         done;
         g))
    (fun g ->
       let r1 = Ns.solve g in
       let r2 = Ssp.solve g in
       let st1 = r1.Ns.status = Ns.Optimal and st2 = r2.Ssp.status = Ssp.Optimal in
       if st1 <> st2 then false
       else if not st1 then true
       else
         r1.Ns.total_cost = r2.Ssp.total_cost
         && (match Ns.check_optimality g r1 with Ok () -> true | Error _ -> false))

let prop_pivot_rules_agree =
  QCheck.Test.make ~name:"block-search == first-eligible pivots"
    ~count:100
    (QCheck.make random_small_instance)
    (fun g ->
       let r1 = Ns.solve ~pivot:Ns.Block_search g in
       let r2 = Ns.solve ~pivot:Ns.First_eligible g in
       r1.Ns.status = r2.Ns.status
       && (r1.Ns.status = Ns.Infeasible || r1.Ns.total_cost = r2.Ns.total_cost))

(* ---------- Prng-seeded solver cross-check ---------- *)

(* Same idea as prop_ns_matches_ssp, but driven by the repo's own
   deterministic Mcl_geom.Prng, so the exact instance sequence is
   reproducible from the seed alone (independent of QCheck's state). *)
let prng_instance prng =
  let module Prng = Mcl_geom.Prng in
  let n = Prng.int_in prng 2 10 in
  let g = Graph.create () in
  let supplies = Array.init n (fun _ -> Prng.int_in prng (-4) 4) in
  let total = Array.fold_left ( + ) 0 supplies in
  supplies.(0) <- supplies.(0) - total;
  Array.iter (fun s -> ignore (Graph.add_node g ~supply:s)) supplies;
  for _ = 1 to n * 3 do
    let s = Prng.int prng n and d = Prng.int prng n in
    if s <> d then
      ignore
        (Graph.add_arc g ~src:s ~dst:d ~cap:(Prng.int prng 7)
           ~cost:(Prng.int_in prng (-15) 15))
  done;
  g

let test_prng_solver_cross_check () =
  let prng = Mcl_geom.Prng.create 0xD0C_2018 in
  for i = 1 to 300 do
    let g = prng_instance prng in
    let r1 = Ns.solve g in
    let r2 = Ssp.solve g in
    (match r1.Ns.status, r2.Ssp.status with
     | Ns.Optimal, Ssp.Optimal ->
       if r1.Ns.total_cost <> r2.Ssp.total_cost then
         Alcotest.failf "instance %d: simplex cost %d <> ssp cost %d" i
           r1.Ns.total_cost r2.Ssp.total_cost;
       (match Ns.check_optimality g r1 with
        | Ok () -> ()
        | Error m -> Alcotest.failf "instance %d: %s" i m)
     | Ns.Infeasible, Ssp.Infeasible -> ()
     | st1, _ ->
       Alcotest.failf "instance %d: solvers disagree on feasibility (%s)" i
         (if st1 = Ns.Optimal then "simplex optimal, ssp infeasible"
          else "simplex infeasible, ssp optimal"))
  done

(* ---------- pivot-exact digest ---------- *)

(* The flow tests above compare objectives only, but the row-order
   stage reads the solver's potentials, and matching reads which arcs
   carry the flow: any change to the tableau bookkeeping must leave
   every pivot, and so every output bit, where it was. The digest
   covers [flow], [potential], [total_cost] and [status] under both
   pivot rules on 50 seeded networks: the generator above, plus
   matching- and circulation-shaped graphs with many equal costs
   (ties are where pivot order shows). *)

(* Eq. 3-shaped: source -> lefts -> rights -> sink, identity edges plus
   k extra edges per left, costs from a handful of values. *)
let matching_instance prng =
  let module Prng = Mcl_geom.Prng in
  let n = Prng.int_in prng 4 40 in
  let g = Graph.create () in
  let source = Graph.add_node g ~supply:n in
  let sink = Graph.add_node g ~supply:(-n) in
  let lefts = Array.init n (fun _ -> Graph.add_node g ~supply:0) in
  let rights = Array.init n (fun _ -> Graph.add_node g ~supply:0) in
  Array.iter (fun l -> ignore (Graph.add_arc g ~src:source ~dst:l ~cap:1 ~cost:0)) lefts;
  Array.iter (fun r -> ignore (Graph.add_arc g ~src:r ~dst:sink ~cap:1 ~cost:0)) rights;
  let k = Prng.int_in prng 1 6 in
  for i = 0 to n - 1 do
    ignore
      (Graph.add_arc g ~src:lefts.(i) ~dst:rights.(i) ~cap:1
         ~cost:(1024 * Prng.int prng 4));
    for _ = 1 to k do
      ignore
        (Graph.add_arc g ~src:lefts.(i) ~dst:rights.(Prng.int prng n) ~cap:1
           ~cost:(1024 * Prng.int prng 4))
    done
  done;
  g

(* Eq. 6-9-shaped circulation: a hub, four bound arcs per cell node,
   ordered pair arcs, and the max-displacement pair of hub nodes. *)
let circulation_instance prng =
  let module Prng = Mcl_geom.Prng in
  let n = Prng.int_in prng 3 60 in
  let g = Graph.create () in
  let vz = Graph.add_node g ~supply:0 in
  let nodes = Array.init n (fun _ -> Graph.add_node g ~supply:0) in
  let w = Array.init n (fun _ -> 16 * Prng.int_in prng 1 3) in
  let cap_inf = Array.fold_left ( + ) 1 w in
  let x' = Array.init n (fun i -> 8 * i + Prng.int_in prng (-4) 4) in
  Array.iteri
    (fun i v ->
       let lo = x'.(i) - Prng.int prng 12 and hi = x'.(i) + Prng.int prng 12 in
       ignore (Graph.add_arc g ~src:v ~dst:vz ~cap:w.(i) ~cost:x'.(i));
       ignore (Graph.add_arc g ~src:vz ~dst:v ~cap:w.(i) ~cost:(-x'.(i)));
       ignore (Graph.add_arc g ~src:vz ~dst:v ~cap:cap_inf ~cost:(-lo));
       ignore (Graph.add_arc g ~src:v ~dst:vz ~cap:cap_inf ~cost:hi))
    nodes;
  for i = 0 to n - 2 do
    if Prng.int prng 3 > 0 then
      ignore
        (Graph.add_arc g ~src:nodes.(i) ~dst:nodes.(i + 1) ~cap:cap_inf
           ~cost:(-(2 + Prng.int prng 3)))
  done;
  if Prng.bool prng then begin
    let vp = Graph.add_node g ~supply:0 and vn = Graph.add_node g ~supply:0 in
    let dy = Array.init n (fun _ -> 8 * Prng.int prng 2) in
    Array.iteri
      (fun i v ->
         ignore (Graph.add_arc g ~src:v ~dst:vp ~cap:cap_inf ~cost:(x'.(i) - dy.(i)));
         ignore (Graph.add_arc g ~src:vn ~dst:v ~cap:cap_inf ~cost:(-x'.(i) - dy.(i))))
      nodes;
    let max_dy = Array.fold_left max 0 dy in
    ignore (Graph.add_arc g ~src:vp ~dst:vz ~cap:8 ~cost:max_dy);
    ignore (Graph.add_arc g ~src:vz ~dst:vn ~cap:8 ~cost:max_dy)
  end;
  g

let solution_digest () =
  let prng = Mcl_geom.Prng.create 0x5EED_F10 in
  let graphs =
    List.init 20 (fun _ -> prng_instance prng)
    @ List.init 15 (fun _ -> matching_instance prng)
    @ List.init 15 (fun _ -> circulation_instance prng)
  in
  let buf = Buffer.create 65536 in
  let ints a =
    Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ',') a;
    Buffer.add_char buf ';'
  in
  List.iter
    (fun g ->
       List.iter
         (fun pivot ->
            let r = Ns.solve ~pivot g in
            Buffer.add_string buf
              (if r.Ns.status = Ns.Optimal then "opt;" else "inf;");
            ints r.Ns.flow;
            ints r.Ns.potential;
            ints [| r.Ns.total_cost |])
         [ Ns.Block_search; Ns.First_eligible ])
    graphs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_solution_digest () =
  Alcotest.(check string) "flow, potential and cost digest"
    "52f3e26c682a8b35e5bb4d0e7babcf29"
    (solution_digest ())

(* ---------- matching ---------- *)

let test_matching_identity () =
  let edges =
    List.init 4 (fun i -> Matching.{ left = i; right = i; edge_cost = 0 })
  in
  match Matching.solve ~n:4 ~edges with
  | Error m -> Alcotest.fail m
  | Ok mate -> Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3 |] mate

let test_matching_swap_beneficial () =
  (* two cells, swapping is cheaper *)
  let edges =
    [ Matching.{ left = 0; right = 0; edge_cost = 10 };
      Matching.{ left = 0; right = 1; edge_cost = 1 };
      Matching.{ left = 1; right = 1; edge_cost = 10 };
      Matching.{ left = 1; right = 0; edge_cost = 1 } ]
  in
  match Matching.solve ~n:2 ~edges with
  | Error m -> Alcotest.fail m
  | Ok mate -> Alcotest.(check (array int)) "swapped" [| 1; 0 |] mate

let test_matching_infeasible () =
  let edges = [ Matching.{ left = 0; right = 0; edge_cost = 0 } ] in
  match Matching.solve ~n:2 ~edges with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasible"

let brute_force_matching ~n ~edges =
  (* all permutations of 0..n-1 *)
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  let all = perms (List.init n (fun i -> i)) in
  List.filter_map
    (fun p ->
       let mate = Array.of_list p in
       Matching.assignment_cost ~n ~edges mate)
    all
  |> function
  | [] -> None
  | costs -> Some (List.fold_left min max_int costs)

let prop_matching_optimal =
  QCheck.Test.make ~name:"matching == brute force over permutations"
    ~count:200
    (QCheck.make (fun rand ->
         let open QCheck.Gen in
         let n = 1 + int_bound 4 rand in
         let edges = ref [] in
         (* identity edges guarantee feasibility *)
         for i = 0 to n - 1 do
           edges := Matching.{ left = i; right = i; edge_cost = int_bound 50 rand } :: !edges
         done;
         for _ = 1 to n * 2 do
           let l = int_bound (n - 1) rand and r = int_bound (n - 1) rand in
           edges := Matching.{ left = l; right = r; edge_cost = int_bound 50 rand } :: !edges
         done;
         (n, !edges)))
    (fun (n, edges) ->
       match Matching.solve ~n ~edges, brute_force_matching ~n ~edges with
       | Ok mate, Some best ->
         (match Matching.assignment_cost ~n ~edges mate with
          | Some c -> c = best
          | None -> false)
       | Error _, None -> true
       | _ -> false)

let () =
  Alcotest.run "flow"
    [ ("mcf-hand",
       [ Alcotest.test_case "transportation" `Quick test_transport;
         Alcotest.test_case "negative circulation" `Quick test_negative_circulation;
         Alcotest.test_case "infeasible" `Quick test_infeasible;
         Alcotest.test_case "pivot rules agree" `Quick test_first_eligible_agrees;
         Alcotest.test_case "zero capacity" `Quick test_zero_capacity_arcs ]);
      ("mcf-props",
       [ QCheck_alcotest.to_alcotest prop_ns_matches_brute_force;
         QCheck_alcotest.to_alcotest prop_ns_matches_ssp;
         QCheck_alcotest.to_alcotest prop_pivot_rules_agree;
         Alcotest.test_case "prng-seeded simplex == ssp" `Quick
           test_prng_solver_cross_check;
         Alcotest.test_case "solutions pinned by digest" `Quick
           test_solution_digest ]);
      ("matching",
       [ Alcotest.test_case "identity" `Quick test_matching_identity;
         Alcotest.test_case "beneficial swap" `Quick test_matching_swap_beneficial;
         Alcotest.test_case "infeasible" `Quick test_matching_infeasible;
         QCheck_alcotest.to_alcotest prop_matching_optimal ]) ]
