type edge = { left : int; right : int; edge_cost : int }

let solve ~n ~edges =
  if n = 0 then Ok [||]
  else begin
    let g = Graph.create () in
    let source = Graph.add_node g ~supply:n in
    let sink = Graph.add_node g ~supply:(-n) in
    let lefts = Array.init n (fun _ -> Graph.add_node g ~supply:0) in
    let rights = Array.init n (fun _ -> Graph.add_node g ~supply:0) in
    Array.iter (fun l -> ignore (Graph.add_arc g ~src:source ~dst:l ~cap:1 ~cost:0)) lefts;
    Array.iter (fun r -> ignore (Graph.add_arc g ~src:r ~dst:sink ~cap:1 ~cost:0)) rights;
    let edge_arcs =
      List.map
        (fun e ->
           if e.left < 0 || e.left >= n || e.right < 0 || e.right >= n then
             invalid_arg "Matching.solve: edge endpoint out of range";
           (e, Graph.add_arc g ~src:lefts.(e.left) ~dst:rights.(e.right) ~cap:1
              ~cost:e.edge_cost))
        edges
    in
    let r = Network_simplex.solve g in
    match r.Network_simplex.status with
    | Network_simplex.Infeasible ->
      Error "no perfect matching within candidate edges"
    | Network_simplex.Optimal ->
      let mate = Array.make n (-1) in
      List.iter
        (fun (e, a) ->
           if r.Network_simplex.flow.(a) > 0 then mate.(e.left) <- e.right)
        edge_arcs;
      if Array.exists (fun x -> x < 0) mate then
        Error "incomplete matching (internal error)"
      else Ok mate
  end

let assignment_cost ~n ~edges mate =
  let tbl = Hashtbl.create (2 * n) in
  List.iter
    (fun e ->
       let key = (e.left, e.right) in
       match Hashtbl.find_opt tbl key with
       | Some c when c <= e.edge_cost -> ()
       | _ -> Hashtbl.replace tbl key e.edge_cost)
    edges;
  let total = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun l r ->
       match Hashtbl.find_opt tbl (l, r) with
       | Some c -> total := !total + c
       | None -> ok := false)
    mate;
  if !ok then Some !total else None
