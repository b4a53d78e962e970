type t = {
  mutable n : int;
  mutable supplies : int array;
  mutable m : int;
  mutable a_src : int array;
  mutable a_dst : int array;
  mutable a_cap : int array;
  mutable a_cost : int array;
}

type arc = int

let create () =
  { n = 0; supplies = Array.make 8 0; m = 0;
    a_src = Array.make 16 0; a_dst = Array.make 16 0;
    a_cap = Array.make 16 0; a_cost = Array.make 16 0 }

let grow arr len =
  let bigger = Array.make (max 16 (2 * Array.length arr)) 0 in
  Array.blit arr 0 bigger 0 len;
  bigger

let add_node t ~supply =
  if t.n = Array.length t.supplies then t.supplies <- grow t.supplies t.n;
  t.supplies.(t.n) <- supply;
  t.n <- t.n + 1;
  t.n - 1

let add_arc t ~src ~dst ~cap ~cost =
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Graph.add_arc: unknown endpoint";
  if t.m = Array.length t.a_src then begin
    t.a_src <- grow t.a_src t.m;
    t.a_dst <- grow t.a_dst t.m;
    t.a_cap <- grow t.a_cap t.m;
    t.a_cost <- grow t.a_cost t.m
  end;
  t.a_src.(t.m) <- src;
  t.a_dst.(t.m) <- dst;
  t.a_cap.(t.m) <- cap;
  t.a_cost.(t.m) <- cost;
  t.m <- t.m + 1;
  t.m - 1

let num_nodes t = t.n
let num_arcs t = t.m
let supply t i = t.supplies.(i)
let src t a = t.a_src.(a)
let dst t a = t.a_dst.(a)
let cap t a = t.a_cap.(a)
let cost t a = t.a_cost.(a)

let arcs_arrays t =
  (Array.sub t.a_src 0 t.m, Array.sub t.a_dst 0 t.m,
   Array.sub t.a_cap 0 t.m, Array.sub t.a_cost 0 t.m)
