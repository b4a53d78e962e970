(* The paper's Sec. 3.5 claim: the batch scheduler is deterministic by
   construction — windows in one round are pairwise disjoint, so
   computing every candidate and then applying them in order is
   bit-identical to the sequential run. The round-batched path runs on
   one domain; the threads 1 vs 4 case pins that [Config.threads]
   cannot leak into it, on a PRNG-seeded suite. Plus the run_jobs pool
   itself (the sharded path's and the service's dispatcher). *)

open Mcl_netlist

let spec seed =
  { Mcl_gen.Spec.default with
    Mcl_gen.Spec.seed;
    num_cells = 500;
    density = 0.6;
    height_mix = [ (1, 0.6); (2, 0.25); (3, 0.1); (4, 0.05) ];
    num_fences = 2;
    fence_cell_frac = 0.15;
    name = Printf.sprintf "det%d" seed }

let placements_equal a b =
  Array.for_all2 (fun (x1, y1) (x2, y2) -> x1 = x2 && y1 = y2) a b

let test_threads_bit_identical () =
  List.iter
    (fun seed ->
       let d1 = Mcl_gen.Generator.generate (spec seed) in
       let d4 = Mcl_gen.Generator.generate (spec seed) in
       let s1 =
         Mcl.Scheduler.run { Mcl.Config.default with Mcl.Config.threads = 1 } d1
       in
       let s4 =
         Mcl.Scheduler.run { Mcl.Config.default with Mcl.Config.threads = 4 } d4
       in
       Alcotest.(check int)
         (Printf.sprintf "seed %d: same legalized count" seed)
         s1.Mcl.Scheduler.legalized s4.Mcl.Scheduler.legalized;
       Alcotest.(check int)
         (Printf.sprintf "seed %d: same rounds" seed)
         s1.Mcl.Scheduler.rounds s4.Mcl.Scheduler.rounds;
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: bit-identical placement" seed)
         true
         (placements_equal (Design.snapshot d1) (Design.snapshot d4));
       Alcotest.(check bool)
         (Printf.sprintf "seed %d: legal" seed)
         true (Mcl_eval.Legality.is_legal d4))
    [ 17; 42; 99 ]

let test_run_jobs_pool () =
  (* every job runs exactly once, regardless of pool width *)
  List.iter
    (fun threads ->
       let n = 37 in
       let hits = Array.make n 0 in
       let lock = Mutex.create () in
       Mcl.Scheduler.run_jobs ~threads
         (List.init n (fun i () ->
              Mutex.lock lock;
              hits.(i) <- hits.(i) + 1;
              Mutex.unlock lock));
       Alcotest.(check bool)
         (Printf.sprintf "threads=%d: each job once" threads)
         true
         (Array.for_all (fun h -> h = 1) hits))
    [ 1; 2; 8 ];
  (* empty and singleton lists are fine *)
  Mcl.Scheduler.run_jobs ~threads:4 [];
  let ran = ref false in
  Mcl.Scheduler.run_jobs ~threads:4 [ (fun () -> ran := true) ];
  Alcotest.(check bool) "single job inline" true !ran;
  (* a raising job surfaces after the pool drains *)
  (match Mcl.Scheduler.run_jobs ~threads:2 [ (fun () -> failwith "boom") ] with
   | () -> Alcotest.fail "exception swallowed"
   | exception Failure msg -> Alcotest.(check string) "reraised" "boom" msg)

let () =
  Alcotest.run "scheduler"
    [ ("determinism",
       [ Alcotest.test_case "threads bit-identical" `Slow
           test_threads_bit_identical ]);
      ("pool", [ Alcotest.test_case "run_jobs" `Quick test_run_jobs_pool ]) ]
