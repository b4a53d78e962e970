(* The paper's Sec. 3.5 claim: the batch scheduler is deterministic by
   construction — windows in one round are pairwise disjoint, so
   computing every candidate and then applying them in order is
   bit-identical to the sequential run. The round-batched path runs on
   one domain; the threads 1 vs 4 case pins that [Config.threads]
   cannot leak into it, on a PRNG-seeded suite. Plus batch formation
   against the quadratic scan, and the run_jobs pool
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

(* The reference split: each window against every window already in
   the batch. *)
let reference_batch windows =
  let batch = ref [] in
  Array.map
    (fun w ->
       if List.exists (fun q -> Mcl_geom.Rect.overlaps q w) !batch then false
       else begin
         batch := w :: !batch;
         true
       end)
    windows

(* Rounds of window sequences as the scheduler makes them (clipped to
   the die), plus windows that straddle or leave it, empty windows
   anywhere, and the die itself. *)
let gen_windows =
  let pp_round ppf ws =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Mcl_geom.Rect.pp)
      (Array.to_list ws)
  in
  QCheck.make
    ~print:(fun (die, rounds) ->
        Format.asprintf "die %a: %a" Mcl_geom.Rect.pp die
          (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_round)
          rounds)
    (fun rand ->
       let open QCheck.Gen in
       let die =
         Mcl_geom.Rect.make ~xl:0 ~yl:0 ~xh:(1 + int_bound 700 rand)
           ~yh:(1 + int_bound 100 rand)
       in
       let dw = Mcl_geom.Rect.width die and dh = Mcl_geom.Rect.height die in
       let window () =
         match int_bound 9 rand with
         | 0 -> die
         | 1 ->
           let x = int_bound (dw + 20) rand - 10 and y = int_bound (dh + 20) rand - 10 in
           Mcl_geom.Rect.make ~xl:x ~yl:y ~xh:x ~yh:(y + int_bound 5 rand)
         | 2 -> Mcl_geom.Rect.inter die (Mcl_geom.Rect.make ~xl:(dw + 5) ~yl:0 ~xh:(dw + 9) ~yh:dh)
         | 3 ->
           let x = int_bound (dw + 200) rand - 100 and y = int_bound (dh + 40) rand - 20 in
           Mcl_geom.Rect.make ~xl:x ~yl:y ~xh:(x + 1 + int_bound 150 rand)
             ~yh:(y + 1 + int_bound 30 rand)
         | _ ->
           let x = int_bound dw rand - 30 and y = int_bound dh rand - 4 in
           Mcl_geom.Rect.inter die
             (Mcl_geom.Rect.make ~xl:x ~yl:y ~xh:(x + 1 + int_bound 90 rand)
                ~yh:(y + 1 + int_bound 12 rand))
       in
       ( die,
         List.init (1 + int_bound 3 rand) (fun _ ->
             Array.init (int_bound 80 rand) (fun _ -> window ())) ))

(* One round of [greedy_batch] over window indices, as the scheduler
   calls it: [len] live items at the front of a longer array (the -1
   past them must never be read), split into batch and rest. Both must
   be the reference's split, each in input order. *)
let batch_matches occ windows =
  let n = Array.length windows in
  let items = Array.init (n + 1) (fun i -> if i < n then i else -1) in
  let batch = Array.make n (-1) and rest = Array.make n (-1) in
  let nb =
    Mcl.Scheduler.greedy_batch occ ~window:(Array.get windows) items n ~batch
      ~rest
  in
  let joins = reference_batch windows in
  let split want =
    List.filter (fun i -> joins.(i) = want) (List.init n Fun.id)
  in
  Array.to_list (Array.sub batch 0 nb) = split true
  && Array.to_list (Array.sub rest 0 (n - nb)) = split false

(* one grid for all rounds, as in a scheduler run *)
let prop_greedy_batch =
  QCheck.Test.make ~name:"greedy_batch == quadratic scan" ~count:500 gen_windows
    (fun (die, rounds) ->
       let occ = Mcl.Scheduler.occupancy ~die in
       List.for_all (batch_matches occ) rounds)

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
      ("batch", [ QCheck_alcotest.to_alcotest prop_greedy_batch ]);
      ("pool", [ Alcotest.test_case "run_jobs" `Quick test_run_jobs_pool ]) ]
