(* The benchmark's own tests: a tiny-input run of each workload prints,
   as the last stdout line, exactly the metrics BENCHMARK.json lists,
   each with its unit and a finite value; fails nothing; and two runs
   with different run seeds give identical deterministic metrics. *)

module Json = Mcl_service.Json

let workloads = [ "table1"; "wide"; "eco_service" ]

let get = function Some x -> x | None -> Alcotest.fail "missing field"

(* The (name, unit) pairs of one of BENCHMARK.json's metric lists. *)
let listed key =
  let j =
    match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  List.map
    (fun m -> (get (Json.get_string "name" m), get (Json.get_string "unit" m)))
    (get (Json.get_list key j))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Run one tiny measurement; the last stdout line and the run's record. *)
let work workload = "work-" ^ workload

let run ?(trace = 0) ~seed workload =
  let work = work workload in
  let ic =
    Unix.open_process_args_in "../perfbench.exe"
      [| "../perfbench.exe"; "--workload"; workload; "--tiny"; "--seconds"; "0.3";
         "--seed"; string_of_int seed; "--trace"; string_of_int trace; "--work"; work;
         "--cli"; "../../bin/legalize_cli.exe" |]
  in
  let lines = In_channel.input_lines ic in
  Alcotest.(check bool) "exit 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let parse s = match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let last = parse (List.nth lines (List.length lines - 1)) in
  let records = In_channel.with_open_bin (Filename.concat work "results.jsonl") In_channel.input_lines in
  (last, parse (List.nth records (List.length records - 1)))

let names_units j =
  match j with
  | Json.Obj kv ->
    List.sort compare
      (List.map (fun (k, v) -> (k, get (Json.get_string "unit" v))) kv)
  | _ -> Alcotest.fail "metrics is not an object"

let check_result ~expected (last, _) =
  (match last with
   | Json.Obj kv ->
     Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
       (List.map fst kv)
   | _ -> Alcotest.fail "result is not an object");
  Alcotest.(check (option bool)) "correct" (Some true) (Json.get_bool "correct" last);
  Alcotest.(check (option int)) "failed" (Some 0) (Json.get_int "failed" last);
  Alcotest.(check bool) "attempted" true (get (Json.get_int "attempted" last) >= 1);
  let metrics = get (Json.member "metrics" last) in
  Alcotest.(check (list (pair string string))) "metric names and units"
    (List.sort compare expected) (names_units metrics);
  (* a metric with nothing behind it prints as null *)
  match metrics with
  | Json.Obj kv ->
    List.iter
      (fun (name, v) ->
         match Json.get_float "value" v with
         | Some x when Float.is_finite x -> ()
         | _ -> Alcotest.failf "%s is not a finite number" name)
      kv
  | _ -> ()

let e2e_case workload =
  Alcotest.test_case workload `Slow (fun () ->
      (* a fresh work directory: the first run writes the reference the
         later ones (traced included) must reproduce *)
      rm_rf (work workload);
      let a = run ~seed:3 workload in
      let b = run ~seed:4 workload in
      check_result ~expected:(listed "end_to_end") a;
      check_result ~expected:(listed "end_to_end") b;
      let failed_share =
        Option.bind (Json.member "end_to_end" (snd a)) (Json.member "failed_share")
        |> Option.map (fun j -> get (Json.get_float "value" j))
      in
      Alcotest.(check (option (float 0.0))) "failed_share" (Some 0.0) failed_share;
      (* every kind of closed-loop request has samples behind its
         percentiles *)
      if workload = "eco_service" then
        List.iter
          (fun key ->
             let n = get (Option.bind (Json.member "meta" (snd a)) (Json.get_int key)) in
             Alcotest.(check bool) (key ^ " >= 1") true (n >= 1))
          [ "eco_samples"; "query_samples"; "refine_samples" ];
      let det (_, r) = Json.to_string (get (Json.member "deterministic" r)) in
      Alcotest.(check string) "deterministic metrics across run seeds" (det a) (det b))

let traced_case workload =
  Alcotest.test_case workload `Slow (fun () ->
      check_result ~expected:(listed "per_layer") (run ~trace:1 ~seed:5 workload))

let () =
  Alcotest.run "perfbench"
    [ ("end-to-end", List.map e2e_case workloads);
      ("traced", List.map traced_case workloads) ]
