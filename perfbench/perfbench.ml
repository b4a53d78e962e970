(* The repository benchmark. One run measures one workload in a fresh
   process and prints, as its last stdout line,
     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
   with BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer
   ones (--trace 1), the same on every workload; the lines before it
   show everything the run measured. --workload all runs every
   workload, each in its own process. See perfbench/README.md for what
   each workload and metric is for. *)

open Common

let workloads = [ "table1"; "wide"; "eco_service" ]

let usage =
  "perfbench [--workload table1|wide|eco_service|all] [--seed N] [--seconds S] \
   [--trace 0|1] [--workload-seed N] [--tiny] [--work DIR] [--cli PATH]"

let run_child prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false

let measure opts =
  let roster = Roster.of_workload opts.workload ~tiny:opts.tiny in
  let calib_start = calib_ms () in
  let run_dir =
    Filename.concat opts.work (Printf.sprintf "%s-%d" opts.workload (Unix.getpid ()))
  in
  mkdir_p run_dir;
  (* the generator runs in a child so its memory stays out of this
     process's peak RSS *)
  let gen_args =
    [ "--gen"; run_dir; "--workload"; opts.workload; "--workload-seed";
      string_of_int opts.workload_seed ]
    @ if opts.tiny then [ "--tiny" ] else []
  in
  if not (run_child Sys.executable_name gen_args) then failwith "design generation failed";
  let files = List.map (Roster.file_of run_dir) roster.Roster.specs in
  let o =
    match opts.workload with
    | "eco_service" -> Service.run opts roster ~files ~run_dir
    | _ -> Batch.run opts roster ~files
  in
  let calib_end = calib_ms () in
  (* the reference belongs to this build: a later build of changed code
     may legitimately place differently *)
  let build =
    List.filter Sys.file_exists [ Sys.executable_name; opts.cli ]
    |> List.map Digest.file |> String.concat "" |> Digest.string |> Digest.to_hex
  in
  let key =
    Roster.key ~workload:opts.workload ~workload_seed:opts.workload_seed ~tiny:opts.tiny roster
    ^ "-" ^ String.sub build 0 12
  in
  let reproduced = check_reference opts ~key o.deterministic in
  let layers = o.layers @ [ m "host.calib_ms" "ms" ((calib_start +. calib_end) /. 2.0) ] in
  (* the result line: exactly BENCHMARK.json's metrics *)
  let metrics = if opts.trace then select per_layer layers else select end_to_end o.e2e in
  (* a metric with no samples behind it is nan, which JSON prints as
     null: such a run is not a measurement *)
  let finite = List.for_all (fun x -> Float.is_finite x.value) (o.e2e @ layers) in
  let checks =
    o.checks @ [ ("deterministic_metrics_reproduced", reproduced); ("metrics_finite", finite) ]
  in
  let correct = o.failed = 0 && List.for_all snd checks in
  let meta =
    [ ("workload", Json.String opts.workload);
      ("seed", Json.Int opts.seed);
      ("seconds", Json.Float opts.seconds);
      ("trace", Json.Bool opts.trace) ]
    @ o.meta
    @ [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("git", Json.String (git_revision ()));
        ("host_calib_ms", Json.List [ Json.Float calib_start; Json.Float calib_end ]);
        ("host_speed",
         Json.Obj
           (let raw = List.map snd !speeds in
            [ ("samples", Json.Int (List.length raw));
              ("min", Json.Float (quantile raw 0.0));
              ("median", Json.Float (median raw));
              ("max", Json.Float (quantile raw 1.0)) ])) ]
  in
  Printf.printf "perfbench %s\n" (Json.to_string (Json.Obj meta));
  print_table "end-to-end:" o.e2e;
  if o.layers <> [] then print_table "per-layer:" layers;
  Printf.printf "checks: %s\n"
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "%s=%b" n ok) checks));
  let record =
    Json.Obj
      [ ("meta", Json.Obj meta);
        ("correct", Json.Bool correct);
        ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) checks));
        ("end_to_end", metric_json o.e2e);
        ("per_layer", metric_json layers);
        ("deterministic", Json.Obj o.deterministic) ]
  in
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append ] 0o644
    (Filename.concat opts.work "results.jsonl")
    (fun oc -> output_string oc (Json.to_string record ^ "\n"));
  rm_rf run_dir;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", metric_json metrics) ]))

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0
  and workload_seed = ref 0 and tiny = ref false and work = ref "perfbench/_work"
  and cli = ref "_build/default/bin/legalize_cli.exe" and gen = ref None in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME table1, wide, eco_service or all");
      ("--seed", Arg.Set_int seed, "N run seed (reorders work; designs are unchanged)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics instead");
      ("--workload-seed", Arg.Set_int workload_seed,
       "N shift every design seed and the ECO trace (default 0)");
      ("--tiny", Arg.Set tiny, " test-sized inputs");
      ("--work", Arg.Set_string work, "DIR scratch and reference directory");
      ("--cli", Arg.Set_string cli, "PATH legalize_cli.exe to serve with");
      ("--gen", Arg.String (fun d -> gen := Some d), "DIR (internal) write the designs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload ("all" :: workloads)) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace is 0 or 1";
    exit 2
  end;
  match !gen with
  | Some dir ->
    Roster.generate (Roster.of_workload !workload ~tiny:!tiny) ~workload_seed:!workload_seed ~dir
  | None when !workload = "all" ->
    let ok =
      List.map
        (fun w ->
           run_child Sys.executable_name
             (List.concat_map
                (fun (k, v) -> [ k; v ])
                [ ("--workload", w); ("--seed", string_of_int !seed);
                  ("--seconds", string_of_float !seconds); ("--trace", string_of_int !trace);
                  ("--workload-seed", string_of_int !workload_seed); ("--work", !work);
                  ("--cli", !cli) ]
              @ if !tiny then [ "--tiny" ] else []))
        workloads
      |> List.for_all Fun.id
    in
    exit (if ok then 0 else 1)
  | None ->
    mkdir_p !work;
    measure
      { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
        workload_seed = !workload_seed; tiny = !tiny; work = !work; cli = !cli }
