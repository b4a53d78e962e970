(* Command-line front end: legalize a design from a benchmark file or a
   generated suite entry, with any of the implemented legalizers, and
   report the paper's quality metrics. Also the entry point of the
   static analysis layer: [--lint] runs the pre-flight design linter,
   [--audit] collects the cross-stage invariant audit. *)

open Cmdliner
module Diagnostic = Mcl_analysis.Diagnostic
module Lint = Mcl_analysis.Lint
module Audit = Mcl_analysis.Audit

type algo = Pipeline | Mgl_only | Greedy | Abacus | Mll

let algo_conv =
  Arg.enum
    [ ("pipeline", Pipeline); ("mgl", Mgl_only); ("greedy", Greedy);
      ("abacus", Abacus); ("mll", Mll) ]

let report_format_conv = Arg.enum [ ("pretty", `Pretty); ("json", `Json) ]

let usage_error msg =
  Printf.eprintf "mcl-legalize: %s\n" msg;
  exit 2

let load ~input ~suite ~scale =
  match input, suite with
  | Some path, _ ->
    (match Mcl_bookshelf.Parser.parse_file path with
     | Ok d -> d
     | Error msg -> usage_error (Printf.sprintf "%s: %s" path msg)
     | exception Sys_error msg -> usage_error msg)
  | None, Some name ->
    (match Mcl_gen.Suites.find ~scale name with
     | Some spec -> Mcl_gen.Generator.generate spec
     | None -> usage_error (Printf.sprintf "unknown suite benchmark %S" name))
  | None, None -> Mcl_gen.Generator.generate Mcl_gen.Spec.default

let print_report fmt report =
  match fmt with
  | `Pretty -> Format.printf "%a@." Diagnostic.pp_report report
  | `Json -> print_endline (Diagnostic.to_json report)

(* Lint every generated suite benchmark; the CI gate. Exits nonzero on
   any error-severity finding in any suite. *)
let run_lint_all ~scale =
  let clean = ref true in
  List.iter
    (fun spec ->
       let design = Mcl_gen.Generator.generate spec in
       let report = Lint.run design in
       Format.printf "%-22s %d error(s), %d warning(s), %d info@."
         spec.Mcl_gen.Spec.name
         (Diagnostic.count report Diagnostic.Error)
         (Diagnostic.count report Diagnostic.Warning)
         (Diagnostic.count report Diagnostic.Info);
       if Diagnostic.has_errors report then begin
         clean := false;
         Format.printf "%a@." Diagnostic.pp_report report
       end)
    (Mcl_gen.Suites.all ~scale ());
  exit (if !clean then 0 else 1)

let run input suite scale algo threads shards window_halfwidth window_halfheight
    no_fences no_routability objective_total refine refine_nodes output
    svg_congestion verbose lint lint_all audit =
  if threads <= 0 then
    usage_error (Printf.sprintf "--threads must be >= 1 (got %d)" threads);
  if shards <= 0 then
    usage_error (Printf.sprintf "--shards must be >= 1 (got %d)" shards);
  if scale <= 0.0 then
    usage_error (Printf.sprintf "--scale must be > 0 (got %g)" scale);
  if window_halfwidth <= 0 then
    usage_error
      (Printf.sprintf "--window-halfwidth must be >= 1 (got %d)" window_halfwidth);
  if window_halfheight <= 0 then
    usage_error
      (Printf.sprintf "--window-halfheight must be >= 1 (got %d)" window_halfheight);
  if refine < 0 then
    usage_error (Printf.sprintf "--refine must be >= 0 (got %d)" refine);
  if refine_nodes <= 0 then
    usage_error (Printf.sprintf "--refine-nodes must be >= 1 (got %d)" refine_nodes);
  if lint_all then run_lint_all ~scale;
  let design = load ~input ~suite ~scale in
  (match lint with
   | Some fmt ->
     let report = Lint.run design in
     print_report fmt report;
     exit (if Diagnostic.has_errors report then 1 else 0)
   | None -> ());
  (* json audit output must stay machine-readable: keep stdout clean *)
  let quiet = audit = Some `Json in
  let config =
    { (if objective_total then Mcl.Config.total_displacement else Mcl.Config.default)
      with
      Mcl.Config.threads;
      shards;
      window_halfwidth;
      window_halfheight;
      consider_fences =
        (not no_fences)
        && (if objective_total then false else not no_fences);
      consider_routability =
        (not no_routability)
        && (if objective_total then false else not no_routability) }
  in
  let auditor = Audit.create design in
  let gp_hpwl = Mcl_eval.Metrics.hpwl design in
  let t0 = Unix.gettimeofday () in
  let stage_failure =
    (* with an auditor attached, stage failures become findings instead
       of a crash, so the report below still renders *)
    try
      (match algo with
       | Pipeline ->
         let on_stage stage =
           if audit <> None then
             Audit.record_stage auditor ~stage:(Mcl.Pipeline.stage_name stage)
         in
         let report = Mcl.Pipeline.run ~on_stage config design in
         if verbose && not quiet then
           Format.printf "%a@." Mcl.Pipeline.pp_report report
       | Mgl_only -> ignore (Mcl.Scheduler.run config design)
       | Greedy -> ignore (Mcl.Baseline_greedy.run config design)
       | Abacus -> ignore (Mcl.Baseline_abacus.run config design)
       | Mll -> ignore (Mcl.Scheduler.run ~disp_from:`Current config design));
      (* non-pipeline algos have no stage hooks: audit the end state *)
      (match audit, algo with
       | Some _, (Mgl_only | Greedy | Abacus | Mll) ->
         Audit.record_stage auditor ~stage:"final"
       | _ -> ());
      false
    with
    | Diagnostic.Failed diags when audit <> None ->
      Audit.record auditor diags;
      true
    | Diagnostic.Failed diags ->
      (* no audit requested: still report the typed findings cleanly
         rather than letting the exception escape as a crash *)
      Format.eprintf "mcl-legalize: legalization failed:@.";
      List.iter (fun d -> Format.eprintf "  %a@." Diagnostic.pp d) diags;
      exit 1
  in
  (* exact worst-window refinement rides after the heuristic stages;
     --refine 0 skips this entirely, keeping the pipeline bit-identical *)
  let refine_stats =
    if refine > 0 && not stage_failure then begin
      let ctx =
        Mcl.Mgl.context config design
          ~placement:(Mcl.Placement.of_design design)
      in
      Some (Mcl_exact.Refine.run ~node_budget:refine_nodes ~k:refine ~gp_hpwl ctx)
    end
    else None
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let violations = Mcl_eval.Legality.check design in
  if not quiet then begin
    let score = Mcl_eval.Score.evaluate ~gp_hpwl design in
    Format.printf "design     : %s (%d cells)@." design.Mcl_netlist.Design.name
      (Mcl_netlist.Design.num_cells design);
    Format.printf "legal      : %s@."
      (if stage_failure then "NO (stage failed)"
       else if violations = [] then "yes"
       else Printf.sprintf "NO (%d violations)" (List.length violations));
    Format.printf "avg disp   : %.4f rows@." score.Mcl_eval.Score.avg_disp;
    Format.printf "max disp   : %.1f rows@." score.Mcl_eval.Score.max_disp;
    Format.printf "total disp : %.0f sites@."
      (Mcl_eval.Metrics.total_displacement_sites design);
    Format.printf "hpwl delta : %+.4f@." score.Mcl_eval.Score.s_hpwl;
    Format.printf "pin viol   : %d@." score.Mcl_eval.Score.pin_violations;
    Format.printf "edge viol  : %d@." score.Mcl_eval.Score.edge_violations;
    Format.printf "score S    : %.4f@." score.Mcl_eval.Score.score;
    (match refine_stats with
     | Some r ->
       Format.printf
         "refine     : %d window(s), %d accepted, %d proven, score %.4f -> %.4f@."
         r.Mcl_exact.Refine.windows r.Mcl_exact.Refine.accepted
         r.Mcl_exact.Refine.proven r.Mcl_exact.Refine.score_before
         r.Mcl_exact.Refine.score_after;
       if r.Mcl_exact.Refine.budget_exhausted > 0 then
         Format.printf
           "S320-refine-budget-exhausted: %d window(s) hit the node budget \
            (best-found moves applied, no optimality certificate)@."
           r.Mcl_exact.Refine.budget_exhausted
     | None -> ());
    Format.printf "runtime    : %.2fs@." elapsed
  end;
  let audit_errors =
    match audit with
    | None -> false
    | Some fmt ->
      let report = Audit.report auditor in
      print_report fmt report;
      Diagnostic.has_errors report
  in
  (match output with
   | Some path ->
     Mcl_bookshelf.Writer.write_file path design;
     if not quiet then Format.printf "wrote      : %s@." path
   | None -> ());
  (match svg_congestion with
   | Some path ->
     let cmap =
       Mcl_congest.Congestion.create
         ~bin_sites:config.Mcl.Config.congestion_bin_sites design
     in
     Mcl_eval.Svg_render.write_file ~congestion:cmap path design;
     if not quiet then begin
       let s = Mcl_congest.Congestion.summarize ~top_k:0 cmap in
       Format.printf "congestion : max ovf %.3f, %d overfull bin(s); svg %s@."
         s.Mcl_congest.Congestion.max_overflow
         s.Mcl_congest.Congestion.overfull path
     end
   | None -> ());
  if stage_failure || violations <> [] || audit_errors then exit 1

(* `serve`: the resident ECO legalization service (lib/service). Reads
   newline-delimited JSON requests from stdin (or a Unix-domain socket)
   and answers one response line per request; see README §Service. *)
let run_serve socket threads shards max_batch no_fences no_routability wal_path
    recover_path best_effort max_pending max_designs max_conns snapshot_every
    fault_seed fault_kinds =
  if best_effort && recover_path = None then
    usage_error "--recover-best-effort requires --recover PATH";
  if threads <= 0 then
    usage_error (Printf.sprintf "--threads must be >= 1 (got %d)" threads);
  if shards <= 0 then
    usage_error (Printf.sprintf "--shards must be >= 1 (got %d)" shards);
  if max_batch <= 0 then
    usage_error (Printf.sprintf "--max-batch must be >= 1 (got %d)" max_batch);
  if max_pending <= 0 then
    usage_error (Printf.sprintf "--max-pending must be >= 1 (got %d)" max_pending);
  if max_conns <= 0 then
    usage_error (Printf.sprintf "--max-conns must be >= 1 (got %d)" max_conns);
  (match max_designs with
   | Some n when n < 1 ->
     usage_error (Printf.sprintf "--max-designs must be >= 1 (got %d)" n)
   | _ -> ());
  (match snapshot_every with
   | Some n when n < 1 ->
     usage_error (Printf.sprintf "--snapshot-every must be >= 1 (got %d)" n)
   | Some _ when wal_path = None ->
     usage_error "--snapshot-every requires --wal PATH"
   | _ -> ());
  let faults =
    match fault_kinds with
    | None ->
      if fault_seed <> None then
        usage_error "--fault-seed needs --fault-kinds";
      None
    | Some spec ->
      (match Mcl_resilience.Fault.kinds_of_string spec with
       | Error msg -> usage_error ("--fault-kinds: " ^ msg)
       | Ok kinds ->
         let seed = Option.value fault_seed ~default:1 in
         Some (Mcl_resilience.Fault.create ~seed ~kinds))
  in
  let config =
    { Mcl.Config.default with
      Mcl.Config.threads;
      shards;
      consider_fences = not no_fences;
      consider_routability = not no_routability }
  in
  (* recovery replays with faults disarmed: the journal holds what
     really happened, and replay must reproduce it exactly *)
  if faults <> None && recover_path <> None then
    usage_error "--fault-kinds cannot be combined with --recover";
  let engine =
    Mcl_service.Engine.create ?max_designs ?faults ~config ()
  in
  let recovered_seq =
    match recover_path with
    | None -> 0
    | Some path ->
      let r =
        try Mcl_service.Server.recover ~best_effort engine ~path with
        | Mcl_service.Server.Corrupt_state { code; message; _ } ->
          Printf.eprintf "%s: %s\n%!" code message;
          exit 1
      in
      Printf.eprintf "recovered %d mutation(s) from %s%s%s%s%s%s\n%!"
        r.replayed path
        (if r.snapshot_seq > 0 then
           Printf.sprintf " (snapshot up to seq %d)" r.snapshot_seq
         else "")
        (if r.failed > 0 then Printf.sprintf ", %d failed" r.failed else "")
        (if r.torn_tail > 0 then
           Printf.sprintf ", %d torn tail line(s) dropped" r.torn_tail
         else "")
        (if r.trailing_garbage > 0 then
           Printf.sprintf ", %d corrupt line(s) dropped%s" r.trailing_garbage
             (match r.wal_first_bad_seq with
              | Some s -> Printf.sprintf " (first bad seq %d)" s
              | None -> "")
         else "")
        (if r.snapshot_corrupt > 0 then
           Printf.sprintf ", %d corrupt snapshot line(s) skipped"
             r.snapshot_corrupt
         else "");
      r.snapshot_seq
  in
  let wal =
    Option.map
      (* after snapshot-truncated recovery the journal file may be empty;
         the hint keeps the sequence numbering monotone across restarts *)
      (fun path -> Mcl_resilience.Wal.open_ ~next_seq:(recovered_seq + 1) ~path ())
      wal_path
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Mcl_resilience.Wal.close wal)
    (fun () ->
       Mcl_netserve.Netserve.serve engine ?wal ?wal_path ?faults ~max_pending
         ~max_conns ?snapshot_every ~max_batch
         (match socket with Some path -> `Socket path | None -> `Stdio))

let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket instead of stdin/stdout.")
  in
  let threads =
    Arg.(value & opt int 1
         & info [ "j"; "threads" ]
             ~doc:"Domains for the sharded MGL scheduler's stripe jobs \
                   inside each legalize request; only matters with \
                   --shards >= 2.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Spatial die stripes legalized concurrently inside each \
                   request (>= 2 selects the sharded MGL scheduler; seams \
                   are fixed by die geometry, so results depend on this \
                   value but never on --threads).")
  in
  let max_batch =
    Arg.(value & opt int 64
         & info [ "max-batch" ]
             ~doc:"Upper bound on requests coalesced into one batch.")
  in
  let no_fences = Arg.(value & flag & info [ "no-fences" ] ~doc:"Ignore fences.") in
  let no_rout =
    Arg.(value & flag & info [ "no-routability" ] ~doc:"Ignore routability rules.")
  in
  let wal =
    Arg.(value & opt (some string) None
         & info [ "wal" ] ~docv:"PATH"
             ~doc:"Journal every acknowledged mutation to this write-ahead \
                   log (fsync before responding); an existing journal is \
                   continued after torn-tail repair.")
  in
  let recover =
    Arg.(value & opt (some string) None
         & info [ "recover" ] ~docv:"PATH"
             ~doc:"Replay a write-ahead log before serving, restoring the \
                   pre-crash resident state. Combine with --wal PATH (same \
                   path) to keep journaling after recovery.")
  in
  let best_effort =
    Arg.(value & flag
         & info [ "recover-best-effort" ]
             ~doc:"With --recover: serve the provable prefix of a corrupt \
                   journal or snapshot instead of refusing with \
                   P431-corrupt-journal / S311-corrupt-record. The \
                   corruption flag stays latched in stats/health.")
  in
  let max_pending =
    Arg.(value & opt int 256
         & info [ "max-pending" ]
             ~doc:"Admission-control bound on queued-but-unexecuted \
                   requests; lines past it are answered P429-overloaded.")
  in
  let max_designs =
    Arg.(value & opt (some int) None
         & info [ "max-designs" ] ~docv:"N"
             ~doc:"Bound the resident design cache to N entries; the \
                   least-recently-used entry whose state is already durable \
                   (snapshot-clean, not mid-batch) is evicted when a load \
                   would exceed the bound. Unbounded by default.")
  in
  let max_conns =
    Arg.(value & opt int 64
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Accept at most N concurrent socket connections; further \
                   clients wait in the listen backlog (socket mode only).")
  in
  let snapshot_every =
    Arg.(value & opt (some int) None
         & info [ "snapshot-every" ] ~docv:"N"
             ~doc:"Write an atomic placement snapshot and truncate the \
                   write-ahead log every N journaled mutations, so --recover \
                   replays only the delta since the last snapshot. Requires \
                   --wal.")
  in
  let fault_seed =
    Arg.(value & opt (some int) None
         & info [ "fault-seed" ] ~docv:"N"
             ~doc:"Seed for the deterministic fault-injection plan \
                   (testing; needs --fault-kinds).")
  in
  let fault_kinds =
    Arg.(value & opt (some string) None
         & info [ "fault-kinds" ] ~docv:"LIST"
             ~doc:"Comma-separated fault kinds to inject (e.g. \
                   short-read,eintr,stage-fail:mgl, or 'all'); testing only.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident legalization service (NDJSON request loop; ops: \
             load, legalize, eco, query, lint, audit, stats, shutdown).")
    Term.(const run_serve $ socket $ threads $ shards $ max_batch $ no_fences
          $ no_rout $ wal $ recover $ best_effort $ max_pending $ max_designs
          $ max_conns $ snapshot_every $ fault_seed $ fault_kinds)

let cmd =
  let input =
    Arg.(value & opt (some string) None
         & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Input benchmark file.")
  in
  let suite =
    Arg.(value & opt (some string) None
         & info [ "b"; "benchmark" ] ~docv:"NAME"
             ~doc:"Generate a named suite benchmark (e.g. des_perf_1).")
  in
  let scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~doc:"Suite size multiplier.")
  in
  let algo =
    Arg.(value & opt algo_conv Pipeline
         & info [ "a"; "algo" ] ~doc:"Legalizer: pipeline|mgl|greedy|abacus|mll.")
  in
  let threads =
    Arg.(value & opt int 1
         & info [ "j"; "threads" ]
             ~doc:"Domains for the sharded MGL scheduler's stripe jobs; \
                   only matters with --shards >= 2.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Spatial die stripes legalized concurrently (>= 2 selects \
                   the sharded MGL scheduler: interior cells of all stripes \
                   run in parallel, then a sequential boundary pass). Seams \
                   are fixed by die geometry and fences, so the result \
                   depends on N but never on --threads.")
  in
  let window_halfwidth =
    Arg.(value & opt int Mcl.Config.default.Mcl.Config.window_halfwidth
         & info [ "window-halfwidth" ] ~docv:"SITES"
             ~doc:"Initial MGL insertion window half-width in sites (>= 1).")
  in
  let window_halfheight =
    Arg.(value & opt int Mcl.Config.default.Mcl.Config.window_halfheight
         & info [ "window-halfheight" ] ~docv:"ROWS"
             ~doc:"Initial MGL insertion window half-height in rows (>= 1).")
  in
  let no_fences = Arg.(value & flag & info [ "no-fences" ] ~doc:"Ignore fences.") in
  let no_rout =
    Arg.(value & flag & info [ "no-routability" ] ~doc:"Ignore routability rules.")
  in
  let total =
    Arg.(value & flag
         & info [ "total-displacement" ]
             ~doc:"Optimize total instead of weighted-average displacement \
                   (also disables fences and routability, as in Table 2).")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the legalized design.")
  in
  let svg_congestion =
    Arg.(value & opt (some string) None
         & info [ "svg-congestion" ] ~docv:"FILE"
             ~doc:"Render the final placement with the congestion heat-map \
                   overlay (overfull bins shaded by overflow) to FILE.")
  in
  let refine =
    Arg.(value & opt int 0
         & info [ "refine" ] ~docv:"K"
             ~doc:"After legalizing, re-solve the K worst-displacement \
                   windows exactly (branch-and-bound) and keep \
                   strictly-improving moves; 0 disables the pass and is \
                   bit-identical to the plain pipeline.")
  in
  let refine_nodes =
    Arg.(value & opt int 200_000
         & info [ "refine-nodes" ] ~docv:"N"
             ~doc:"Node budget per refined window; exhausted windows keep \
                   the best assignment found but carry no optimality \
                   certificate (S320).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Stage stats.") in
  let lint =
    Arg.(value
         & opt ~vopt:(Some `Pretty) (some report_format_conv) None
         & info [ "lint" ] ~docv:"FORMAT"
             ~doc:"Run the pre-flight design linter instead of legalizing and \
                   exit nonzero on any error-severity finding; FORMAT is \
                   pretty (default) or json.")
  in
  let lint_all =
    Arg.(value & flag
         & info [ "lint-all" ]
             ~doc:"Lint every generated suite benchmark (at --scale) and exit \
                   nonzero if any has an error-severity finding; the CI gate.")
  in
  let audit =
    Arg.(value
         & opt ~vopt:(Some `Pretty) (some report_format_conv) None
         & info [ "audit" ] ~docv:"FORMAT"
             ~doc:"Audit legality, routability and flow invariants after every \
                   stage and print the diagnostic report; FORMAT is pretty \
                   (default) or json (json prints only the report). Exits \
                   nonzero on error-severity findings.")
  in
  Cmd.group
    ~default:
      Term.(const run $ input $ suite $ scale $ algo $ threads $ shards
            $ window_halfwidth $ window_halfheight $ no_fences $ no_rout
            $ total $ refine $ refine_nodes $ output $ svg_congestion
            $ verbose $ lint $ lint_all $ audit)
    (Cmd.info "mcl-legalize" ~doc:"Mixed-cell-height legalization (DAC'18 reproduction)")
    [ serve_cmd ]

let () = exit (Cmd.eval cmd)
