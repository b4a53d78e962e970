open Mcl_netlist
module Diagnostic = Mcl_analysis.Diagnostic
module Lint = Mcl_analysis.Lint
module Audit = Mcl_analysis.Audit
module Budget = Mcl_resilience.Budget
module Fault = Mcl_resilience.Fault

type t = {
  cache : Cache.t;
  telemetry : Telemetry.t;
  config : Mcl.Config.t;
  faults : Fault.t option;
  mutable shutdown : bool;
}

(* each design's idempotency window: the last [dedup_window]
   acknowledged [req_id]s are retriable as no-ops *)
let dedup_window = 64

let create ?max_designs ?faults ~config () =
  { cache = Cache.create ?max_designs ();
    telemetry = Telemetry.create ();
    config;
    faults;
    shutdown = false }

let telemetry t = t.telemetry

let cache t = t.cache

let note_evicted t = function
  | [] -> ()
  | evicted -> Telemetry.add t.telemetry Cache_evictions (List.length evicted)

(* Called by the servers at durability points: after a snapshot, or
   after every batch when no journal is configured (nothing
   acknowledged can then outlive the process anyway, so eviction loses
   nothing recovery could have used). Marking entries clean is what
   lets the LRU bound actually evict them. *)
let mark_cache_clean t =
  let evicted = Cache.mark_all_clean t.cache in
  note_evicted t evicted;
  evicted

let shutdown_requested t = t.shutdown

(* ---------------------------------------------------------------- *)
(* Small helpers                                                     *)
(* ---------------------------------------------------------------- *)

(* All engine timing goes through the (possibly skewed) fault clock so
   Clock_skew surfaces everywhere a deadline or a metric is taken. *)
let now t = Fault.now t.faults

let budget_of t (req : Protocol.request) =
  match req.Protocol.deadline_ms with
  | None -> None
  | Some ms ->
    Some
      (Budget.of_deadline_ms
         ~clock:(fun () -> Fault.now t.faults)
         ~received:req.Protocol.received ms)

(* Forced stage failure: a deterministic, structured crash at a named
   stage, exercising exactly the rollback path a real stage bug would. *)
let inject_stage t ~stage =
  if Fault.stage_fail t.faults ~stage then
    Diagnostic.fail
      [ Diagnostic.error ~code:"S390-injected-fault" ~stage
          (Printf.sprintf "injected fault: stage %S forced to fail" stage) ]

let mk_metrics ?(work = Mcl.Arena.zero_counters) ~req ~started ~finished
    ~cells ~disp ~coalesced () =
  { Protocol.queue_wait_s = Float.max 0.0 (started -. req.Protocol.received);
    service_s = finished -. started;
    cells_touched = cells;
    disp_delta_rows = disp;
    coalesced;
    cuts_evaluated = work.Mcl.Arena.cuts_evaluated;
    cuts_pruned = work.Mcl.Arena.cuts_pruned }

(* one budget expiry; [degraded] when the greedy fallback answered *)
let note_deadline t ~degraded =
  Telemetry.add t.telemetry Deadline_exceeded 1;
  if degraded then Telemetry.add t.telemetry Degraded 1

let note_kernel t (k : Mcl.Arena.counters) =
  Telemetry.add t.telemetry Windows_built k.Mcl.Arena.windows_built;
  Telemetry.add t.telemetry Cuts_evaluated k.Mcl.Arena.cuts_evaluated;
  Telemetry.add t.telemetry Cuts_pruned k.Mcl.Arena.cuts_pruned

let account t resp ~op =
  let m = resp.Protocol.metrics in
  Telemetry.record t.telemetry ~op
    ~ok:(Result.is_ok resp.Protocol.result)
    ~wait_s:(match m with Some m -> m.Protocol.queue_wait_s | None -> 0.0)
    ~service_s:(match m with Some m -> m.Protocol.service_s | None -> 0.0)
    ~cells:(match m with Some m -> m.Protocol.cells_touched | None -> 0)
    ~coalesced_extra:
      (match m with Some m -> max 0 (m.Protocol.coalesced - 1) | None -> 0);
  resp

(* Snapshot rollback, for the mutations that may move any cell
   (legalize, refine): positions and anchors both roll back, so a
   half-applied failed mutation leaves the entry bit-identical. An eco
   rolls back from its own undo log instead (see [Mcl.Eco]). *)
let transactional (entry : Cache.entry) f =
  let pos = Design.snapshot entry.Cache.design in
  let anchors = Design.snapshot_anchors entry.Cache.design in
  try f ()
  with e ->
    Design.restore entry.Cache.design pos;
    Design.restore_anchors entry.Cache.design anchors;
    raise e

let error_of_exn ?metrics ~id ~op exn =
  match exn with
  | Budget.Deadline_exceeded { elapsed_s; budget_s } ->
    Protocol.error ?metrics ~id ~op ~code:"P430-deadline-exceeded"
      (Printf.sprintf
         "budget of %.0f ms exhausted after %.0f ms; design rolled back"
         (budget_s *. 1000.) (elapsed_s *. 1000.))
  | Diagnostic.Failed diags ->
    let code =
      match diags with
      | d :: _ -> d.Diagnostic.code
      | [] -> "S300-stage-failed"
    in
    let message =
      match diags with
      | d :: _ -> d.Diagnostic.message
      | [] -> "stage failed"
    in
    Protocol.error ~diagnostics:diags ?metrics ~id ~op ~code message
  | exn ->
    Protocol.error ?metrics ~id ~op ~code:"P500-internal-error"
      (Printexc.to_string exn)

module Congestion = Mcl_congest.Congestion

(* The entry's congestion map, built lazily on first use and kept
   incrementally current afterwards (eco syncs it from the position
   diff; a full legalize rebuilds it). *)
let congest_of t (entry : Cache.entry) =
  match entry.Cache.congest with
  | Some m -> m
  | None ->
    let m =
      Congestion.create ~bin_sites:t.config.Mcl.Config.congestion_bin_sites
        entry.Cache.design
    in
    entry.Cache.congest <- Some m;
    m

(* The entry's resident insertion context, built on first use. A
   successful eco or refine leaves it current. *)
let ctx_of t (entry : Cache.entry) =
  match entry.Cache.ctx with
  | Some ctx -> ctx
  | None ->
    let ctx = Mcl.Eco.context t.config entry.Cache.design in
    entry.Cache.ctx <- Some ctx;
    ctx

(* Any failed mutation drops the resident context: the design has been
   rolled back, the context's placement has not. *)
let dropping_ctx (entry : Cache.entry) f =
  try f ()
  with e ->
    entry.Cache.ctx <- None;
    raise e

(* Patch the tracked congestion map from the cells the last eco or
   refine moved (their first logged positions). *)
let sync_congestion (entry : Cache.entry) =
  match (entry.Cache.congest, entry.Cache.ctx) with
  | Some m, Some ctx -> Congestion.sync m ~moved:(Mcl.Insertion.moved ctx)
  | _ -> ()

let congestion_json (s : Congestion.summary) =
  Json.Obj
    [ ("bins", Json.Int s.Congestion.bins);
      ("max_overflow", Json.Float s.Congestion.max_overflow);
      ("avg_overflow", Json.Float s.Congestion.avg_overflow);
      ("overfull_bins", Json.Int s.Congestion.overfull);
      ("max_pin_density", Json.Float s.Congestion.max_pin_density);
      ("hotspots",
       Json.List
         (List.map
            (fun (h : Congestion.hotspot) ->
               Json.Obj
                 [ ("bx", Json.Int h.Congestion.bx);
                   ("by", Json.Int h.Congestion.by);
                   ("overflow", Json.Float h.Congestion.hs_overflow);
                   ("wire_density", Json.Float h.Congestion.hs_wire);
                   ("pin_density", Json.Float h.Congestion.hs_pins) ])
            s.Congestion.hotspots)) ]

let report_json report =
  Json.Obj
    [ ("design", Json.String report.Diagnostic.design);
      ("summary",
       Json.Obj
         [ ("error", Json.Int (Diagnostic.count report Diagnostic.Error));
           ("warning", Json.Int (Diagnostic.count report Diagnostic.Warning));
           ("info", Json.Int (Diagnostic.count report Diagnostic.Info)) ]);
      ("diagnostics",
       Json.List (List.map Protocol.json_of_diag report.Diagnostic.items)) ]

(* ---------------------------------------------------------------- *)
(* Op implementations                                                *)
(* ---------------------------------------------------------------- *)

let total_disp_rows = Mcl_eval.Metrics.total_displacement_rows

(* Arm the idempotency window for every token a successful mutation
   settled: the client's own [req_id], plus (on WAL replay of a merged
   record) each member token folded into [replay_ids]. The stored
   response is wal-stripped — a replayed answer must never be
   journaled again. Errors are not registered: an unacknowledged
   request is free to retry for real. *)
let register_dedup (entry : Cache.entry) (req : Protocol.request) resp =
  match resp.Protocol.result with
  | Error _ -> ()
  | Ok _ ->
    (match
       (match req.Protocol.req_id with Some r -> [ r ] | None -> [])
       @ req.Protocol.replay_ids
     with
     | [] -> ()
     | ids ->
       let stored = { resp with Protocol.wal = None } in
       List.iter
         (fun rid -> Cache.dedup_add ~window:dedup_window entry rid stored)
         ids)

let exec_load t req ~key ~source =
  let started = now t in
  let id = req.Protocol.id in
  match
    (match source with
     | Protocol.Suite { name; scale } ->
       (match Mcl_gen.Suites.find ~scale name with
        | Some spec -> Ok (Mcl_gen.Generator.generate spec, "suite:" ^ name)
        | None ->
          Error ("P405-unknown-suite", Printf.sprintf "unknown suite benchmark %S" name))
     | Protocol.File path ->
       (match Mcl_bookshelf.Parser.parse_file path with
        | Ok d -> Ok (d, "file:" ^ path)
        | Error msg -> Error ("P406-load-failed", Printf.sprintf "%s: %s" path msg)
        | exception Sys_error msg -> Error ("P406-load-failed", msg))
     | Protocol.Generated { cells; seed } ->
       let spec =
         { Mcl_gen.Spec.default with
           Mcl_gen.Spec.name = key;
           num_cells =
             Option.value cells ~default:Mcl_gen.Spec.default.Mcl_gen.Spec.num_cells;
           seed = Option.value seed ~default:Mcl_gen.Spec.default.Mcl_gen.Spec.seed }
       in
       Ok (Mcl_gen.Generator.generate spec, "generated"))
  with
  | Error (code, message) ->
    let finished = now t in
    Protocol.error ~id ~op:"load" ~code
      ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
      message
  | Ok (design, source_name) ->
    let gp_hpwl = Mcl_eval.Metrics.hpwl design in
    let wire = Protocol.to_wire req ~greedy:false in
    let entry =
      { Cache.key; design; gp_hpwl; source = source_name;
        load_wire = wire; loaded_at = started; legalized = false;
        eco_count = 0; congest = None; ctx = None; refine = None; dirty = true;
        last_used = 0; dedup = [] }
    in
    note_evicted t (Cache.put t.cache entry);
    let finished = now t in
    let resp =
      Protocol.ok ~id ~op:"load" ~wal:wire
        ~metrics:
          (mk_metrics ~req ~started ~finished ~cells:(Design.num_cells design)
             ~disp:0.0 ~coalesced:1 ())
        (Json.Obj
           [ ("design", Json.String key);
             ("cells", Json.Int (Design.num_cells design));
             ("source", Json.String source_name);
             ("gp_hpwl", Json.Int gp_hpwl) ])
    in
    register_dedup entry req resp;
    resp

let exec_legalize t (entry : Cache.entry) req ~greedy:greedy_op =
  let started = now t in
  let id = req.Protocol.id in
  let design = entry.Cache.design in
  let before_disp = total_disp_rows design in
  (* every variant may move any cell, and a failure restores from the
     snapshot: the resident context is rebuilt by the next eco *)
  entry.Cache.ctx <- None;
  (* common tail of every successful variant (full, greedy, degraded):
     refresh legality/congestion state, journal what was applied *)
  let finish ?work ~degraded mode_fields =
    let violations = Mcl_eval.Legality.check design in
    entry.Cache.legalized <- violations = [];
    entry.Cache.dirty <- true;
    (* a fresh legalization invalidates any previous refine summary *)
    entry.Cache.refine <- None;
    (* a full pipeline moves most cells: rebuilding the tracked map is
       cheaper than diffing it move by move *)
    Option.iter Congestion.rebuild entry.Cache.congest;
    (* A legalization leaves megabytes of dead scratch (windows, flow
       networks) that the resident server never touches again. Left to
       the major GC's pacing, it is collected while later queries and
       refines grow the heap, so the server's peak RSS depends on where
       those cycles happen to fall. Collecting it here, at the end of
       the bulk request, keeps the peak at what the resident designs
       hold. *)
    Gc.full_major ();
    if degraded then note_deadline t ~degraded:true;
    Option.iter (note_kernel t) work;
    let finished = now t in
    Protocol.ok ~id ~op:"legalize"
      ~wal:(Protocol.to_wire req ~greedy:(greedy_op || degraded))
      ~metrics:
        (mk_metrics ?work ~req ~started ~finished
           ~cells:(Design.num_cells design)
           ~disp:(total_disp_rows design -. before_disp)
           ~coalesced:1 ())
      (Json.Obj
         ([ ("design", Json.String entry.Cache.key);
            ("legal", Json.Bool (violations = []));
            ("violations", Json.Int (List.length violations)) ]
          @ mode_fields))
  in
  let fail ?(deadline = false) exn =
    if deadline then note_deadline t ~degraded:false;
    let finished = now t in
    error_of_exn ~id ~op:"legalize" exn
      ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
  in
  let run_greedy ~degraded () =
    match
      transactional entry (fun () -> Mcl.Baseline_greedy.run t.config design)
    with
    | stats ->
      finish ~degraded
        [ ("mode", Json.String "greedy");
          ("degraded", Json.Bool degraded);
          ("greedy_legalized", Json.Int stats.Mcl.Baseline_greedy.legalized) ]
    | exception exn -> fail exn
  in
  if greedy_op then run_greedy ~degraded:false ()
  else
    let budget = budget_of t req in
    match
      transactional entry (fun () ->
          let on_stage stage =
            inject_stage t ~stage:(Mcl.Pipeline.stage_name stage)
          in
          Mcl.Pipeline.run ~on_stage ?budget t.config design)
    with
    | report ->
      let mgl = report.Mcl.Pipeline.mgl_stats in
      let k = mgl.Mcl.Scheduler.kernel in
      finish ~work:k ~degraded:false
        [ ("mode", Json.String "full");
          ("mgl",
           Json.Obj
             [ ("legalized", Json.Int mgl.Mcl.Scheduler.legalized);
               ("rounds", Json.Int mgl.Mcl.Scheduler.rounds);
               ("window_growths", Json.Int mgl.Mcl.Scheduler.window_growths);
               ("fallbacks", Json.Int mgl.Mcl.Scheduler.fallbacks);
               ("windows_built", Json.Int k.Mcl.Arena.windows_built);
               ("cuts_evaluated", Json.Int k.Mcl.Arena.cuts_evaluated);
               ("cuts_pruned", Json.Int k.Mcl.Arena.cuts_pruned) ]);
          ("matching_moved",
           match report.Mcl.Pipeline.matching_stats with
           | Some s -> Json.Int s.Mcl.Matching_opt.cells_moved
           | None -> Json.Null);
          ("seconds", Json.Float (Mcl.Pipeline.total_seconds report)) ]
    | exception (Budget.Deadline_exceeded _ as exn) ->
      (match req.Protocol.fallback with
       | Some `Greedy ->
         (* degrade instead of failing: bounded-cost greedy answer,
            flagged so the client knows quality was traded for the
            deadline (the WAL journals the greedy form — replay must
            reproduce the degraded state, not retry the full run) *)
         run_greedy ~degraded:true ()
       | None -> fail ~deadline:true exn)
    | exception exn -> fail exn

(* Exact worst-window refinement (offline quality mode).  Success
   means the whole pass completed: a deadline expiry mid-pass rolls
   everything back (P430), so the journaled form — k and node budget,
   deadline stripped — replays deterministically.  The pass runs on the
   entry's resident context and keeps it current; the lazily-built
   congestion map is patched from the cells it moved, exactly like
   eco, so the incremental == rebuild invariant is kept testable. *)
let exec_refine t (entry : Cache.entry) req ~k ~node_budget =
  let started = now t in
  let id = req.Protocol.id in
  let design = entry.Cache.design in
  let before_disp = total_disp_rows design in
  let budget = budget_of t req in
  match
    transactional entry (fun () ->
        dropping_ctx entry (fun () ->
            Budget.check_now budget;
            inject_stage t ~stage:"refine";
            Mcl_exact.Refine.run ?budget ~node_budget ~k
              ~gp_hpwl:entry.Cache.gp_hpwl (ctx_of t entry)))
  with
  | stats ->
    entry.Cache.dirty <- true;
    sync_congestion entry;
    entry.Cache.refine <-
      Some
        { Cache.rn_windows = stats.Mcl_exact.Refine.windows;
          rn_accepted = stats.Mcl_exact.Refine.accepted;
          rn_proven = stats.Mcl_exact.Refine.proven;
          rn_budget = stats.Mcl_exact.Refine.budget_exhausted;
          rn_nodes = stats.Mcl_exact.Refine.nodes;
          rn_subopt = stats.Mcl_exact.Refine.subopt_cost;
          rn_score_before = stats.Mcl_exact.Refine.score_before;
          rn_score_after = stats.Mcl_exact.Refine.score_after };
    let cells_touched =
      List.fold_left
        (fun acc (o : Mcl_exact.Refine.outcome) ->
           if o.Mcl_exact.Refine.o_accepted then
             acc + o.Mcl_exact.Refine.o_cells
           else acc)
        0 stats.Mcl_exact.Refine.outcomes
    in
    let violations = Mcl_eval.Legality.check design in
    let finished = now t in
    Protocol.ok ~id ~op:"refine" ~wal:(Protocol.to_wire req ~greedy:false)
      ~metrics:
        (mk_metrics ~req ~started ~finished ~cells:cells_touched
           ~disp:(total_disp_rows design -. before_disp)
           ~coalesced:1 ())
      (Json.Obj
         [ ("design", Json.String entry.Cache.key);
           ("windows", Json.Int stats.Mcl_exact.Refine.windows);
           ("accepted", Json.Int stats.Mcl_exact.Refine.accepted);
           ("proven", Json.Int stats.Mcl_exact.Refine.proven);
           ("budget_exhausted",
            Json.Int stats.Mcl_exact.Refine.budget_exhausted);
           ("nodes", Json.Int stats.Mcl_exact.Refine.nodes);
           ("subopt_cost", Json.Float stats.Mcl_exact.Refine.subopt_cost);
           ("score_before", Json.Float stats.Mcl_exact.Refine.score_before);
           ("score_after", Json.Float stats.Mcl_exact.Refine.score_after);
           ("legal", Json.Bool (violations = [])) ])
  | exception exn ->
    (match exn with
     | Budget.Deadline_exceeded _ -> note_deadline t ~degraded:false
     | _ -> ());
    let finished = now t in
    error_of_exn ~id ~op:"refine" exn
      ~metrics:
        (mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())

let exec_query t (entry : Cache.entry) req =
  let started = now t in
  let design = entry.Cache.design in
  let violations = Mcl_eval.Legality.check design in
  let score = Mcl_eval.Score.evaluate ~gp_hpwl:entry.Cache.gp_hpwl design in
  let cmap = congest_of t entry in
  let congest = Congestion.summarize cmap in
  (* where quality is lost: the worst-displacement windows the refine
     op would re-solve, with their congestion overflow *)
  let fp = design.Design.floorplan in
  let sw = fp.Floorplan.site_width and rh = fp.Floorplan.row_height in
  let worst_windows =
    Mcl_eval.Windows.worst_cells ~k:4
      ~halfwidth:Mcl_exact.Refine.default_halfwidth
      ~halfheight:Mcl_exact.Refine.default_halfheight design
    |> List.map (fun (w : Mcl_eval.Windows.worst) ->
        let r = w.Mcl_eval.Windows.w_window in
        let rect_dbu =
          Mcl_geom.Rect.make
            ~xl:(r.Mcl_geom.Rect.x.Mcl_geom.Interval.lo * sw)
            ~yl:(r.Mcl_geom.Rect.y.Mcl_geom.Interval.lo * rh)
            ~xh:(r.Mcl_geom.Rect.x.Mcl_geom.Interval.hi * sw)
            ~yh:(r.Mcl_geom.Rect.y.Mcl_geom.Interval.hi * rh)
        in
        Json.Obj
          [ ("cell", Json.Int w.Mcl_eval.Windows.w_cell);
            ("disp_rows", Json.Float w.Mcl_eval.Windows.w_disp);
            ("window",
             Json.Obj
               [ ("xl", Json.Int r.Mcl_geom.Rect.x.Mcl_geom.Interval.lo);
                 ("yl", Json.Int r.Mcl_geom.Rect.y.Mcl_geom.Interval.lo);
                 ("xh", Json.Int r.Mcl_geom.Rect.x.Mcl_geom.Interval.hi);
                 ("yh", Json.Int r.Mcl_geom.Rect.y.Mcl_geom.Interval.hi) ]);
            ("overflow", Json.Float (Congestion.cost cmap ~rect_dbu)) ])
  in
  let finished = now t in
  Protocol.ok ~id:req.Protocol.id ~op:"query"
    ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
    (Json.Obj
       [ ("design", Json.String entry.Cache.key);
         ("cells", Json.Int (Design.num_cells design));
         ("legal", Json.Bool (violations = []));
         ("violations", Json.Int (List.length violations));
         ("legalized", Json.Bool entry.Cache.legalized);
         ("eco_count", Json.Int entry.Cache.eco_count);
         ("avg_disp_rows", Json.Float score.Mcl_eval.Score.avg_disp);
         ("max_disp_rows", Json.Float score.Mcl_eval.Score.max_disp);
         ("total_disp_sites",
          Json.Float (Mcl_eval.Metrics.total_displacement_sites design));
         ("hpwl", Json.Int (Mcl_eval.Metrics.hpwl design));
         ("s_hpwl", Json.Float score.Mcl_eval.Score.s_hpwl);
         ("pin_violations", Json.Int score.Mcl_eval.Score.pin_violations);
         ("edge_violations", Json.Int score.Mcl_eval.Score.edge_violations);
         ("score", Json.Float score.Mcl_eval.Score.score);
         ("congestion", congestion_json congest);
         ("worst_windows", Json.List worst_windows) ])

let exec_lint t (entry : Cache.entry) req =
  let started = now t in
  let report = Lint.run entry.Cache.design in
  let finished = now t in
  Protocol.ok ~id:req.Protocol.id ~op:"lint"
    ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
    (Json.Obj
       [ ("report", report_json report);
         ("errors", Json.Bool (Diagnostic.has_errors report)) ])

let exec_audit t (entry : Cache.entry) req =
  let started = now t in
  let design = entry.Cache.design in
  let findings =
    Audit.legality ~stage:"service" design @ Audit.routability ~stage:"service" design
  in
  let report = Diagnostic.report ~design:design.Design.name findings in
  let finished = now t in
  Protocol.ok ~id:req.Protocol.id ~op:"audit"
    ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
    (Json.Obj
       [ ("report", report_json report);
         ("errors", Json.Bool (Diagnostic.has_errors report)) ])

let exec_stats t req =
  let started = now t in
  let designs =
    Cache.entries t.cache
    |> List.map (fun (e : Cache.entry) ->
        Json.Obj
          [ ("design", Json.String e.Cache.key);
            ("cells", Json.Int (Design.num_cells e.Cache.design));
            ("source", Json.String e.Cache.source);
            ("legalized", Json.Bool e.Cache.legalized);
            ("eco_count", Json.Int e.Cache.eco_count);
            ("age_s", Json.Float (started -. e.Cache.loaded_at));
            ("refine",
             match e.Cache.refine with
             | None -> Json.Null
             | Some r ->
               Json.Obj
                 [ ("windows", Json.Int r.Cache.rn_windows);
                   ("accepted", Json.Int r.Cache.rn_accepted);
                   ("proven", Json.Int r.Cache.rn_proven);
                   ("budget_exhausted", Json.Int r.Cache.rn_budget);
                   ("nodes", Json.Int r.Cache.rn_nodes);
                   ("subopt_cost", Json.Float r.Cache.rn_subopt);
                   ("score_before", Json.Float r.Cache.rn_score_before);
                   ("score_after", Json.Float r.Cache.rn_score_after) ]);
            ("congestion",
             match e.Cache.congest with
             | None -> Json.Null
             | Some m ->
               let s = Congestion.summarize ~top_k:0 m in
               Json.Obj
                 [ ("max_overflow", Json.Float s.Congestion.max_overflow);
                   ("avg_overflow", Json.Float s.Congestion.avg_overflow);
                   ("overfull_bins", Json.Int s.Congestion.overfull) ]) ])
  in
  let finished = now t in
  Protocol.ok ~id:req.Protocol.id ~op:"stats"
    ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
    (Json.Obj
       [ ("counters", Telemetry.to_json t.telemetry);
         ("threads", Json.Int (max 1 t.config.Mcl.Config.threads));
         ("designs", Json.List designs) ])

(* One coalesced run of adjacent eco requests against one design: one
   merged [Eco.relegalize] on the entry's resident context. Each
   request keeps its own response. On failure the run rolls back and,
   if it had more than one member, the members are retried one by one
   so a single bad request cannot poison its batch-mates; only the
   individually-failing requests report the error. *)
let rec exec_eco_run t (entry : Cache.entry) run =
  let started = now t in
  let coalesced = List.length run in
  let design = entry.Cache.design in
  let payload req =
    match req.Protocol.op with
    | Protocol.Eco { cells; targets; greedy; _ } -> (cells, targets, greedy)
    | _ -> assert false
  in
  let merged_cells =
    List.concat_map (fun (_, req) -> let c, _, _ = payload req in c) run
  in
  (* batch order: a later request's target for the same cell wins *)
  let merged_targets =
    List.concat_map (fun (_, req) -> let _, tg, _ = payload req in tg) run
  in
  (* degraded mode only when every member opted in: a merged run must
     not silently downgrade a request that asked for the full flow *)
  let greedy_op =
    List.for_all (fun (_, req) -> let _, _, g = payload req in g) run
  in
  (* under coalescing the tightest member deadline bounds the run; a
     member-level expiry is then retried individually like any other
     merged-run failure, so only the offender degrades or fails *)
  let budget =
    List.filter_map (fun (_, req) -> budget_of t req |> Option.map
                        (fun b -> Budget.deadline b)) run
    |> function
    | [] -> None
    | ds ->
      Some
        (Budget.create
           ~clock:(fun () -> Fault.now t.faults)
           ~deadline:(List.fold_left Float.min Float.infinity ds)
           ())
  in
  let own_cells req =
    let cells, targets, _ = payload req in
    List.sort_uniq compare (cells @ List.map fst targets)
  in
  (* the run boundary is a cancellation point; the greedy path is the
     degradation escape hatch and is never cancelled itself. A failed
     run has restored the design from its undo log, so the tracked
     congestion map is still current untouched. *)
  let attempt ~greedy () =
    dropping_ctx entry (fun () ->
        if not greedy then Budget.check_now budget;
        inject_stage t ~stage:"eco";
        Mcl.Eco.relegalize ~targets:merged_targets
          ?budget:(if greedy then None else budget)
          ~greedy (ctx_of t entry) ~cells:merged_cells)
  in
  let succeed ~degraded stats =
    entry.Cache.dirty <- true;
    sync_congestion entry;
    if degraded then note_deadline t ~degraded:true;
    let k = stats.Mcl.Eco.kernel in
    note_kernel t k;
    (* the journal records the run as it was applied: one merged eco,
       greedy iff the placement actually used the greedy path — replay
       re-executes that single request and lands on identical bits *)
    let wal_line =
      let _, first_req = List.hd run in
      (* member idempotency tokens fold into the merged record's
         [req_ids]: replaying it re-arms dedup for every settled id *)
      let member_ids =
        List.concat_map
          (fun (_, req) ->
             (match req.Protocol.req_id with Some r -> [ r ] | None -> [])
             @ req.Protocol.replay_ids)
          run
      in
      Protocol.to_wire
        { first_req with
          Protocol.op =
            Protocol.Eco
              { key = entry.Cache.key; cells = merged_cells;
                targets = merged_targets; greedy = greedy_op || degraded };
          req_id = None;
          replay_ids = member_ids }
        ~greedy:(greedy_op || degraded)
    in
    let finished = now t in
    List.mapi
      (fun rank (i, req) ->
         entry.Cache.eco_count <- entry.Cache.eco_count + 1;
         let mine = own_cells req in
         let disp =
           List.fold_left
             (fun acc id ->
                acc +. Mcl_eval.Metrics.displacement design design.Design.cells.(id))
             0.0 mine
         in
         ( i,
           Protocol.ok ~id:req.Protocol.id ~op:"eco"
             ?wal:(if rank = 0 then Some wal_line else None)
             ~metrics:
               (* kernel work belongs to the merged run, not each
                  member: only the journaled rank-0 response carries it
                  so aggregation never double counts *)
               (mk_metrics
                  ?work:(if rank = 0 then Some k else None)
                  ~req ~started ~finished ~cells:(List.length mine)
                  ~disp ~coalesced ())
             (Json.Obj
                ([ ("design", Json.String entry.Cache.key);
                   ("relegalized", Json.Int stats.Mcl.Eco.relegalized);
                   ("window_growths", Json.Int stats.Mcl.Eco.window_growths);
                   ("fallbacks", Json.Int stats.Mcl.Eco.fallbacks);
                   ("total_disp_rows", Json.Float stats.Mcl.Eco.total_disp_rows);
                   ("max_disp_rows", Json.Float stats.Mcl.Eco.max_disp_rows);
                   ("cuts_evaluated", Json.Int k.Mcl.Arena.cuts_evaluated);
                   ("cuts_pruned", Json.Int k.Mcl.Arena.cuts_pruned) ]
                 @ (if degraded then
                      [ ("mode", Json.String "greedy");
                        ("degraded", Json.Bool true) ]
                    else []))) ))
      run
  in
  let fail ?(deadline = false) exn =
    if deadline then note_deadline t ~degraded:false;
    let finished = now t in
    List.map
      (fun (i, req) ->
         ( i,
           error_of_exn ~id:req.Protocol.id ~op:"eco" exn
             ~metrics:
               (mk_metrics ~req ~started ~finished
                  ~cells:(List.length (own_cells req))
                  ~disp:0.0 ~coalesced ()) ))
      run
  in
  match attempt ~greedy:greedy_op () with
  | stats -> succeed ~degraded:false stats
  | exception exn ->
    if coalesced > 1 then
      (* a merged run rolls back whole; retrying members one by one
         isolates the offender (and lets each apply its own
         deadline/fallback policy) *)
      List.concat_map (fun member -> exec_eco_run t entry [ member ]) run
    else (
      match exn with
      | Budget.Deadline_exceeded _
        when (snd (List.hd run)).Protocol.fallback = Some `Greedy -> (
          match attempt ~greedy:true () with
          | stats -> succeed ~degraded:true stats
          | exception exn -> fail exn)
      | Budget.Deadline_exceeded _ -> fail ~deadline:true exn
      | exn -> fail exn)

(* ---------------------------------------------------------------- *)
(* Batch execution                                                   *)
(* ---------------------------------------------------------------- *)

let exec_in_group t (entry : Cache.entry) unit_ =
  match unit_ with
  | `Eco run -> exec_eco_run t entry run
  | `One (i, req) ->
    let resp =
      match req.Protocol.op with
      | Protocol.Legalize { greedy; _ } -> exec_legalize t entry req ~greedy
      | Protocol.Refine { k; node_budget; _ } ->
        exec_refine t entry req ~k ~node_budget
      | Protocol.Query _ -> exec_query t entry req
      | Protocol.Lint _ -> exec_lint t entry req
      | Protocol.Audit _ -> exec_audit t entry req
      | Protocol.Load _ | Protocol.Eco _ | Protocol.Stats | Protocol.Health
      | Protocol.Shutdown ->
        assert false
    in
    [ (i, resp) ]

let exec_group t (key, group) =
  match Cache.find t.cache key with
  | None ->
    List.map
      (fun (i, req) ->
         ( i,
           Protocol.error ~id:req.Protocol.id
             ~op:(Protocol.op_name req.Protocol.op)
             ~code:"P404-unknown-design"
             (Printf.sprintf "design %S is not loaded" key) ))
      group
  | Some entry ->
    (* exactly-once: a member whose [req_id] is still in the
       entry's window is a retry of an acknowledged mutation —
       answer with the cached response verbatim (original id,
       wal-stripped) and execute nothing for it *)
    let hits, fresh =
      List.partition
        (fun (_, req) ->
           match req.Protocol.req_id with
           | Some rid -> Cache.dedup_find entry rid <> None
           | None -> false)
        group
    in
    let replayed =
      List.map
        (fun (i, req) ->
           Telemetry.add t.telemetry Dedup_hits 1;
           let resp =
             match req.Protocol.req_id with
             | Some rid ->
               (match Cache.dedup_find entry rid with
                | Some resp -> resp
                | None -> assert false)
             | None -> assert false
           in
           (i, resp))
        hits
    in
    let executed =
      Batch.eco_runs fresh
      |> List.concat_map (fun unit_ ->
          let results = exec_in_group t entry unit_ in
          List.iter
            (fun (i, resp) ->
               match List.assoc_opt i fresh with
               | Some req -> register_dedup entry req resp
               | None -> ())
            results;
          results)
    in
    replayed @ executed

(* Injected worker death: the group never runs, its design is
   untouched, and every member answers a structured error — the
   contract a real worker crash must also satisfy. *)
let worker_death_responses group =
  List.map
    (fun (i, req) ->
       ( i,
         Protocol.error ~id:req.Protocol.id
           ~op:(Protocol.op_name req.Protocol.op)
           ~code:"S310-worker-death"
           "injected fault: worker domain died before executing its group" ))
    (snd group)

let exec_health t req =
  let started = now t in
  let tel = t.telemetry in
  let pending =
    List.fold_left
      (fun acc (_, depth) -> acc + depth)
      0 (Telemetry.connections tel)
  in
  let finished = now t in
  Protocol.ok ~id:req.Protocol.id ~op:"health"
    ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
    (Json.Obj
       [ ("uptime_s", Json.Float (Telemetry.uptime_s tel));
         ("wal_last_seq", Json.Int (Telemetry.get tel Wal_last_seq));
         ("snapshot_seq", Json.Int (Telemetry.get tel Last_snapshot_seq));
         ("pending", Json.Int pending);
         ("designs", Json.Int (Cache.count t.cache));
         ("corruption_detected",
          Json.Bool (Telemetry.corruption_detected tel));
         ("dedup_hits", Json.Int (Telemetry.get tel Dedup_hits)) ])

let exec_global t (i, req) =
  let resp =
    match req.Protocol.op with
    | Protocol.Load { key; source } ->
      (* a retried load must not re-generate the design (that would
         reset acknowledged positions): the key's entry keeps the
         load's token in its window like any other mutation *)
      let replay =
        match req.Protocol.req_id with
        | None -> None
        | Some rid ->
          Option.bind (Cache.find t.cache key) (fun entry ->
              Cache.dedup_find entry rid)
      in
      (match replay with
       | Some resp ->
         Telemetry.add t.telemetry Dedup_hits 1;
         resp
       | None -> exec_load t req ~key ~source)
    | Protocol.Stats -> exec_stats t req
    | Protocol.Health -> exec_health t req
    | Protocol.Shutdown ->
      let started = now t in
      t.shutdown <- true;
      let finished = now t in
      Protocol.ok ~id:req.Protocol.id ~op:"shutdown"
        ~metrics:(mk_metrics ~req ~started ~finished ~cells:0 ~disp:0.0 ~coalesced:1 ())
        (Json.Obj [ ("stopping", Json.Bool true) ])
    | _ -> assert false
  in
  [ (i, resp) ]

let execute t requests =
  Telemetry.add t.telemetry Batches 1;
  Telemetry.keep_max t.telemetry Max_batch (Array.length requests);
  let responses = Array.make (Array.length requests) None in
  let file results =
    List.iter
      (fun (i, resp) ->
         let resp = account t resp ~op:resp.Protocol.resp_op in
         responses.(i) <- Some resp)
      results
  in
  List.iter
    (function
      | Batch.Global g -> file (exec_global t g)
      | Batch.Groups groups ->
        (* worker-death fates are drawn up front, one per group, so the
           fault stream does not depend on what the groups execute *)
        let doomed = List.map (fun _ -> Fault.worker_death t.faults) groups in
        List.iter2
          (fun g dead ->
             file (if dead then worker_death_responses g else exec_group t g))
          groups doomed)
    (Batch.plan requests);
  Array.mapi
    (fun i resp ->
       match resp with
       | Some r -> r
       | None ->
         (* every plan covers every index; this is a defensive fallback *)
         Protocol.error ~id:requests.(i).Protocol.id
           ~op:(Protocol.op_name requests.(i).Protocol.op)
           ~code:"P500-internal-error" "request was not executed")
    responses

let handle_line t line =
  match Protocol.parse ~received:(now t) ~default_id:"req-0" line with
  | Error e -> Protocol.to_line (Protocol.error_of_parse e)
  | Ok req ->
    let resp = (execute t [| req |]).(0) in
    Protocol.to_line resp

(* ---------------------------------------------------------------- *)
(* State fingerprint                                                 *)
(* ---------------------------------------------------------------- *)

(* Everything replay must reproduce, nothing it legitimately cannot:
   positions + anchors + the mutation-tracking flags, but no wall
   clock ([loaded_at]) and no lazily-built congestion maps (queries
   are not journaled). Equality of fingerprints is the recovery tests'
   definition of "bit-identical state". *)
let state_fingerprint t =
  let repr =
    Cache.entries t.cache
    |> List.map (fun (e : Cache.entry) ->
        ( e.Cache.key, e.Cache.source, e.Cache.gp_hpwl, e.Cache.legalized,
          Design.snapshot e.Cache.design,
          Design.snapshot_anchors e.Cache.design ))
  in
  Digest.to_hex (Digest.string (Marshal.to_string repr []))
