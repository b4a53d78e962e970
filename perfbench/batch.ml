(* table1 and wide: the CLI's batch flow — parse a design file, run
   Pipeline.run, check the result — over a roster, in whole passes for
   the measured time. Every pass starts from the parsed GP positions,
   so every pass must produce the same placements. *)

open Mcl_netlist
open Common

type design = {
  name : string;
  d : Design.t;
  positions : (int * int) array;  (** as parsed *)
  anchors : (int * int) array;
  gp_hpwl : int;
  movable : int;
}

type quality = {
  score : float;
  avg : float;
  max : float;
  violations : int;  (** pin + edge *)
  legal : bool;
  digest : string;  (** of every cell position *)
}

(* What a traced pass learns from one Pipeline.run besides its spans. *)
type trace = {
  report : Mcl.Pipeline.report;
  minor_words : float;
  major_collections : int;
}

(* Seconds as measured and at the nominal host speed. *)
type seconds = { measured : float; nominal : float }

let zero = { measured = 0.0; nominal = 0.0 }

type result = {
  q : quality option;  (** [None]: the flow raised *)
  pipeline_s : seconds;  (** Pipeline.run *)
  eval_s : seconds;  (** Legality.check + Score.evaluate: the work of a query *)
  trace : trace option;  (** traced passes only *)
}

let cfg = Mcl.Config.default

let parse_all files =
  List.map
    (fun path ->
       match Mcl_bookshelf.Parser.parse_file path with
       | Ok d -> d
       | Error e -> failwith (path ^ ": " ^ e))
    files

let lap_seconds c =
  let dt, f = lap c in
  { measured = dt; nominal = dt *. f }

(* Set-up is parsing the roster, timed [reps] times; the last parse is
   kept. *)
let setup ~reps files =
  let rec go i times last =
    if i = reps then (times, last)
    else begin
      let c = clock () in
      let designs = parse_all files in
      go (i + 1) (lap_seconds c :: times) designs
    end
  in
  let times, designs = go 0 [] [] in
  let prepare d =
    { name = d.Design.name;
      d;
      positions = Design.snapshot d;
      anchors = Design.snapshot_anchors d;
      gp_hpwl = Mcl_eval.Metrics.hpwl d;
      movable =
        Array.fold_left
          (fun n c -> if c.Cell.is_fixed then n else n + 1)
          0 d.Design.cells }
  in
  (times, List.map prepare designs)

let restore x =
  Design.restore x.d x.positions;
  Design.restore_anchors x.d x.anchors

(* The calls a `query` makes, [reps] times, timed on the clock of the
   legalization before them; [eval_s] is the mean of one. Then the
   placement digest, which is the benchmark's own. *)
let evaluate ~reps spans c x =
  let rec go i =
    let violations =
      Spans.time spans "eval.legality_s" (fun () -> Mcl_eval.Legality.check x.d)
    in
    let s =
      Spans.time spans "eval.score_s" (fun () -> Mcl_eval.Score.evaluate ~gp_hpwl:x.gp_hpwl x.d)
    in
    if i = reps then (violations, s) else go (i + 1)
  in
  let violations, s = go 1 in
  let t = lap_seconds c in
  let eval_s =
    { measured = t.measured /. float_of_int reps; nominal = t.nominal /. float_of_int reps }
  in
  let digest =
    Spans.time spans "digest" (fun () ->
        Digest.to_hex (Digest.string (Marshal.to_string (Design.snapshot x.d) [])))
  in
  ( { score = s.Mcl_eval.Score.score;
      avg = s.Mcl_eval.Score.avg_disp;
      max = s.Mcl_eval.Score.max_disp;
      violations = s.Mcl_eval.Score.pin_violations + s.Mcl_eval.Score.edge_violations;
      legal = violations = [];
      digest },
    eval_s )

(* Pipeline.run as the CLI calls it, sampling the host speed on clock
   [c] at every stage boundary (on_stage) and at the end of every major
   GC cycle, so each stretch between two samples can be scaled to the
   nominal speed: a stage on a wide die lasts seconds, and the host
   speed moves within it. A traced call also takes Gc.quick_stat deltas
   around the call; the speed kernels allocate nothing. *)
let legalize ~traced spans c x =
  let g0 = Gc.quick_stat () in
  let raw = ref 0.0 and nominal = ref 0.0 and stage = ref 0.0 in
  (* an alarm may fire while a sample is being taken *)
  let busy = ref false in
  let tick () =
    if not !busy then begin
      busy := true;
      let dt, f = lap c in
      raw := !raw +. dt;
      nominal := !nominal +. (dt *. f);
      stage := !stage +. dt;
      busy := false
    end
  in
  let on_stage s =
    tick ();
    let dt = !stage in
    stage := 0.0;
    Spans.add spans
      (match s with
       | Mcl.Pipeline.Mgl_stage -> "core.mgl_s"
       | Mcl.Pipeline.Matching_stage -> "core.matching_s"
       | Mcl.Pipeline.Row_order_stage -> "core.row_order_s")
      dt
  in
  let alarm = Gc.create_alarm tick in
  let report =
    Fun.protect
      ~finally:(fun () -> Gc.delete_alarm alarm)
      (fun () -> Mcl.Pipeline.run ~on_stage cfg x.d)
  in
  let g1 = Gc.quick_stat () in
  let trace =
    if traced then
      Some
        { report;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections }
    else None
  in
  ({ measured = !raw; nominal = !nominal }, trace)

(* Evaluations per design in an untraced pass: one is a few
   milliseconds on table1, too little work to time steadily. A traced
   pass evaluates once, so its eval spans are one query's calls. *)
let eval_reps = 5

(* One pass over the roster: each design restored, legalized and
   evaluated on one clock. *)
let pass ~traced designs =
  let spans = Spans.create () in
  let results =
    List.map
      (fun x ->
         Spans.time spans "restore" (fun () -> restore x);
         let c = clock () in
         let r =
           match legalize ~traced spans c x with
           | pipeline_s, trace ->
             let q, eval_s = evaluate ~reps:(if traced then 1 else eval_reps) spans c x in
             { q = Some q; pipeline_s; eval_s; trace }
           | exception e ->
             Printf.eprintf "perfbench: %s: %s\n%!" x.name (Printexc.to_string e);
             { q = None; pipeline_s = zero; eval_s = zero; trace = None }
         in
         Spans.add spans "host.speed" c.sampling;
         (x, r))
      designs
  in
  (results, spans)

(* The per-layer metrics of traced passes, per pass: stage spans,
   the counters of the returned reports, evaluation spans and GC
   deltas. [parse_s] is the roster's parse time. *)
let layers ~parse_s ~cells traced =
  let n = float_of_int (List.length traced) in
  let span name = sum (List.map (fun (_, spans) -> Spans.get spans name) traced) /. n in
  let traces = List.concat_map (fun (rs, _) -> List.filter_map (fun (_, r) -> r.trace) rs) traced in
  let per_pass f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 traces) /. n in
  let mgl t = t.report.Mcl.Pipeline.mgl_stats in
  let kernel t = (mgl t).Mcl.Scheduler.kernel in
  let matching f t = Option.fold ~none:0 ~some:f t.report.Mcl.Pipeline.matching_stats in
  let windows = per_pass (fun t -> (kernel t).Mcl.Arena.windows_built) in
  let evaluated = per_pass (fun t -> (kernel t).Mcl.Arena.cuts_evaluated) in
  let pruned = per_pass (fun t -> (kernel t).Mcl.Arena.cuts_pruned) in
  let mgl_s = span "core.mgl_s" in
  let minor_words = sum (List.map (fun t -> t.minor_words) traces) /. n in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  [ m "bookshelf.parse_s" "s" parse_s;
    m "core.mgl_s" "s" mgl_s;
    m "core.mgl.windows_built" "count" windows;
    m "core.mgl.cuts_evaluated" "count" evaluated;
    m "core.mgl.prune_ratio" "ratio" (pruned /. (evaluated +. pruned));
    m "core.mgl.window_growths" "count" (per_pass (fun t -> (mgl t).Mcl.Scheduler.window_growths));
    m "core.mgl.fallbacks" "count" (per_pass (fun t -> (mgl t).Mcl.Scheduler.fallbacks));
    m "core.mgl.us_per_window" "us" (mgl_s *. 1e6 /. windows);
    m "core.matching_s" "s" (span "core.matching_s");
    m "core.matching.groups" "count" (per_pass (matching (fun s -> s.Mcl.Matching_opt.groups)));
    m "core.matching.cells_moved" "count"
      (per_pass (matching (fun s -> s.Mcl.Matching_opt.cells_moved)));
    m "core.row_order_s" "s" (span "core.row_order_s");
    m "core.row_order.arcs" "count"
      (per_pass (fun t ->
           Option.fold ~none:0 ~some:(fun s -> s.Mcl.Row_order_opt.arcs)
             t.report.Mcl.Pipeline.row_order_stats));
    m "eval.score_s" "s" (span "eval.score_s");
    m "eval.legality_s" "s" (span "eval.legality_s");
    m "gc.minor_words_per_cell" "words" (minor_words /. float_of_int cells);
    m "gc.major_collections" "count" (per_pass (fun t -> t.major_collections));
    m "gc.top_heap_mb" "MB" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb) ]

(* Passes of [f] until the measured time would run past [seconds] on
   the next pass (at least [min_passes]); [f] gets the pass index. *)
let passes ~seconds ~min_passes f =
  let t0 = now () in
  let rec go i acc =
    let acc = f i :: acc in
    let n = i + 1 in
    let elapsed = now () -. t0 in
    if n >= min_passes && elapsed +. (elapsed /. float_of_int n) > seconds then
      List.rev acc
    else go n acc
  in
  go 0 []

let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.sort compare |> List.map snd

let run opts (roster : Roster.t) ~files =
  (* every set-up before the first pass, on the fresh heap a user's
     parse sees; a fixed count keeps the heap history, and so the peak
     RSS, the same in every run *)
  let setup_times, designs = setup ~reps:(if opts.tiny then 3 else 30) files in
  let designs = shuffle ~seed:opts.seed designs in
  let cells = List.fold_left (fun n x -> n + x.movable) 0 designs in
  (* traced runs alternate untraced and traced passes: the pairs give
     the tracing overhead, and their placements must agree *)
  let runs =
    passes ~seconds:opts.seconds ~min_passes:(if opts.trace then 2 else 1)
      (fun i ->
         let traced = opts.trace && i mod 2 = 1 in
         let (results, spans), wall = timed (fun () -> pass ~traced designs) in
         (traced, results, spans, wall))
  in
  (* quality and correctness: every pass must agree with the first *)
  let _, first, _, _ = List.hd runs in
  (* aggregate in roster order, not run order: float sums depend on it *)
  let qualities =
    List.filter_map (fun (_, r) -> r.q)
      (List.sort (fun (a, _) (b, _) -> compare a.name b.name) first)
  in
  let all_results = List.concat_map (fun (_, rs, _, _) -> rs) runs in
  let failed =
    List.length
      (List.filter
         (fun (_, r) -> match r.q with Some q -> not q.legal | None -> true)
         all_results)
  in
  let consistent =
    List.for_all
      (fun (_, rs, _, _) ->
         List.for_all2 (fun (_, a) (_, b) -> a.q = b.q) rs first)
      runs
  in
  let score_geomean = geomean (List.map (fun q -> q.score) qualities) in
  let avg_disp = mean (List.map (fun q -> q.avg) qualities) in
  let max_disp = List.fold_left (fun acc q -> Float.max acc q.max) 0.0 qualities in
  let violations = List.fold_left (fun acc q -> acc + q.violations) 0 qualities in
  let deterministic =
    [ ("score_geomean", Json.Float score_geomean);
      ("avg_disp_rows", Json.Float avg_disp);
      ("max_disp_rows", Json.Float max_disp);
      ("routability_violations", Json.Int violations);
      ("placements",
       Json.Obj
         (List.sort compare
            (List.map
               (fun (x, r) ->
                  (x.name,
                   Json.String (match r.q with Some q -> q.digest | None -> "failed")))
               first))) ]
  in
  let untraced = List.filter (fun (t, _, _, _) -> not t) runs in
  let traced = List.filter (fun (t, _, _, _) -> t) runs in
  let results passes =
    List.concat_map
      (fun (_, rs, _, _) -> List.filter (fun r -> Option.is_some r.q) (List.map snd rs))
      passes
  in
  let n_untraced = List.length untraced in
  (* the timings at the nominal host speed, and as measured *)
  let timings ~suffix pick =
    let rs = results untraced in
    let total f = sum (List.map (fun r -> pick (f r)) rs) in
    (* means over designs, not percentiles: a roster is a few designs of
       very different sizes, and a percentile would pick one of them *)
    let per_design_ms f = 1000.0 *. total f /. float_of_int (List.length rs) in
    List.map
      (fun (name, unit_, v) -> m (name ^ suffix) unit_ v)
      [ ("setup_s", "s", median (List.map pick setup_times));
        ("cells_per_s", "cells/s",
         float_of_int (cells * n_untraced) /. total (fun r -> r.pipeline_s));
        ("latency_ms", "ms", per_design_ms (fun r -> r.pipeline_s));
        ("query_ms", "ms", per_design_ms (fun r -> r.eval_s)) ]
  in
  let nominal s = s.nominal and measured s = s.measured in
  let e2e =
    timings ~suffix:"" nominal
    @ [ m "score_geomean" "score" score_geomean;
        m "avg_disp_rows" "rows" avg_disp;
        m "max_disp_rows" "rows" max_disp;
        m "routability_violations" "count" (float_of_int violations);
        m "peak_rss_mb" "MB" (peak_rss_mb (string_of_int (Unix.getpid ())));
        m "failed_share" "ratio" (float_of_int failed /. float_of_int (List.length all_results)) ]
    @ timings ~suffix:".measured" measured
  in
  let layers =
    if traced = [] then []
    else begin
      let n = float_of_int (List.length traced) in
      let wall = sum (List.map (fun (_, _, _, w) -> w) traced) in
      let covered = sum (List.map (fun (_, _, spans, _) -> Spans.total spans) traced) in
      let per_pass passes = sum (List.map (fun r -> r.pipeline_s.nominal) (results passes)) in
      layers ~parse_s:(median (List.map measured setup_times)) ~cells
        (List.map (fun (_, rs, spans, _) -> (rs, spans)) traced)
      @ [ m "trace.unaccounted_pct" "%" (100.0 *. (wall -. covered) /. wall);
          m "trace.overhead_pct" "%"
            (100.0
             *. ((per_pass traced /. n /. (per_pass untraced /. float_of_int n_untraced)) -. 1.0)) ]
    end
  in
  { e2e;
    layers;
    deterministic;
    meta =
      Roster.meta roster ~workload_seed:opts.workload_seed
      @ [ ("cells", Json.Int cells);
          ("passes", Json.Int n_untraced);
          ("traced_passes", Json.Int (List.length traced));
          ("timed_designs", Json.Int (List.length (results untraced))) ];
    attempted = List.length all_results;
    failed;
    checks = [ ("legal", failed = 0); ("passes_identical", consistent) ] }
