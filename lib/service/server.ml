module Wal = Mcl_resilience.Wal

(* Execute one parsed batch, group-committing its acknowledged
   mutations (one [append_all], one fsync for the whole batch) before
   any response line goes out: a response the client reads implies the
   journal already holds the mutation, and a batch under concurrent
   load pays one disk flush instead of one per request. *)
let execute_and_journal engine ?wal requests =
  let responses = Engine.execute engine requests in
  (match wal with
   | None -> ()
   | Some w ->
     let lines =
       Array.to_list responses
       |> List.filter_map (fun resp -> resp.Protocol.wal)
     in
     if lines <> [] then begin
       let last_seq = Wal.append_all w lines in
       let tel = Engine.telemetry engine in
       Telemetry.add tel Wal_appends (List.length lines);
       Telemetry.add tel Wal_groups 1;
       Telemetry.keep_max tel Wal_last_seq last_seq
     end);
  responses

(* ---------------------------------------------------------------- *)
(* Recovery                                                          *)
(* ---------------------------------------------------------------- *)

type recovery = {
  replayed : int;
  failed : int;
  torn_tail : int;
  trailing_garbage : int;
  snapshot_seq : int;
  skipped : int;
  wal_first_bad_seq : int option;
  snapshot_corrupt : int;
}

exception Corrupt_state of {
  code : string;
  message : string;
  recovery : recovery;
}

let refuse ~code ~message recovery =
  raise (Corrupt_state { code; message; recovery })

(* Replay is plain re-execution: every journaled record is the
   canonical form of an acknowledged mutation (merged ecos journal
   merged, degraded runs journal greedy, deadlines are stripped), so
   applying them one per batch reproduces the pre-crash resident state
   bit for bit. With a snapshot present, the bulk of the history is
   restored wholesale and only the delta since the snapshot's
   [upto_seq] is re-executed; records at or below it that survive in
   the journal (a crash can land between snapshot rename and WAL
   truncation) are skipped — the snapshot already holds their effect.

   Corruption verdicts come {e before} replay: a snapshot line whose
   CRC fails refuses with [S311-corrupt-record], a journal with a
   terminated bad record refuses with [P431-corrupt-journal] — in both
   cases nothing has been replayed and the caller decides (the CLI
   exits; [--recover-best-effort] re-runs with [best_effort:true],
   which serves the provable prefix instead and latches the telemetry
   corruption flag either way). A lone torn WAL tail is the expected
   crash artifact and never refuses.

   Faults should be armed only after recovery — the journal replays
   what really happened, not what an injection plan would do to it. *)
let recover ?(best_effort = false) engine ~path =
  let received = Unix.gettimeofday () in
  let snap = Snapshot.load engine ~received ~path:(Snapshot.path_for path) in
  let snapshot_seq, snap_failed, snapshot_corrupt =
    match snap with
    | None -> (0, 0, 0)
    | Some { Snapshot.upto_seq; failed; corrupt; _ } ->
      (upto_seq, failed, corrupt)
  in
  let report = Wal.read ~path in
  let wal_corrupt = Wal.corrupt report in
  let tel = Engine.telemetry engine in
  Telemetry.add tel Wal_torn_tail report.Wal.torn_tail;
  Telemetry.add tel Wal_trailing_garbage report.Wal.trailing_garbage;
  if wal_corrupt || snapshot_corrupt > 0 then Telemetry.latch_corruption tel;
  let base =
    { replayed = 0; failed = snap_failed; torn_tail = report.Wal.torn_tail;
      trailing_garbage = report.Wal.trailing_garbage; snapshot_seq;
      skipped = 0; wal_first_bad_seq = report.Wal.first_bad_seq;
      snapshot_corrupt }
  in
  if not best_effort then begin
    (match snap with
     | Some { Snapshot.corrupt; first_corrupt_line; _ } when corrupt > 0 ->
       refuse ~code:"S311-corrupt-record"
         ~message:
           (Printf.sprintf
              "snapshot %s: %d corrupt line(s), first at line %s; refusing \
               to serve (re-run with --recover-best-effort to serve the \
               provable prefix)"
              (Snapshot.path_for path) corrupt
              (match first_corrupt_line with
               | Some l -> string_of_int l
               | None -> "?"))
         base
     | _ -> ());
    if wal_corrupt then
      refuse ~code:"P431-corrupt-journal"
        ~message:
          (Printf.sprintf
             "journal %s: %s; refusing to serve (re-run with \
              --recover-best-effort to serve the valid prefix)"
             path (Wal.corrupt_summary report))
        base
  end;
  let failed = ref snap_failed in
  let skipped = ref 0 in
  List.iter
    (fun (rec_ : Wal.record) ->
       if rec_.Wal.seq <= snapshot_seq then incr skipped
       else
         let default_id = Printf.sprintf "wal-%d" rec_.Wal.seq in
         match Protocol.parse ~received ~default_id rec_.Wal.payload with
         | Error _ -> incr failed
         | Ok req ->
           let responses = Engine.execute engine [| req |] in
           Array.iter
             (fun resp ->
                if Result.is_error resp.Protocol.result then incr failed)
             responses)
    report.Wal.records;
  let attempted = List.length report.Wal.records - !skipped in
  let replayed = attempted - (!failed - snap_failed) in
  Telemetry.add tel Wal_replayed replayed;
  { base with replayed; failed = !failed; skipped = !skipped }
