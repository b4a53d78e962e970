(** Journaling and crash recovery for the NDJSON service.

    The request loop itself lives in {!Mcl_netserve.Netserve} (both
    [serve] modes, socket and stdio); this module holds the two steps
    that loop and the tools around it share with recovery:
    {!execute_and_journal}, one batch through the {!Engine} plus its
    group commit, and {!recover}, which rebuilds the resident state
    from a snapshot and the journal.

    With a journal, every acknowledged mutation is journaled and
    fsync'd {e before} its response line is written: a response the
    client has read implies the mutation already survives a crash
    (see {!Mcl_resilience.Wal}). *)

(** [execute_and_journal engine ?wal requests] is {!Engine.execute}
    plus the group-commit journal step (one
    {!Mcl_resilience.Wal.append_all} — one fsync — for every
    acknowledged mutation of the batch, in batch order) without any
    IO to the client — the request loop's batch step, and the unit the
    recovery tests drive directly. *)
val execute_and_journal :
  Engine.t -> ?wal:Mcl_resilience.Wal.t -> Protocol.request array ->
  Protocol.response array

type recovery = {
  replayed : int;  (** journaled mutations re-applied successfully *)
  failed : int;  (** records/snapshot designs that no longer re-apply *)
  torn_tail : int;
      (** unterminated trailing lines truncated — the benign
          interrupted-write artifact, never a refusal *)
  trailing_garbage : int;
      (** terminated lines dropped at/after the first bad record —
          evidence of corruption, not a crash *)
  snapshot_seq : int;  (** [upto_seq] of the loaded snapshot (0: none) *)
  skipped : int;
      (** journal records at or below [snapshot_seq], skipped because
          the snapshot already holds their effect (non-zero only when
          a crash landed between snapshot write and WAL truncation) *)
  wal_first_bad_seq : int option;
      (** sequence at the first corrupt journal record, when any *)
  snapshot_corrupt : int;  (** snapshot lines failing CRC verification *)
}

(** Raised by {!recover} (strict mode) when the state on disk fails
    verification: [code] is ["S311-corrupt-record"] (snapshot CRC
    failure) or ["P431-corrupt-journal"] (terminated bad WAL record),
    [message] carries the records-kept / records-dropped /
    first-bad-seq report, and [recovery] the counts gathered before
    refusing. Nothing has been replayed when this is raised. *)
exception Corrupt_state of {
  code : string;
  message : string;
  recovery : recovery;
}

(** [recover ?best_effort engine ~path] restores the pre-crash
    resident state: load the snapshot at {!Snapshot.path_for}[ path]
    if present, then replay only the journal records past its
    [upto_seq] (see {!Mcl_resilience.Wal} for why replay is
    deterministic). A lone torn WAL tail is repaired silently; any
    other damage (CRC mismatch, seq gap, snapshot line failing
    verification) raises {!Corrupt_state} {e before replaying
    anything} — unless [best_effort] (default [false]), which serves
    the provable prefix instead and latches the telemetry corruption
    flag. Arm fault plans only {e after} recovery. Missing files
    recover as empty. *)
val recover : ?best_effort:bool -> Engine.t -> path:string -> recovery
