(** Crash-safe NDJSON write-ahead log for the resident service.

    The journal is a redo log of {e acknowledged} mutations: the
    server appends one record per successfully applied mutating
    request (load / legalize / eco / refine), fsyncs, and only then
    writes the response — so any mutation a client saw acknowledged
    survives a crash, and a request the engine rolled back is never
    journaled (replaying it would diverge).

    One record per line, checksummed:
    {[ {"seq":<n>,"crc":<c>,"req":<request object>} ]}

    [<c>] is the CRC-32 ({!Crc32}) of the legacy frame
    [{"seq":<n>,"req":<request object>}] — the checksum covers the
    sequence digits, so a flipped seq digit cannot pose as a different
    valid base. Legacy (un-checksummed) frames are still read, so
    journals written before the CRC layer recover unchanged.

    [<request object>] is the engine's canonical re-encoding of what
    was actually applied (a deadline-degraded legalize journals as an
    explicit greedy legalize). Sequence numbers are consecutive; a
    fresh journal starts at 1, while a journal truncated after a
    snapshot restarts at the snapshot's successor (the first record
    sets the base). {!open_} scans an existing journal, truncates a
    torn tail (a crash can leave at most one partial last line) and
    continues from the last valid record, so recover-then-keep-
    journaling uses one file.

    {e Corruption verdicts}: a torn {e tail} is the expected crash
    artifact and is repaired silently, but a {e terminated} bad line —
    CRC mismatch, unparsable frame, sequence gap — means the bytes on
    disk are not the bytes that were acknowledged. {!read} reports the
    split explicitly and {!open_} refuses such a journal with
    {!Corrupt} unless [~best_effort:true] accepts the valid prefix.

    {e Group commit}: {!append_all} frames a whole batch of mutations
    into one buffer, one write, one fsync — turning the per-request
    disk-flush bound (~10k/s) into a per-batch one. Responses for
    every member must be held until the group's fsync returns.

    This module does no JSON parsing beyond the record frame: payloads
    are opaque single-line strings, framed and recovered with plain
    string operations, keeping the library dependency-free. *)

type t

type record = { seq : int; payload : string }

(** What {!read} found. [records] is the longest valid prefix:
    consecutive sequence numbers, checksums verified (legacy frames
    are accepted unverified and counted in [legacy]). [torn_tail] is 1
    when the file ends in an unterminated partial line (the benign
    crash artifact) and 0 otherwise. [trailing_garbage] counts
    non-blank {e terminated} lines at or after the first bad record —
    evidence of corruption, not a crash. [first_bad_seq] is [Some s]
    exactly when the journal is corrupt ({!corrupt}): the claimed
    sequence of the first bad record when its frame still parses, the
    expected next sequence otherwise (0 when no valid record
    precedes it). *)
type report = {
  records : record list;
  torn_tail : int;
  trailing_garbage : int;
  first_bad_seq : int option;
  legacy : int;
}

(** Cumulative IO accounting since {!open_} (not persisted). The mean
    commit-group size is [appends / groups]. *)
type stats = {
  appends : int;  (** records journaled *)
  fsyncs : int;  (** fsync calls issued (one per non-empty group) *)
  groups : int;  (** {!append_all} batches (incl. singletons) *)
  truncated_bytes : int;  (** bytes dropped by {!truncate} calls *)
}

(** Raised by {!open_} (without [~best_effort:true]) on a journal with
    a terminated bad record, carrying the path and the scan report. *)
exception Corrupt of string * report

(** True exactly when the report shows corruption (a terminated bad
    record; equivalently [first_bad_seq <> None]). A lone torn tail is
    not corruption. *)
val corrupt : report -> bool

(** One-line ["records-kept=… records-dropped=… first-bad-seq=…"]
    rendering of a report, for operator-facing refusal messages. *)
val corrupt_summary : report -> string

(** [open_ ?best_effort ?faults ?next_seq ~path ()] opens (creating
    if needed) the journal for appending, after repairing a torn tail.
    Every append group and every {!truncate} is fsynced, and every
    record is written CRC-framed; legacy frames are only ever read.
    [best_effort] (default [false]): when the journal is {!corrupt},
    [false] raises {!Corrupt} and [true] truncates to the valid prefix
    and proceeds. [faults] enables the [Bit_flip]/[Torn_write] lanes on
    the append path. [next_seq] (default 1) seeds the sequence counter
    when the file holds no records — pass [snapshot_seq + 1] when
    reopening a journal that was truncated after a snapshot, so
    numbering continues instead of restarting at 1. *)
val open_ :
  ?best_effort:bool -> ?faults:Fault.t -> ?next_seq:int -> path:string ->
  unit -> t

(** Next sequence number to be assigned. *)
val next_seq : t -> int

(** Last sequence number assigned (0 before the first append of a
    fresh journal). *)
val last_seq : t -> int

(** [append t payload] journals one record and returns its sequence
    number. [payload] must be a single line (no ['\n']). Equivalent to
    a singleton {!append_all}. *)
val append : t -> string -> int

(** [append_all t payloads] journals the whole group with one write
    and one fsync, returning the last assigned sequence number (or the
    current one for an empty group, which does no IO). Durability is
    all-or-nothing: no member's response may be released before this
    returns. *)
val append_all : t -> string list -> int

(** [truncate t] empties the journal file — call only after a snapshot
    covering every journaled record has been durably written. The
    sequence counter keeps running, so subsequent appends continue the
    numbering (and {!read} accepts the non-1 base). Returns the number
    of bytes dropped. *)
val truncate : t -> int

val stats : t -> stats

val close : t -> unit

(** [read ~path] scans the journal into a {!report}. A missing file
    reads as empty (no records, nothing dropped, not corrupt). *)
val read : path:string -> report
