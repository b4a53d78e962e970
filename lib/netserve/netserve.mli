(** The NDJSON request loop over an {!Mcl_service.Engine}: the one
    front-end for both [serve] modes, a Unix-domain socket with many
    clients or a single stdin/stdout session.

    One select(2)-driven control thread multiplexes every connection.
    A connection reads one fd and writes another — the same fd for an
    accepted socket, stdin and stdout for stdio — through a
    scan-offset line reader and a buffered writer, both EINTR- and
    partial-transfer-safe; the optional [faults] plan injects short
    reads, short writes, EINTR storms and connection resets at exactly
    those sites. Accepted sockets are non-blocking and their writers
    park on EAGAIN until the next writable wakeup; the inherited stdio
    fds stay blocking (their O_NONBLOCK flag would be shared with the
    parent shell), which select-then-read makes safe for one client.

    {b Order.} Each connection gets one response line per request
    line, in request order — a malformed line is answered
    [P401-parse-error] at its position. Two answers are immediate and
    may overtake admitted-but-unanswered requests: [P429-overloaded]
    for a line arriving past the connection's [max_pending] bound, and
    [P400-line-too-long] for a line over [max_line] bytes (default
    1 MiB), which is discarded so per-connection memory stays capped.

    {b Scheduling} is fair round-robin in accept order: each batch
    sweeps the connections from a rotating cursor, taking one pending
    request per connection per sweep up to [max_batch]. A chatty
    connection cannot starve a quiet one, and given one arrival trace
    the interleaving — and therefore the WAL record order and the
    final placement state — is deterministic. Within a batch the
    engine's planner keeps same-design requests in arrival order, so
    each design observes its own requests in the order they came.

    {b Durability} is group commit through
    {!Mcl_service.Server.execute_and_journal}: the whole batch's
    acknowledged mutations are journaled with one
    {!Mcl_resilience.Wal.append_all} (one fsync), and no response is
    released to any output queue until that fsync returns. With
    [snapshot_every] set, every [N] journaled records the loop writes
    an atomic placement snapshot ({!Mcl_service.Snapshot}) and
    truncates the WAL, so recovery replays O(delta-since-snapshot).

    One client dying (EPIPE / ECONNRESET / reset mid-read) kills that
    connection only; the loop keeps serving. [shutdown] stops
    accepting, gives surviving connections a bounded number of flush
    rounds, and returns.

    {b Graceful drain}: {!request_drain} (or SIGTERM/SIGINT under
    {!serve}) makes the loop stop accepting and reading, finish every
    request already admitted (each batch still group-commits before
    its responses release), cut a final snapshot and truncate the WAL
    (so the next boot replays zero records), flush responses, and
    return — the signal handler itself only sets a flag. *)

type t

(** [create engine ?wal ?wal_path ?faults ?max_pending ?max_line
    ?max_conns ?snapshot_every ~max_batch ()] — [max_pending] bounds
    each connection's admitted-request queue (default 256),
    [max_conns] the accepted-connection count (default 64; further
    clients queue in the listen backlog). [snapshot_every] (requires
    [wal] and [wal_path]) cuts a snapshot every so many journaled
    records. *)
val create :
  Mcl_service.Engine.t -> ?wal:Mcl_resilience.Wal.t -> ?wal_path:string ->
  ?faults:Mcl_resilience.Fault.t -> ?max_pending:int -> ?max_line:int ->
  ?max_conns:int -> ?snapshot_every:int -> max_batch:int -> unit -> t

(** Register an already-connected socket (made non-blocking) as the
    next connection, in accept order; returns its connection id. The
    loop closes it when the connection ends. The test harness and
    benches feed socketpairs through this. *)
val add_conn : t -> Unix.file_descr -> int

(** [add_stdio t ~in_fd ~out_fd] registers a connection that reads
    [in_fd] and writes [out_fd] — stdin and stdout in stdio mode, a
    pipe pair in tests. Both fds stay blocking and stay open: they
    belong to the caller. *)
val add_stdio : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr -> int

(** Ask the loop to drain gracefully (see module docs). Only stores a
    flag, so it is safe from a signal handler; idempotent. *)
val request_drain : t -> unit

(** [run ?on_commit ?listen t] drives the event loop until [shutdown]
    executes or — with no [listen] fd — every connection has reached
    EOF and drained. [listen] is a bound+listening socket to accept
    from. [on_commit] fires after each batch's durability step (group
    commit + possible snapshot) and before its responses are released
    — the crash-point tests image the journal there. *)
val run : ?on_commit:(unit -> unit) -> ?listen:Unix.file_descr -> t -> unit

(** [serve engine ~max_batch endpoint] {!run}s the loop on [endpoint]:
    [`Socket path] binds a Unix-domain socket at [path] (replacing a
    stale socket file, removed again on exit) and accepts up to
    [max_conns] clients; [`Stdio] serves stdin/stdout as the one
    connection and never listens. Either way SIGPIPE is ignored for
    the duration and, with [drain_signals] (default [true]), SIGTERM
    and SIGINT trigger a graceful drain instead of killing the
    process; previous dispositions are restored on exit. *)
val serve :
  Mcl_service.Engine.t -> ?wal:Mcl_resilience.Wal.t -> ?wal_path:string ->
  ?faults:Mcl_resilience.Fault.t -> ?max_pending:int -> ?max_line:int ->
  ?max_conns:int -> ?snapshot_every:int -> ?drain_signals:bool ->
  max_batch:int -> [ `Socket of string | `Stdio ] -> unit
