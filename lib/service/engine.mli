(** The resident request engine.

    Holds the design cache, the aggregated counters, and the execution
    logic for one batch of requests:

    - the batch is planned into segments ({!Batch.plan}); global
      requests and the per-design groups of a segment all run in batch
      order on the control thread;
    - within a design group, maximal runs of adjacent [eco] requests
      coalesce into a single {!Mcl.Eco.relegalize} call (one segment
      rebuild instead of [n]); each request still gets its own
      response, with [metrics.coalesced] set to the run length. If a
      merged run fails, it rolls back and its members are retried
      individually, so one bad request never poisons its batch-mates
      (their retried responses report [coalesced = 1]);
    - every mutation ([legalize], [eco]) is transactional: positions
      and GP anchors are checkpointed first and restored if the
      operation raises, so a failed request leaves the design exactly
      as it was — the error response carries the diagnostics, the
      process never dies.

    Resilience semantics:

    - a request with ["deadline_ms"] runs under a {!Mcl_resilience.Budget}
      polled at the flow's cooperative cancellation points; expiry rolls
      back and answers [P430-deadline-exceeded], or — with
      ["fallback":"greedy"] — re-runs the mutation in bounded-cost
      greedy mode and answers with ["degraded": true];
    - a coalesced eco run executes under the {e tightest} member
      deadline; on expiry the members retry individually so only the
      offender degrades or fails;
    - successful mutations carry their canonical WAL line
      ({!Protocol.to_wire}, with the greedy flag as {e applied}) in
      [response.wal] for the server to journal before answering;
    - an armed {!Mcl_resilience.Fault} plan drives stage failures
      ([S390-injected-fault] at "mgl"/"matching"/"row-order"/"eco"),
      worker deaths ([S310-worker-death], one fate drawn per design
      group before any group runs, the group's design untouched), and
      clock skew
      (all engine timing goes through {!Mcl_resilience.Fault.now}).

    Exactly-once semantics: a mutating request carrying a ["req_id"]
    registers the token in its design's bounded dedup window when it
    succeeds; a retry with the same token still in the window answers
    with the cached response {e verbatim} (original response id, no
    re-journaling) and applies nothing. Tokens ride inside the WAL
    record ([req_id] / merged [req_ids]), so replaying the journal
    re-arms the window for every record still in it — retries stay
    no-ops across a crash.

    Responses come back in request order. *)

type t

(** [create ?max_designs ?faults ~config ()] — [config] is the base
    legalization config used by [legalize] and [eco] (its [threads]
    only sizes the stripe pool of a sharded [legalize]);
    [max_designs] bounds the design cache with LRU eviction
    (default: unbounded, see {!Cache}); [faults] arms a fault-injection
    plan (default: none, all hooks free). Each design's idempotency
    window holds its last 64 acknowledged [req_id]s. *)
val create :
  ?max_designs:int -> ?faults:Mcl_resilience.Fault.t ->
  config:Mcl.Config.t -> unit -> t

val telemetry : t -> Telemetry.t

(** The design cache — exposed for the durability layer ({!Snapshot})
    and the servers' eviction sweeps; mutate entries only under the
    batch discipline documented in {!Cache}. *)
val cache : t -> Cache.t

(** Mark every cached design snapshot-clean and enforce the LRU bound,
    recording any evictions in telemetry; returns the evicted keys.
    Call at durability points only: after a snapshot covering all
    journaled state, or after each batch when no WAL is configured. *)
val mark_cache_clean : t -> string list

(** Execute one batch; [responses.(i)] answers [requests.(i)]. *)
val execute : t -> Protocol.request array -> Protocol.response array

(** Convenience single-request path used by tests and simple clients:
    parse one line (stamped with the current time), execute it alone,
    render the response line. *)
val handle_line : t -> string -> string

(** True once a [shutdown] request has been executed. *)
val shutdown_requested : t -> bool

(** Digest of the resident state a WAL replay must reproduce: per
    design (sorted by key) the source, legalized flag, cell positions
    and GP anchors — but not wall-clock fields, the lazily-built
    congestion maps (queries are not journaled), or the eco request
    counter (coalescing folds N acknowledged members into one
    journaled run). Two engines with equal fingerprints hold
    bit-identical placements. *)
val state_fingerprint : t -> string
