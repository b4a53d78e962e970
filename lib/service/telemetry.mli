(** Aggregated service counters, reported by the [stats] op.

    One keyed registry of integer counters, each either summed
    ({!add}) or a running maximum ({!keep_max}), next to the
    per-request accounting of {!record}, the live connections gauge and
    the corruption latch. Every operation is thread-safe under one
    lock. *)

type t

val create : unit -> t

(** The registry's counters; {!to_json} renders each under its
    snake_case name. *)
type counter =
  | Batches  (** incoming batches *)
  | Max_batch  (** gauge: largest batch seen *)
  | Errors  (** requests answered with an error *)
  | Eco_coalesced  (** eco requests that piggybacked on a merged run *)
  | Cells_touched
  | Sheds  (** requests rejected by admission control (P429) *)
  | Queue_depth_max  (** gauge: deepest pending queue observed *)
  | Deadline_exceeded  (** budgets that expired (P430 or degraded) *)
  | Degraded  (** deadline expiries answered by the greedy fallback *)
  | Wal_appends  (** mutations journaled *)
  | Wal_groups
      (** commit groups journaled, one fsync each (rendered as both
          [wal_groups] and [wal_fsyncs]) *)
  | Wal_last_seq  (** gauge: highest journal sequence made durable *)
  | Wal_replayed  (** mutations re-applied during [--recover] *)
  | Wal_torn_tail  (** torn tails repaired during recovery *)
  | Wal_trailing_garbage
      (** terminated bad journal lines dropped during recovery *)
  | Dedup_hits  (** retries answered from the idempotency window *)
  | Snapshots  (** placement snapshots written *)
  | Last_snapshot_seq  (** gauge: highest WAL seq covered by a snapshot *)
  | Snapshot_truncated_bytes  (** journal bytes dropped after snapshots *)
  | Cache_evictions  (** design entries evicted by the LRU bound *)
  | Windows_built  (** insertion windows built by the MGL kernel *)
  | Cuts_evaluated  (** cuts fully evaluated (DPs + curve) *)
  | Cuts_pruned  (** cuts skipped by the kernel's lower bound *)

(** [add t c n] adds [n] to counter [c]. *)
val add : t -> counter -> int -> unit

(** [keep_max t c v] raises gauge [c] to [v] if [v] is larger. *)
val keep_max : t -> counter -> int -> unit

val get : t -> counter -> int

(** [record t ~op ~ok ~service_s ~cells ~coalesced_extra] accounts one
    completed request: [cells] is the number of cells the request
    touched, [coalesced_extra] the number of additional requests merged
    into the same execution (0 when it ran alone). [wait_s] (default 0)
    is the request's queue wait; [wait_s + service_s] feeds the
    end-to-end latency histogram. *)
val record :
  ?wait_s:float -> t -> op:string -> ok:bool -> service_s:float -> cells:int ->
  coalesced_extra:int -> unit

(** Latch the [corruption_detected] flag the [health] op reports: a
    recovery reached a corruption verdict (WAL or snapshot). *)
val latch_corruption : t -> unit

val corruption_detected : t -> bool

(** Replace the live per-connection pending-queue-depth gauge
    (connection id, queued requests); stored sorted by id. *)
val set_connections : t -> (int * int) list -> unit

val connections : t -> (int * int) list

(** Seconds since {!create}. *)
val uptime_s : t -> float

(** Everything above as one JSON object, the [stats] op's [counters];
    [requests_total] is the sum of the per-op counts and [latency] the
    end-to-end latency histogram with p50/p95/p99 (see
    {!Histogram.to_json}). *)
val to_json : t -> Json.t
