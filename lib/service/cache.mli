(** Keyed cache of resident designs, optionally bounded by an LRU
    limit.

    One entry per user-chosen key, holding the parsed/generated design
    plus everything the service needs to answer queries without
    recomputation (the GP wirelength is captured at load time, before
    any legalizer moves cells — scores are meaningless without it).

    With [max_designs] set, the cache evicts least-recently-used
    entries once the bound is exceeded — but only entries that are not
    {e dirty} (mutated since the last snapshot): evicting a dirty
    entry would drop acknowledged state the durability layer has not
    yet captured. Eviction runs only in {!put} (a [load], which never
    shares a batch segment with a design group) and in
    {!mark_all_clean} (between batches), so it never meets an entry a
    group is executing on. Entries become clean via {!mark_all_clean}, called
    by the server after a snapshot (or after every batch when no
    journal is configured, in which case there is nothing to lose).
    Under a WAL without snapshots nothing is ever marked clean, so
    nothing is ever evicted — the conservative default.

    Mutating entries is only safe under the engine's batch discipline:
    a batch segment runs its design groups one at a time on the
    control thread, and loads happen between segments (see {!Batch}).
    Every access comes from that one thread; the table's mutex is
    kept so that a lookup stays safe from any thread. *)

open Mcl_netlist

(** Summary of the latest [refine] op on an entry, surfaced by
    [stats] as the design's measured optimality gap. *)
type refine_note = {
  rn_windows : int;
  rn_accepted : int;
  rn_proven : int;  (** windows solved to a certificate *)
  rn_budget : int;  (** windows that hit the node budget *)
  rn_nodes : int;
  rn_subopt : float;
      (** window cost recovered across proven windows: the measured
          optimality gap of the heuristic on the examined windows *)
  rn_score_before : float;
  rn_score_after : float;
}

type entry = {
  key : string;
  design : Design.t;
  gp_hpwl : int;  (** wirelength of the GP placement, at load time *)
  source : string;  (** human-readable provenance, e.g. ["suite:des_perf_1"] *)
  load_wire : string;
      (** the canonical WAL line of the [load] that created this entry;
          a snapshot re-executes it to rebuild the design before
          restoring positions *)
  loaded_at : float;
  mutable legalized : bool;  (** a full [legalize] has completed *)
  mutable eco_count : int;  (** ECO mutations applied since load *)
  mutable congest : Mcl_congest.Congestion.t option;
      (** congestion map over the entry's current placement, built
          lazily on the first [query] and from then on kept
          incrementally current: [eco] and [refine] patch it from the
          cells they moved, [legalize] rebuilds it (see {!Engine}) *)
  mutable ctx : Mcl.Insertion.ctx option;
      (** resident insertion context ({!Mcl.Eco.context}): every cell
          registered, plus segments, routability tables, curve weights
          and a scratch arena. Built lazily by the first [eco] or
          [refine]; both leave it current on success. [legalize] and
          any failed mutation drop it; [load], snapshot restore and
          recovery create entries without one. Single-owner under the
          batch discipline, like the rest of the entry. *)
  mutable refine : refine_note option;  (** latest [refine] summary *)
  mutable dirty : bool;
      (** mutated since the last snapshot; blocks eviction *)
  mutable last_used : int;  (** logical LRU clock value at last touch *)
  mutable dedup : (string * Protocol.response) list;
      (** bounded idempotency window, newest first: [req_id] of each
          recently acknowledged mutation on this design, mapped to the
          (wal-stripped) response a retry replays verbatim *)
}

type t

(** [create ?max_designs ()] — with [max_designs] set (>= 1), the
    table is bounded and LRU-evicts clean entries past the bound. *)
val create : ?max_designs:int -> unit -> t

(** [put t entry] inserts or replaces the entry under [entry.key],
    then enforces the bound; returns the evicted keys (oldest
    first). *)
val put : t -> entry -> string list

(** Lookup; touches the entry's LRU clock. *)
val find : t -> string -> entry option

(** Mark every entry snapshot-clean, then enforce the bound (entries
    kept only by their dirty flag become evictable); returns the
    evicted keys. *)
val mark_all_clean : t -> string list

(** Snapshot of all entries, sorted by key (stable for tests). *)
val entries : t -> entry list

val count : t -> int

(** Total entries evicted by the bound since creation. *)
val evictions : t -> int

(** {2 Idempotency window} — safe only under the engine's batch
    discipline (one owner per design within a segment). *)

(** The cached response for a seen [req_id], if still in the window. *)
val dedup_find : entry -> string -> Protocol.response option

(** [dedup_add ~window e rid resp] registers an acknowledged
    mutation's token at the front of the window, evicting past the
    bound; re-registration refreshes the token's position. *)
val dedup_add : window:int -> entry -> string -> Protocol.response -> unit
