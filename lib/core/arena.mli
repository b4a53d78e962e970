(** Reusable scratch buffers for the MGL insertion kernel.

    One arena per worker domain; nothing is synchronized. Every buffer
    grows geometrically and never shrinks, so after a short warm-up a
    window build and its cut evaluations allocate nothing. The record
    types are exposed so the kernel's hot loops can index the backing
    arrays directly. *)

(** Growable int buffer. The valid prefix is [a.(0 .. len-1)]. *)
module Ibuf : sig
  type t = { mutable a : int array; mutable len : int }

  val create : int -> t
  val clear : t -> unit

  (** capacity only; [len] unchanged *)
  val ensure : t -> int -> unit

  val push : t -> int -> unit

  (** grow to [n] valid entries; new slots hold unspecified values *)
  val set_len : t -> int -> unit

  val truncate : t -> int -> unit

  (** [fill b n v]: len [n], all [v] *)
  val fill : t -> int -> int -> unit
end

(** Growable float buffer. *)
module Fbuf : sig
  type t = { mutable a : float array; mutable len : int }

  val create : int -> t
  val clear : t -> unit
  val ensure : t -> int -> unit
  val push : t -> float -> unit
  val set_len : t -> int -> unit
end

(** Epoch-stamped int map over a dense key range; [next_epoch] clears
    it in O(1). Replaces the per-window [is_local] Hashtbl. *)
module Marks : sig
  type t

  val create : int -> t

  (** keys < the given bound are valid *)
  val ensure : t -> int -> unit

  val next_epoch : t -> unit
  val mem : t -> int -> bool
  val set : t -> int -> int -> unit

  (** the value, or [-1] when unmarked *)
  val get : t -> int -> int
end

(** In-place sort of [a.(0 .. len-1)] under the strict order [lt];
    [lt] must be a strict {e total} order (tie-break inside the
    comparison) so the result is deterministic. *)
val sort : int array -> int -> lt:(int -> int -> bool) -> unit

val sort_ints : int array -> int -> unit

(** Dedup a sorted prefix in place; returns the new length. *)
val uniq_sorted : int array -> int -> int

type counters = {
  windows_built : int;
  cuts_evaluated : int;  (** cuts that ran the DPs + curve *)
  cuts_pruned : int;     (** cuts skipped by the lower bound *)
}

val zero_counters : counters

(** The insertion worker's scratch: window data (struct-of-arrays),
    sub-span tables, DP arrays, common-interval and cut buffers, the
    reusable displacement curve, and the kernel counters. Field
    meanings are documented in [arena.ml]; the layout is an internal
    contract with [Insertion]. *)
type t = {
  marks : Marks.t;
  ids : Ibuf.t;
  cur : Ibuf.t;
  wid : Ibuf.t;
  et : Ibuf.t;
  gpx : Ibuf.t;
  c2 : Ibuf.t;
  wgt : Fbuf.t;
  occ_off : Ibuf.t;
  occ_row : Ibuf.t;
  occ_pos : Ibuf.t;
  cs_off : Ibuf.t;
  cs_lo : Ibuf.t;
  cs_hi : Ibuf.t;
  ss_off : Ibuf.t;
  ss_lo : Ibuf.t;
  ss_hi : Ibuf.t;
  ss_let : Ibuf.t;
  ss_ret : Ibuf.t;
  locs_off : Ibuf.t;
  locs : Ibuf.t;
  loc_ss : Ibuf.t;
  ss_lp : Ibuf.t;
  ob_lo : Ibuf.t;
  ob_hi : Ibuf.t;
  ob_et : Ibuf.t;
  comp_ss : Marks.t;
  comp_q : Ibuf.t;
  comp_idx : Ibuf.t;
  comp_ord : Ibuf.t;
  dp_m : Ibuf.t;
  dp_bigm : Ibuf.t;
  dp_d : Ibuf.t;
  dp_dr : Ibuf.t;
  best_d : Ibuf.t;
  best_dr : Ibuf.t;
  bounds : Ibuf.t;
  ci_lo : Ibuf.t;
  ci_hi : Ibuf.t;
  ci_ss : Ibuf.t;
  cut_x : Ibuf.t;
  cut_idx : Ibuf.t;
  cut_lb : Fbuf.t;
  pr_idx : Ibuf.t;
  pr_c2 : Ibuf.t;
  imp_l : Fbuf.t;
  imp_r : Fbuf.t;
  curve : Curve.t;
  mutable windows_built : int;
  mutable cuts_evaluated : int;
  mutable cuts_pruned : int;
}

val create : unit -> t

val counters : t -> counters

(** Counter delta across a run. *)
val diff : before:counters -> after:counters -> counters

(** Sum the counts (for per-domain arenas). *)
val merge : counters -> counters -> counters
