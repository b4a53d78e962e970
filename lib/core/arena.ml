(* Reusable scratch buffers for the MGL insertion kernel. One arena per
   worker domain; nothing here is synchronized. All buffers grow
   geometrically and are never shrunk, so after warm-up a window build
   allocates nothing. *)

module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create cap = { a = Array.make (max 1 cap) 0; len = 0 }
  let clear b = b.len <- 0

  let ensure b cap =
    if Array.length b.a < cap then begin
      let n = ref (max 16 (2 * Array.length b.a)) in
      while !n < cap do
        n := 2 * !n
      done;
      let a' = Array.make !n 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end

  let push b v =
    ensure b (b.len + 1);
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  (* grow to [n] valid entries; new slots hold unspecified values *)
  let set_len b n =
    ensure b n;
    b.len <- n

  let truncate b n = b.len <- n
  let fill b n v = set_len b n; Array.fill b.a 0 n v
end

module Fbuf = struct
  type t = { mutable a : float array; mutable len : int }

  let create cap = { a = Array.make (max 1 cap) 0.0; len = 0 }
  let clear b = b.len <- 0

  let ensure b cap =
    if Array.length b.a < cap then begin
      let n = ref (max 16 (2 * Array.length b.a)) in
      while !n < cap do
        n := 2 * !n
      done;
      let a' = Array.make !n 0.0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end

  let push b v =
    ensure b (b.len + 1);
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let set_len b n =
    ensure b n;
    b.len <- n
end

(* Epoch-stamped int map over a dense key range: [next_epoch] is an
   O(1) clear, so the per-window "is this cell local?" lookup needs no
   Hashtbl and no per-window allocation. *)
module Marks = struct
  type t = {
    mutable stamp : int array;
    mutable value : int array;
    mutable epoch : int;
  }

  let create cap =
    { stamp = Array.make (max 1 cap) 0;
      value = Array.make (max 1 cap) 0;
      epoch = 0 }

  let ensure m cap =
    if Array.length m.stamp < cap then begin
      let n = ref (max 16 (2 * Array.length m.stamp)) in
      while !n < cap do
        n := 2 * !n
      done;
      let stamp' = Array.make !n 0 and value' = Array.make !n 0 in
      Array.blit m.stamp 0 stamp' 0 (Array.length m.stamp);
      Array.blit m.value 0 value' 0 (Array.length m.value);
      m.stamp <- stamp';
      m.value <- value'
    end

  let next_epoch m = m.epoch <- m.epoch + 1
  let mem m k = m.stamp.(k) = m.epoch

  let set m k v =
    m.stamp.(k) <- m.epoch;
    m.value.(k) <- v

  (* value for [k], or -1 when unmarked this epoch *)
  let get m k = if m.stamp.(k) = m.epoch then m.value.(k) else -1
end

(* ------------------------------------------------------------------ *)
(* In-place sorts (no closure-per-element comparator allocation)       *)
(* ------------------------------------------------------------------ *)

(* Sort a.(0 .. len-1) with the strict order [lt]; [lt] must be a total
   strict order for determinism (tie-break inside the comparison).
   Plain quicksort (middle pivot) with an insertion-sort base; any
   correct sort yields the same array for a strict total order. *)
let sort (a : int array) len ~lt =
  let rec qsort lo hi =
    if hi - lo > 12 then begin
      let p = a.((lo + hi) lsr 1) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while lt a.(!i) p do
          incr i
        done;
        while lt p a.(!j) do
          decr j
        done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
    else
      for i = lo + 1 to hi do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && lt v a.(!j) do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done
  in
  if len > 1 then qsort 0 (len - 1)

let sort_ints (a : int array) len = sort a len ~lt:(fun x y -> x < y)

(* in-place dedup of a sorted prefix; returns the new length *)
let uniq_sorted (a : int array) len =
  if len <= 1 then len
  else begin
    let w = ref 1 in
    for r = 1 to len - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    !w
  end

(* ------------------------------------------------------------------ *)
(* The arena proper: every scratch structure of one insertion worker   *)
(* ------------------------------------------------------------------ *)

type counters = {
  windows_built : int;
  cuts_evaluated : int;  (** cuts that ran the DPs + curve *)
  cuts_pruned : int;     (** cuts skipped by the lower bound *)
}

let zero_counters = { windows_built = 0; cuts_evaluated = 0; cuts_pruned = 0 }

type t = {
  marks : Marks.t;  (* cell id -> local index, epoch per window *)
  (* per-local attributes (window data, struct-of-arrays) *)
  ids : Ibuf.t;
  cur : Ibuf.t;
  wid : Ibuf.t;
  et : Ibuf.t;
  gpx : Ibuf.t;
  c2 : Ibuf.t;
  wgt : Fbuf.t;
  (* occupancy: local -> its (row offset, position in locs) entries,
     flat with [occ_off] prefix offsets (one slot per occupied row) *)
  occ_off : Ibuf.t;
  occ_row : Ibuf.t;
  occ_pos : Ibuf.t;
  (* clipped free spans per window row, flat with prefix offsets *)
  cs_off : Ibuf.t;
  cs_lo : Ibuf.t;
  cs_hi : Ibuf.t;
  (* obstacle-cut sub-spans per window row (-1 edge type = none) *)
  ss_off : Ibuf.t;
  ss_lo : Ibuf.t;
  ss_hi : Ibuf.t;
  ss_let : Ibuf.t;
  ss_ret : Ibuf.t;
  (* local cells per row, by x, flat with prefix offsets; [loc_ss] is
     the flat sub-span index under each entry of [locs], non-decreasing
     along it, so the locals of sub-span j are locs.(ss_lp.(j) ..
     ss_lp.(j+1) - 1) *)
  locs_off : Ibuf.t;
  locs : Ibuf.t;
  loc_ss : Ibuf.t;
  ss_lp : Ibuf.t;
  (* per-row obstacle scratch, rebuilt for each row *)
  ob_lo : Ibuf.t;
  ob_hi : Ibuf.t;
  ob_et : Ibuf.t;
  (* a block's component: the sub-spans its chosen sub-spans reach
     through multi-row locals ([comp_ss] marks them, [comp_q] lists
     them in discovery order) and their locals, by index ([comp_idx])
     and by (cur, idx) ([comp_ord]) *)
  comp_ss : Marks.t;
  comp_q : Ibuf.t;
  comp_idx : Ibuf.t;
  comp_ord : Ibuf.t;
  (* evaluation scratch, indexed by local *)
  dp_m : Ibuf.t;
  dp_bigm : Ibuf.t;
  dp_d : Ibuf.t;
  dp_dr : Ibuf.t;
  best_d : Ibuf.t;   (* push distances of the incumbent candidate *)
  best_dr : Ibuf.t;
  (* common-interval scratch (per y0) *)
  bounds : Ibuf.t;
  ci_lo : Ibuf.t;
  ci_hi : Ibuf.t;
  ci_ss : Ibuf.t;  (* flat, h chosen sub-span indices per interval *)
  (* cut scratch (per block) *)
  cut_x : Ibuf.t;
  cut_idx : Ibuf.t;
  cut_lb : Fbuf.t;
  (* pruning bound: locals by (c2, idx) with displacement-improvement
     prefix/suffix sums *)
  pr_idx : Ibuf.t;
  pr_c2 : Ibuf.t;
  imp_l : Fbuf.t;
  imp_r : Fbuf.t;
  curve : Curve.t;  (* reusable displacement curve *)
  (* counters *)
  mutable windows_built : int;
  mutable cuts_evaluated : int;
  mutable cuts_pruned : int;
}

let create () =
  { marks = Marks.create 64;
    ids = Ibuf.create 64; cur = Ibuf.create 64; wid = Ibuf.create 64;
    et = Ibuf.create 64; gpx = Ibuf.create 64; c2 = Ibuf.create 64;
    wgt = Fbuf.create 64;
    occ_off = Ibuf.create 64; occ_row = Ibuf.create 64;
    occ_pos = Ibuf.create 64;
    cs_off = Ibuf.create 32; cs_lo = Ibuf.create 32; cs_hi = Ibuf.create 32;
    ss_off = Ibuf.create 32; ss_lo = Ibuf.create 64; ss_hi = Ibuf.create 64;
    ss_let = Ibuf.create 64; ss_ret = Ibuf.create 64;
    locs_off = Ibuf.create 32; locs = Ibuf.create 64;
    loc_ss = Ibuf.create 64; ss_lp = Ibuf.create 64;
    ob_lo = Ibuf.create 32; ob_hi = Ibuf.create 32; ob_et = Ibuf.create 32;
    comp_ss = Marks.create 64; comp_q = Ibuf.create 32;
    comp_idx = Ibuf.create 64; comp_ord = Ibuf.create 64;
    dp_m = Ibuf.create 64; dp_bigm = Ibuf.create 64;
    dp_d = Ibuf.create 64; dp_dr = Ibuf.create 64;
    best_d = Ibuf.create 64; best_dr = Ibuf.create 64;
    bounds = Ibuf.create 64;
    ci_lo = Ibuf.create 32; ci_hi = Ibuf.create 32; ci_ss = Ibuf.create 64;
    cut_x = Ibuf.create 64; cut_idx = Ibuf.create 32;
    cut_lb = Fbuf.create 32;
    pr_idx = Ibuf.create 64; pr_c2 = Ibuf.create 64;
    imp_l = Fbuf.create 64; imp_r = Fbuf.create 64;
    curve = Curve.create ();
    windows_built = 0; cuts_evaluated = 0; cuts_pruned = 0 }

let counters a =
  { windows_built = a.windows_built;
    cuts_evaluated = a.cuts_evaluated;
    cuts_pruned = a.cuts_pruned }

(* counter delta across a run *)
let diff ~(before : counters) ~(after : counters) =
  { windows_built = after.windows_built - before.windows_built;
    cuts_evaluated = after.cuts_evaluated - before.cuts_evaluated;
    cuts_pruned = after.cuts_pruned - before.cuts_pruned }

let merge (a : counters) (b : counters) =
  { windows_built = a.windows_built + b.windows_built;
    cuts_evaluated = a.cuts_evaluated + b.cuts_evaluated;
    cuts_pruned = a.cuts_pruned + b.cuts_pruned }
