open Mcl_netlist

type refine_note = {
  rn_windows : int;
  rn_accepted : int;
  rn_proven : int;
  rn_budget : int;
  rn_nodes : int;
  rn_subopt : float;
  rn_score_before : float;
  rn_score_after : float;
}

type entry = {
  key : string;
  design : Design.t;
  gp_hpwl : int;
  source : string;
  load_wire : string;
  loaded_at : float;
  mutable legalized : bool;
  mutable eco_count : int;
  mutable congest : Mcl_congest.Congestion.t option;
  mutable ctx : Mcl.Insertion.ctx option;
  mutable refine : refine_note option;
  mutable dirty : bool;
  mutable last_used : int;
  mutable dedup : (string * Protocol.response) list;
}

type t = {
  table : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  max_designs : int option;
  mutable tick : int;  (* logical LRU clock: bumped per touch *)
  mutable evicted : int;
}

let create ?max_designs () =
  (match max_designs with
   | Some n when n < 1 -> invalid_arg "Cache.create: max_designs must be >= 1"
   | _ -> ());
  { table = Hashtbl.create 8;
    lock = Mutex.create ();
    max_designs;
    tick = 0;
    evicted = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

(* Evict least-recently-used entries while over the bound, but only
   entries that are not dirty (mutated since the last snapshot —
   dropping one would lose acknowledged state that recovery could not
   restore better than the journal already does, and under WAL-without-
   snapshots nothing ever becomes clean, so nothing is ever evicted).
   Eviction runs only from [put] (a [load], which never shares a batch
   segment with a design group) and [mark_all_clean] (between
   batches), so no group is executing on a victim.
   The scan is a keyed min over the table, so the choice is
   deterministic: strictly oldest [last_used] wins, and ties cannot
   happen (the logical clock is strictly increasing). *)
let[@detlint.allow
     K102
       "strict-min scan over unique last_used ticks; the victim choice is \
        iteration-order independent"] evict_over_bound t =
  match t.max_designs with
  | None -> []
  | Some bound ->
    let evicted = ref [] in
    let continue = ref true in
    while !continue && Hashtbl.length t.table > bound do
      let victim =
        Hashtbl.fold
          (fun _ e best ->
             if e.dirty then best
             else
               match best with
               | Some b when b.last_used <= e.last_used -> best
               | _ -> Some e)
          t.table None
      in
      match victim with
      | None -> continue := false  (* everything dirty *)
      | Some e ->
        Hashtbl.remove t.table e.key;
        t.evicted <- t.evicted + 1;
        evicted := e.key :: !evicted
    done;
    List.rev !evicted

let put t entry =
  locked t (fun () ->
      touch t entry;
      Hashtbl.replace t.table entry.key entry;
      evict_over_bound t)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some e ->
        touch t e;
        Some e)

(* Mark every entry snapshot-clean (a snapshot now covers its state)
   and then enforce the bound: entries that were un-evictable only
   because they were dirty become candidates here. *)
let[@detlint.allow
     K102
       "commutative per-entry flag clear; iteration order cannot be \
        observed"] mark_all_clean t =
  locked t (fun () ->
      Hashtbl.iter (fun _ e -> e.dirty <- false) t.table;
      evict_over_bound t)

(* the fold feeds a keyed sort directly, so the listing is independent
   of Hashtbl iteration order (byte-stable across runs) *)
let entries t =
  locked t (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
      |> List.sort (fun a b -> String.compare a.key b.key))

let count t = locked t (fun () -> Hashtbl.length t.table)

let evictions t = locked t (fun () -> t.evicted)

(* Dedup window: newest first, bounded, re-registration moves the id
   to the front. Mutated only under the engine's batch discipline
   (one owner per design within a segment), like [legalized]. *)

let dedup_find e rid = List.assoc_opt rid e.dedup

let dedup_add ~window e rid resp =
  let rest = List.remove_assoc rid e.dedup in
  e.dedup <- (rid, resp) :: List.filteri (fun i _ -> i < window - 1) rest
