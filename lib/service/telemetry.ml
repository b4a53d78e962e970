type counter =
  | Batches | Max_batch | Errors | Eco_coalesced | Cells_touched | Sheds
  | Queue_depth_max | Deadline_exceeded | Degraded | Wal_appends | Wal_groups
  | Wal_last_seq | Wal_replayed | Wal_torn_tail | Wal_trailing_garbage
  | Dedup_hits | Snapshots | Last_snapshot_seq | Snapshot_truncated_bytes
  | Cache_evictions | Windows_built | Cuts_evaluated | Cuts_pruned

(* the counter's key in the [stats] JSON *)
let name = function
  | Batches -> "batches" | Max_batch -> "max_batch" | Errors -> "errors"
  | Eco_coalesced -> "eco_coalesced" | Cells_touched -> "cells_touched"
  | Sheds -> "sheds" | Queue_depth_max -> "queue_depth_max"
  | Deadline_exceeded -> "deadline_exceeded" | Degraded -> "degraded"
  | Wal_appends -> "wal_appends" | Wal_groups -> "wal_groups"
  | Wal_last_seq -> "wal_last_seq" | Wal_replayed -> "wal_replayed"
  | Wal_torn_tail -> "wal_torn_tail"
  | Wal_trailing_garbage -> "wal_trailing_garbage"
  | Dedup_hits -> "dedup_hits" | Snapshots -> "snapshots"
  | Last_snapshot_seq -> "last_snapshot_seq"
  | Snapshot_truncated_bytes -> "snapshot_truncated_bytes"
  | Cache_evictions -> "cache_evictions" | Windows_built -> "windows_built"
  | Cuts_evaluated -> "cuts_evaluated" | Cuts_pruned -> "cuts_pruned"

type t = {
  lock : Mutex.t;
  started_at : float;
  counts : (string, int) Hashtbl.t;  (* keyed by [name]; absent = 0 *)
  per_op : (string, int) Hashtbl.t;
  mutable busy_s : float;
  mutable corruption_detected : bool;
  mutable connections : (int * int) list;  (* conn id, pending depth *)
  latency : Histogram.t;  (* queue wait + service time, per request *)
}

let create () =
  { lock = Mutex.create ();
    started_at = Unix.gettimeofday ();
    counts = Hashtbl.create 32;
    per_op = Hashtbl.create 8;
    busy_s = 0.0;
    corruption_detected = false;
    connections = [];
    latency = Histogram.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* unlocked primitives; every public entry point takes the lock *)
let read t c = Option.value (Hashtbl.find_opt t.counts (name c)) ~default:0
let bump t c n = Hashtbl.replace t.counts (name c) (read t c + n)

let add t c n = locked t (fun () -> bump t c n)

let keep_max t c v =
  locked t (fun () -> if v > read t c then Hashtbl.replace t.counts (name c) v)

let get t c = locked t (fun () -> read t c)

let record ?(wait_s = 0.0) t ~op ~ok ~service_s ~cells ~coalesced_extra =
  locked t (fun () ->
      Hashtbl.replace t.per_op op
        (1 + Option.value (Hashtbl.find_opt t.per_op op) ~default:0);
      if not ok then bump t Errors 1;
      bump t Eco_coalesced coalesced_extra;
      bump t Cells_touched cells;
      t.busy_s <- t.busy_s +. service_s;
      Histogram.add t.latency (wait_s +. service_s))

let latch_corruption t = locked t (fun () -> t.corruption_detected <- true)

let corruption_detected t = locked t (fun () -> t.corruption_detected)

let set_connections t depths =
  locked t (fun () ->
      t.connections <-
        List.sort (fun (a, _) (b, _) -> Int.compare a b) depths)

let connections t = locked t (fun () -> t.connections)

let uptime_s t = Unix.gettimeofday () -. t.started_at

(* keyed sort: op names are unique, so ordering by key alone makes the
   stats listing byte-stable across runs *)
let sorted_ops t =
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) t.per_op []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  locked t (fun () ->
      let requests = sorted_ops t in
      let ints cs = List.map (fun c -> (name c, Json.Int (read t c))) cs in
      (* one commit group is one fsync: a single counter feeds both *)
      let groups = read t Wal_groups in
      let mean_group =
        if groups = 0 then 0.0
        else Float.of_int (read t Wal_appends) /. Float.of_int groups
      in
      Json.Obj
        ([ ("uptime_s", Json.Float (uptime_s t)) ]
         @ ints [ Batches; Max_batch ]
         @ [ ("requests_total",
              Json.Int (List.fold_left (fun acc (_, n) -> acc + n) 0 requests));
             ("requests",
              Json.Obj (List.map (fun (op, n) -> (op, Json.Int n)) requests)) ]
         @ ints [ Errors; Eco_coalesced; Cells_touched ]
         @ [ ("busy_s", Json.Float t.busy_s) ]
         @ ints [ Sheds; Queue_depth_max; Deadline_exceeded; Degraded;
                  Wal_appends ]
         @ [ ("wal_fsyncs", Json.Int groups);
             ("wal_groups", Json.Int groups);
             ("wal_group_mean", Json.Float mean_group) ]
         @ ints [ Wal_last_seq; Wal_replayed; Wal_torn_tail;
                  Wal_trailing_garbage ]
         @ [ ("corruption_detected", Json.Bool t.corruption_detected) ]
         @ ints [ Dedup_hits; Snapshots; Last_snapshot_seq;
                  Snapshot_truncated_bytes; Cache_evictions ]
         @ [ ("connections",
              Json.List
                (List.map
                   (fun (id, depth) ->
                      Json.Obj
                        [ ("conn", Json.Int id); ("queue_depth", Json.Int depth) ])
                   t.connections));
             ("latency", Histogram.to_json t.latency) ]
         @ ints [ Windows_built; Cuts_evaluated; Cuts_pruned ]))
