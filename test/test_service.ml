(* The resident ECO legalization service: JSON codec, protocol
   round-trips, structured error responses, rollback-on-failure, and
   batching (eco coalescing + independent-design dispatch). *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Protocol = Mcl_service.Protocol
module Batch = Mcl_service.Batch

let engine ?(config = Mcl.Config.default) () = Engine.create ~config ()

let parse_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "bad response JSON: %s (%s)" msg line

let str path j =
  match Json.get_string path j with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S in %s" path (Json.to_string j)

let handle eng line = parse_exn (Engine.handle_line eng line)

let check_ok what resp =
  Alcotest.(check string) (what ^ " status") "ok" (str "status" resp)

let result_exn resp =
  match Json.member "result" resp with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" (Json.to_string resp)

(* ---------------------------------------------------------------- *)
(* JSON codec                                                        *)
(* ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [ {|{"a":1,"b":[true,false,null],"c":"x\"y\n","d":-2.5e3}|};
      {|[1,2,3]|}; {|"hello"|}; {|{"nested":{"deep":[{"k":0.125}]}}|} ]
  in
  List.iter
    (fun src ->
       match Json.parse src with
       | Error msg -> Alcotest.failf "parse %s: %s" src msg
       | Ok v ->
         (match Json.parse (Json.to_string v) with
          | Ok v' -> Alcotest.(check bool) ("roundtrip " ^ src) true (v = v')
          | Error msg -> Alcotest.failf "reparse %s: %s" src msg))
    cases;
  (* malformed inputs must report, not raise *)
  List.iter
    (fun src ->
       match Json.parse src with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "accepted malformed %s" src)
    [ "{nope"; "[1,2"; "\"unterminated"; "{} trailing"; "01x"; "" ];
  (* \u escapes decode to UTF-8 *)
  match Json.parse {|"Aé"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "\\u escape"

(* ---------------------------------------------------------------- *)
(* Protocol round-trip: load -> legalize -> eco -> query             *)
(* ---------------------------------------------------------------- *)

let test_round_trip () =
  let eng = engine () in
  let load =
    handle eng {|{"id":"l","op":"load","design":"d","cells":300,"seed":11}|}
  in
  check_ok "load" load;
  Alcotest.(check string) "load id echoed" "l" (str "id" load);
  Alcotest.(check (option int)) "cells" (Some 300)
    (Json.get_int "cells" (result_exn load));
  let leg = handle eng {|{"id":"g","op":"legalize","design":"d"}|} in
  check_ok "legalize" leg;
  Alcotest.(check (option bool)) "legal after legalize" (Some true)
    (Json.get_bool "legal" (result_exn leg));
  let eco =
    handle eng {|{"id":"e","op":"eco","design":"d","cells":[3,14,15]}|}
  in
  check_ok "eco" eco;
  Alcotest.(check (option int)) "relegalized" (Some 3)
    (Json.get_int "relegalized" (result_exn eco));
  (match Json.member "metrics" eco with
   | Some m ->
     Alcotest.(check (option int)) "cells_touched" (Some 3)
       (Json.get_int "cells_touched" m);
     Alcotest.(check bool) "service_s >= 0" true
       (match Json.get_float "service_s" m with
        | Some s -> s >= 0.0
        | None -> false)
   | None -> Alcotest.fail "eco response has no metrics");
  let q = handle eng {|{"id":"q","op":"query","design":"d"}|} in
  check_ok "query" q;
  Alcotest.(check (option bool)) "legal after eco" (Some true)
    (Json.get_bool "legal" (result_exn q));
  Alcotest.(check (option int)) "eco_count" (Some 1)
    (Json.get_int "eco_count" (result_exn q));
  (* lint + audit + stats also answer over the same design *)
  check_ok "lint" (handle eng {|{"op":"lint","design":"d"}|});
  check_ok "audit" (handle eng {|{"op":"audit","design":"d"}|});
  let stats = handle eng {|{"op":"stats"}|} in
  check_ok "stats" stats;
  let counters =
    match Json.member "counters" (result_exn stats) with
    | Some c -> c
    | None -> Alcotest.fail "stats without counters"
  in
  Alcotest.(check bool) "requests counted" true
    (match Json.get_int "requests_total" counters with
     | Some n -> n >= 6
     | None -> false)

(* ---------------------------------------------------------------- *)
(* Structured errors                                                 *)
(* ---------------------------------------------------------------- *)

let error_code resp =
  match Json.member "error" resp with
  | Some e -> str "code" e
  | None -> Alcotest.failf "no error body in %s" (Json.to_string resp)

let test_errors () =
  let eng = engine () in
  let bad = handle eng "{this is not json" in
  Alcotest.(check string) "parse status" "error" (str "status" bad);
  Alcotest.(check string) "parse code" "P401-parse-error" (error_code bad);
  let arr = handle eng "[1,2,3]" in
  Alcotest.(check string) "non-object code" "P401-parse-error" (error_code arr);
  let noop = handle eng {|{"design":"d"}|} in
  Alcotest.(check string) "missing op" "P402-bad-request" (error_code noop);
  let unk = handle eng {|{"op":"frobnicate"}|} in
  Alcotest.(check string) "unknown op" "P403-unknown-op" (error_code unk);
  let missing = handle eng {|{"op":"eco","design":"ghost","cells":[1]}|} in
  Alcotest.(check string) "unknown design" "P404-unknown-design"
    (error_code missing);
  let suite = handle eng {|{"op":"load","design":"d","suite":"no_such"}|} in
  Alcotest.(check string) "unknown suite" "P405-unknown-suite" (error_code suite);
  let empty_eco = handle eng {|{"op":"eco","design":"d"}|} in
  Alcotest.(check string) "empty eco" "P402-bad-request" (error_code empty_eco)

(* An infeasible ECO returns a typed S3xx error and the engine keeps
   serving; the failed mutation rolls back to a legal design. *)
let test_infeasible_eco_and_rollback () =
  let eng = engine () in
  check_ok "load"
    (handle eng {|{"op":"load","design":"d","cells":250,"seed":3}|});
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  (* unknown cell id: infeasible request, S302 *)
  let r = handle eng {|{"op":"eco","design":"d","cells":[99999]}|} in
  Alcotest.(check string) "status" "error" (str "status" r);
  Alcotest.(check string) "code" "S302-eco-unknown-cell" (error_code r);
  (* diagnostics ride along in the error body *)
  (match Json.member "error" r with
   | Some e ->
     (match Json.get_list "diagnostics" e with
      | Some (d :: _) ->
        Alcotest.(check (option string)) "diag code"
          (Some "S302-eco-unknown-cell") (Json.get_string "code" d)
      | _ -> Alcotest.fail "no diagnostics in error body")
   | None -> Alcotest.fail "no error body");
  (* a failing eco that *did* start mutating (target rebinding) rolls
     back: target a movable cell but include a bogus one in the same
     request *)
  let q1 = handle eng {|{"op":"query","design":"d"}|} in
  let before = Json.get_float "total_disp_sites" (result_exn q1) in
  let mixed =
    handle eng
      {|{"op":"eco","design":"d","cells":[99999],"targets":[[5,[10,1]]]}|}
  in
  Alcotest.(check string) "mixed status" "error" (str "status" mixed);
  let q2 = handle eng {|{"op":"query","design":"d"}|} in
  Alcotest.(check (option bool)) "still legal" (Some true)
    (Json.get_bool "legal" (result_exn q2));
  Alcotest.(check bool) "placement untouched" true
    (before = Json.get_float "total_disp_sites" (result_exn q2));
  (* engine is still alive and serving *)
  check_ok "still serving" (handle eng {|{"op":"query","design":"d"}|})

(* ---------------------------------------------------------------- *)
(* Batching: coalescing + independent-design dispatch                *)
(* ---------------------------------------------------------------- *)

let requests_of lines =
  let now = Unix.gettimeofday () in
  Array.of_list
    (List.mapi
       (fun i line ->
          match
            Protocol.parse ~received:now
              ~default_id:(Printf.sprintf "req-%d" (i + 1)) line
          with
          | Ok r -> r
          | Error e -> Alcotest.failf "request %d rejected: %s" i e.Protocol.message)
       lines)

let test_eco_coalescing () =
  let eng = engine () in
  check_ok "load"
    (handle eng {|{"op":"load","design":"d","cells":300,"seed":7}|});
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let reqs =
    requests_of
      [ {|{"id":"a","op":"eco","design":"d","cells":[1,2]}|};
        {|{"id":"b","op":"eco","design":"d","cells":[30,31]}|};
        {|{"id":"c","op":"query","design":"d"}|} ]
  in
  let resps = Engine.execute eng reqs in
  Alcotest.(check int) "three responses" 3 (Array.length resps);
  Array.iter
    (fun r ->
       let j = parse_exn (Protocol.to_line r) in
       Alcotest.(check string) ("ok " ^ str "id" j) "ok" (str "status" j))
    resps;
  (* both ecos ran as one merged relegalize call *)
  Array.iteri
    (fun i r ->
       if i < 2 then
         match r.Protocol.metrics with
         | Some m ->
           Alcotest.(check int) "coalesced" 2 m.Protocol.coalesced;
           Alcotest.(check int) "own cells" 2 m.Protocol.cells_touched
         | None -> Alcotest.fail "eco without metrics")
    resps;
  (* the merged run relegalized all four cells *)
  let j0 = parse_exn (Protocol.to_line resps.(0)) in
  Alcotest.(check (option int)) "merged relegalized" (Some 4)
    (Json.get_int "relegalized" (result_exn j0));
  (* the query (after the ecos in batch order) still sees a legal design *)
  let jq = parse_exn (Protocol.to_line resps.(2)) in
  Alcotest.(check (option bool)) "legal" (Some true)
    (Json.get_bool "legal" (result_exn jq))

(* A bad request coalesced with a good one must not poison it: the
   merged run fails, rolls back, and the members retry individually. *)
let test_coalesced_failure_retries_individually () =
  let eng = engine () in
  check_ok "load"
    (handle eng {|{"op":"load","design":"d","cells":300,"seed":9}|});
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let reqs =
    requests_of
      [ {|{"id":"good","op":"eco","design":"d","cells":[4,5]}|};
        {|{"id":"bad","op":"eco","design":"d","cells":[99999]}|} ]
  in
  let resps = Engine.execute eng reqs in
  let j_good = parse_exn (Protocol.to_line resps.(0)) in
  let j_bad = parse_exn (Protocol.to_line resps.(1)) in
  Alcotest.(check string) "good succeeds" "ok" (str "status" j_good);
  Alcotest.(check string) "bad fails" "error" (str "status" j_bad);
  Alcotest.(check string) "bad code" "S302-eco-unknown-cell" (error_code j_bad);
  (* the retried good request ran alone *)
  (match resps.(0).Protocol.metrics with
   | Some m -> Alcotest.(check int) "retried solo" 1 m.Protocol.coalesced
   | None -> Alcotest.fail "good eco without metrics");
  let q = handle eng {|{"op":"query","design":"d"}|} in
  Alcotest.(check (option bool)) "still legal" (Some true)
    (Json.get_bool "legal" (result_exn q));
  Alcotest.(check (option int)) "one eco applied" (Some 1)
    (Json.get_int "eco_count" (result_exn q))

let test_parallel_designs () =
  let eng = engine ~config:{ Mcl.Config.default with threads = 4 } () in
  check_ok "load a" (handle eng {|{"op":"load","design":"a","cells":200,"seed":1}|});
  check_ok "load b" (handle eng {|{"op":"load","design":"b","cells":200,"seed":2}|});
  let reqs =
    requests_of
      [ {|{"op":"legalize","design":"a"}|};
        {|{"op":"legalize","design":"b"}|};
        {|{"op":"query","design":"a"}|};
        {|{"op":"query","design":"b"}|} ]
  in
  let resps = Engine.execute eng reqs in
  Array.iter
    (fun r ->
       let j = parse_exn (Protocol.to_line r) in
       Alcotest.(check string) "ok" "ok" (str "status" j);
       match Json.get_bool "legal" (result_exn j) with
       | Some legal -> Alcotest.(check bool) "legal" true legal
       | None -> ())
    resps

(* The batch planner: globals split segments, groups preserve order,
   eco runs are maximal and adjacent-only. *)
let test_batch_plan () =
  let now = Unix.gettimeofday () in
  let req line =
    match Protocol.parse ~received:now ~default_id:"x" line with
    | Ok r -> r
    | Error _ -> Alcotest.fail "plan request"
  in
  let reqs =
    [| req {|{"op":"eco","design":"a","cells":[1]}|};
       req {|{"op":"eco","design":"b","cells":[1]}|};
       req {|{"op":"eco","design":"a","cells":[2]}|};
       req {|{"op":"load","design":"c"}|};
       req {|{"op":"query","design":"a"}|} |]
  in
  match Batch.plan reqs with
  | [ Batch.Groups g1; Batch.Global (3, _); Batch.Groups g2 ] ->
    Alcotest.(check (list string)) "segment 1 keys" [ "a"; "b" ]
      (List.map fst g1);
    Alcotest.(check (list (list int))) "segment 1 indices" [ [ 0; 2 ]; [ 1 ] ]
      (List.map (fun (_, rs) -> List.map fst rs) g1);
    Alcotest.(check (list string)) "segment 2 keys" [ "a" ] (List.map fst g2);
    (* design a's group is one eco run of length 2 *)
    (match Batch.eco_runs (List.assoc "a" g1) with
     | [ `Eco [ _; _ ] ] -> ()
     | _ -> Alcotest.fail "expected one eco run of length 2")
  | other ->
    Alcotest.failf "unexpected plan shape (%d segments)" (List.length other)

(* ---------------------------------------------------------------- *)
(* stats determinism                                                 *)
(* ---------------------------------------------------------------- *)

(* The per-op request listing must not depend on the order ops were
   first seen (it used to come straight out of Hashtbl.fold). *)
let test_telemetry_stats_order_independent () =
  let feed t ops =
    List.iter
      (fun op ->
         Mcl_service.Telemetry.record t ~op ~ok:true ~service_s:0.0 ~cells:1
           ~coalesced_extra:0)
      ops
  in
  let t1 = Mcl_service.Telemetry.create () in
  let t2 = Mcl_service.Telemetry.create () in
  feed t1 [ "query"; "eco"; "load"; "eco"; "legalize" ];
  feed t2 [ "legalize"; "eco"; "query"; "eco"; "load" ];
  let reqs t =
    match Json.member "requests" (Mcl_service.Telemetry.to_json t) with
    | Some (Json.Obj fields) ->
      List.map
        (fun (op, n) -> (op, Option.value (Json.to_int n) ~default:(-1)))
        fields
    | _ -> Alcotest.fail "no requests object"
  in
  Alcotest.(check (list (pair string int)))
    "sorted by op name"
    [ ("eco", 2); ("legalize", 1); ("load", 1); ("query", 1) ]
    (reqs t1);
  Alcotest.(check (list (pair string int))) "insertion-order independent"
    (reqs t1) (reqs t2);
  (* and the JSON listing is byte-identical across the two instances *)
  let requests_json t =
    match Json.member "requests" (Mcl_service.Telemetry.to_json t) with
    | Some j -> Json.to_string j
    | None -> Alcotest.fail "no requests field"
  in
  Alcotest.(check string) "byte-stable requests JSON" (requests_json t1)
    (requests_json t2)

(* [Telemetry.to_json] for a fixed event sequence, [uptime_s] masked:
   the expected string pins every key, its position and its value. *)
let test_telemetry_json_rendering () =
  let module T = Mcl_service.Telemetry in
  let t = T.create () in
  List.iter
    (fun size ->
       T.add t T.Batches 1;
       T.keep_max t T.Max_batch size)
    [ 3; 5; 2 ];
  T.record t ~op:"load" ~ok:true ~service_s:0.002 ~cells:100
    ~coalesced_extra:0;
  T.record ~wait_s:0.001 t ~op:"eco" ~ok:true ~service_s:0.004 ~cells:2
    ~coalesced_extra:1;
  T.record t ~op:"eco" ~ok:false ~service_s:0.0005 ~cells:0
    ~coalesced_extra:0;
  T.record ~wait_s:0.01 t ~op:"query" ~ok:true ~service_s:0.25 ~cells:0
    ~coalesced_extra:0;
  T.add t T.Sheds 2;
  T.keep_max t T.Queue_depth_max 7;
  T.keep_max t T.Queue_depth_max 3;
  T.add t T.Deadline_exceeded 2;
  T.add t T.Degraded 1;
  T.add t T.Windows_built 15;
  T.add t T.Cuts_evaluated 49;
  T.add t T.Cuts_pruned 13;
  List.iter
    (fun (appends, last_seq) ->
       T.add t T.Wal_appends appends;
       T.add t T.Wal_groups 1;
       T.keep_max t T.Wal_last_seq last_seq)
    [ (3, 3); (1, 4) ];
  T.add t T.Wal_replayed 6;
  T.add t T.Wal_torn_tail 1;
  T.add t T.Wal_trailing_garbage 2;
  T.latch_corruption t;
  T.add t T.Dedup_hits 2;
  List.iter
    (fun (seq, bytes) ->
       T.add t T.Snapshots 1;
       T.keep_max t T.Last_snapshot_seq seq;
       T.add t T.Snapshot_truncated_bytes bytes)
    [ (4, 512); (2, 100) ];
  T.add t T.Cache_evictions 2;
  T.set_connections t [ (3, 1); (1, 4) ];
  let masked =
    match T.to_json t with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "uptime_s" then (k, Json.Null) else (k, v))
           fields)
    | _ -> Alcotest.fail "counters are not an object"
  in
  Alcotest.(check string) "counters JSON"
    (String.concat ""
       [ {|{"uptime_s":null,"batches":3,"max_batch":5,"requests_total":4,|};
         {|"requests":{"eco":2,"load":1,"query":1},"errors":1,|};
         {|"eco_coalesced":1,"cells_touched":102,"busy_s":0.2565,"sheds":2,|};
         {|"queue_depth_max":7,"deadline_exceeded":2,"degraded":1,|};
         {|"wal_appends":4,"wal_fsyncs":2,"wal_groups":2,|};
         {|"wal_group_mean":2.0,"wal_last_seq":4,"wal_replayed":6,|};
         {|"wal_torn_tail":1,"wal_trailing_garbage":2,|};
         {|"corruption_detected":true,"dedup_hits":2,"snapshots":2,|};
         {|"last_snapshot_seq":4,"snapshot_truncated_bytes":612,|};
         {|"cache_evictions":2,"connections":[{"conn":1,"queue_depth":4},|};
         {|{"conn":3,"queue_depth":1}],"latency":{"count":4,"mean":0.066875,|};
         {|"min":0.0005,"max":0.26,"p50":0.0021134890398366475,"p95":0.26,|};
         {|"p99":0.26},"windows_built":15,"cuts_evaluated":49,"cuts_pruned":13}|} ])
    (Json.to_string masked)

let test_cache_entries_sorted () =
  let design () =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with Mcl_gen.Spec.seed = 1; num_cells = 10 }
  in
  let entry key =
    { Mcl_service.Cache.key; design = design (); gp_hpwl = 0; source = "test";
      load_wire = ""; loaded_at = 0.0; legalized = false; eco_count = 0;
      congest = None; ctx = None; refine = None; dirty = false;
      last_used = 0; dedup = [] }
  in
  let keys cache =
    List.map
      (fun (e : Mcl_service.Cache.entry) -> e.Mcl_service.Cache.key)
      (Mcl_service.Cache.entries cache)
  in
  let c1 = Mcl_service.Cache.create () in
  List.iter (fun k -> ignore (Mcl_service.Cache.put c1 (entry k))) [ "zeta"; "alpha"; "mid" ];
  let c2 = Mcl_service.Cache.create () in
  List.iter (fun k -> ignore (Mcl_service.Cache.put c2 (entry k))) [ "mid"; "zeta"; "alpha" ];
  Alcotest.(check (list string)) "sorted by key" [ "alpha"; "mid"; "zeta" ] (keys c1);
  Alcotest.(check (list string)) "insertion-order independent" (keys c1) (keys c2)

(* ---------------------------------------------------------------- *)
(* Log-bucketed latency histogram                                    *)
(* ---------------------------------------------------------------- *)

module H = Mcl_service.Histogram

let test_histogram_quantiles () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (H.quantile h 0.5);
  (* 1..1000 ms uniformly: quantiles must land within one log bucket
     (20 buckets/decade => ~12% width) of the exact answer *)
  for i = 1 to 1000 do
    H.add h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (H.count h);
  Alcotest.(check (float 0.5)) "sum" 500.5 (H.sum h);
  Alcotest.(check (float 0.001)) "mean" 0.5005 (H.mean h);
  Alcotest.(check (float 1e-9)) "min exact" 0.001 (H.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 1.0 (H.max_value h);
  List.iter
    (fun q ->
       let got = H.quantile h q in
       let exact = q in
       if Float.abs (got -. exact) /. exact > 0.13 then
         Alcotest.failf "q%.2f: %f too far from %f" q got exact)
    [ 0.25; 0.5; 0.75; 0.95; 0.99 ];
  (* quantiles are clamped into the observed range *)
  Alcotest.(check bool) "p100 <= max" true (H.quantile h 1.0 <= H.max_value h);
  Alcotest.(check bool) "p0 >= min" true (H.quantile h 0.0 >= H.min_value h)

let test_histogram_json () =
  let a = H.create () in
  List.iter (H.add a) [ 0.001; 0.002; 0.003 ];
  (match H.to_json a with
   | Mcl_service.Json.Obj fields ->
     List.iter
       (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "to_json missing %s" k)
       [ "count"; "mean"; "min"; "max"; "p50"; "p95"; "p99" ]
   | _ -> Alcotest.fail "to_json not an object");
  (* out-of-domain samples clamp instead of crashing *)
  let c = H.create () in
  H.add c nan;
  H.add c (-1.0);
  H.add c infinity;
  Alcotest.(check int) "clamped samples counted" 3 (H.count c)

let test_cache_lru_policy () =
  let design () =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with Mcl_gen.Spec.seed = 1; num_cells = 10 }
  in
  let entry key =
    { Mcl_service.Cache.key; design = design (); gp_hpwl = 0; source = "test";
      load_wire = ""; loaded_at = 0.0; legalized = false; eco_count = 0;
      congest = None; ctx = None; refine = None; dirty = false;
      last_used = 0; dedup = [] }
  in
  let module C = Mcl_service.Cache in
  let c = C.create ~max_designs:2 () in
  ignore (C.put c (entry "a"));
  ignore (C.put c (entry "b"));
  (* a is older than b; a fresh put evicts the least-recently-used *)
  Alcotest.(check (list string)) "a evicted" [ "a" ] (C.put c (entry "x"));
  (* touching via find refreshes recency *)
  ignore (C.find c "b");
  Alcotest.(check (list string)) "x (now oldest) evicted" [ "x" ]
    (C.put c (entry "y"));
  (* dirty entries are never evicted, even over bound *)
  (match C.find c "b" with
   | Some e -> e.C.dirty <- true
   | None -> Alcotest.fail "b missing");
  (* marked through [entries], which leaves y's recency alone *)
  List.iter
    (fun (e : C.entry) -> if e.C.key = "y" then e.C.dirty <- true)
    (C.entries c);
  (* the engine inserts entries dirty (not yet durable), so a fresh
     put cannot evict itself either *)
  let z = entry "z" in
  z.Mcl_service.Cache.dirty <- true;
  Alcotest.(check (list string)) "no clean victim" [] (C.put c z);
  Alcotest.(check int) "over bound until a durability point" 3
    (List.length (C.entries c));
  (* mark_all_clean is the durability point: the bound is re-enforced *)
  let evicted = C.mark_all_clean c in
  Alcotest.(check int) "bound restored" 2 (List.length (C.entries c));
  Alcotest.(check int) "one eviction" 1 (List.length evicted);
  Alcotest.(check int) "evictions counted" 3 (C.evictions c)

(* ---------------------------------------------------------------- *)
(* Golden trace                                                      *)
(* ---------------------------------------------------------------- *)

(* A seeded engine trace on two small Table-1 designs, pinned response
   by response. Design "b" is never legalized, so its ecos all run on
   an overlapping GP placement; design "a" is legalized mid-trace.
   The trace covers ecos with and without [targets], coalesced eco
   batches (some with an S302 member, which forces the merged run to
   roll back and its members to retry one by one), [refine] and
   queries; one eco in eight asks for the greedy first-fit. Each batch
   is one [Engine.execute] call. *)
let golden_designs = [ ("a", "des_perf_a_md1"); ("b", "edit_dist_a_md3") ]

let golden_trace () =
  let rng = Mcl_geom.Prng.create 16 in
  let dims =
    List.map
      (fun (key, name) ->
         match Mcl_gen.Suites.find ~scale:0.1 name with
         | Some spec ->
           let d = Mcl_gen.Generator.generate spec in
           let fp = d.Mcl_netlist.Design.floorplan in
           ( key,
             ( Mcl_netlist.Design.num_cells d,
               fp.Mcl_netlist.Floorplan.num_sites,
               fp.Mcl_netlist.Floorplan.num_rows ) )
         | None -> Alcotest.failf "unknown suite design %s" name)
      golden_designs
  in
  let pick_key () = if Mcl_geom.Prng.bool rng then "a" else "b" in
  let cell key =
    let n, _, _ = List.assoc key dims in
    Mcl_geom.Prng.int rng n
  in
  let ints l = String.concat "," (List.map string_of_int l) in
  let eco key =
    let _, sites, rows = List.assoc key dims in
    let cells = List.init (Mcl_geom.Prng.int rng 4) (fun _ -> cell key) in
    let targets =
      if Mcl_geom.Prng.int rng 3 = 0 then
        List.init
          (1 + Mcl_geom.Prng.int rng 2)
          (fun _ ->
             Printf.sprintf "[%d,[%d,%d]]" (cell key)
               (Mcl_geom.Prng.int rng (sites - 20))
               (Mcl_geom.Prng.int rng (rows - 4)))
      else []
    in
    let cells = if cells = [] && targets = [] then [ cell key ] else cells in
    let greedy = Mcl_geom.Prng.int rng 8 = 0 in
    Printf.sprintf
      {|{"op":"eco","design":"%s","cells":[%s],"targets":[%s],"greedy":%b}|}
      key (ints cells) (String.concat "," targets) greedy
  in
  let bad_eco key =
    let n, _, _ = List.assoc key dims in
    Printf.sprintf {|{"op":"eco","design":"%s","cells":[%d,%d]}|} key
      (cell key) (n + 7)
  in
  let query key = Printf.sprintf {|{"op":"query","design":"%s"}|} key in
  let refine key =
    Printf.sprintf {|{"op":"refine","design":"%s","k":2,"node_budget":5000}|}
      key
  in
  let random_batch () =
    match Mcl_geom.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 -> [ eco (pick_key ()) ]
    | 4 | 5 | 6 ->
      let key = pick_key () in
      let members = List.init (2 + Mcl_geom.Prng.int rng 2) (fun _ -> eco key) in
      if Mcl_geom.Prng.bool rng then
        let at = Mcl_geom.Prng.int rng (List.length members) in
        List.concat
          (List.mapi
             (fun i m -> if i = at then [ bad_eco key; m ] else [ m ])
             members)
      else members
    | 7 | 8 -> [ query (pick_key ()) ]
    | _ -> [ eco "a"; eco "b"; query "a" ]
  in
  let loads =
    List.map
      (fun (key, name) ->
         [ Printf.sprintf {|{"op":"load","design":"%s","suite":"%s","scale":0.1}|}
             key name ])
      golden_designs
  in
  let phase n = List.init n (fun _ -> random_batch ()) in
  let phase1 = phase 16 in
  let mid = [ [ query "a"; query "b" ]; [ {|{"op":"legalize","design":"a"}|} ];
              [ refine "a" ] ] in
  let phase2 = phase 16 in
  loads @ phase1 @ mid @ phase2
  @ [ [ refine "a"; refine "b" ]; [ query "a" ]; [ query "b" ] ]

(* Wall-clock fields zeroed; the WAL line rides along. *)
let golden_line (r : Protocol.response) =
  let rec zero = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "seconds" then (k, Json.Float 0.0) else (k, zero v))
           fields)
    | Json.List l -> Json.List (List.map zero l)
    | v -> v
  in
  let r =
    { r with
      Protocol.result = Result.map zero r.Protocol.result;
      metrics =
        Option.map
          (fun m -> { m with Protocol.queue_wait_s = 0.0; service_s = 0.0 })
          r.Protocol.metrics }
  in
  Protocol.to_line r ^ "\t" ^ Option.value r.Protocol.wal ~default:""

let run_golden_trace () =
  let eng = engine () in
  let counter = ref 0 in
  let lines =
    List.concat_map
      (fun batch ->
         let reqs =
           Array.of_list
             (List.map
                (fun line ->
                   incr counter;
                   match
                     Protocol.parse ~received:0.0
                       ~default_id:(Printf.sprintf "r%d" !counter) line
                   with
                   | Ok r -> r
                   | Error e -> Alcotest.failf "trace line rejected: %s" e.Protocol.message)
                batch)
         in
         Array.to_list (Array.map golden_line (Engine.execute eng reqs)))
      (golden_trace ())
  in
  (lines, Engine.state_fingerprint eng)

(* Pinned from an engine that built a fresh insertion context for
   every eco and rolled back from snapshots: keeping the context
   resident and rolling back from an undo log must leave every
   response byte, and the final state, unchanged. Responses 2, 4-7,
   9-11, 14, 15, 19, 22-25, 31, 33, 35-37, 42, 48 and 54 are ecos on
   design "b" whose window holds a cell overlapping an obstacle: they
   answer S305-window-overlap and roll back. *)
let golden_digests =
  [| "31c21a1051e2fe340bbaa943553b699b";
     "9c4895ee24546074255db76a2403e4d5";
     "3d854335906748ef0cc0efa66d5e6f91";
     "ffaedcad02f65f8f4580ac670d502acb";
     "27d77bafb51839087fb16b90172bbf6c";
     "fb642a66d5fc8dcff1b98b6fc75f0c0d";
     "7aa4c66b782afa0f8ec454ff352c7850";
     "47934bbe440104ae1bcf82b28cea0b3b";
     "15e5c1a4a93557b985ad7df84d54e9fd";
     "4fa2e81564927d782515c9fb398f7f0c";
     "7564c5e0f153dbfd124f0fce1943dca7";
     "227c526e531b2391f04758b361f97773";
     "b4c254891b9bebb62d887b256754a3e0";
     "ab023aaffdc05153ca9d5f38651e5d62";
     "6297f535a245faf26de8c6eec5ca91da";
     "6205bf743274946ef4bcbb17090430b9";
     "485cd2e4247db566fd3b90bfa0198f8a";
     "1d4cc84189163dfa8aaf5d014ebd9816";
     "d0ea7ebd73a75b9d30660d6c5adc69a7";
     "c9377c3e5af67575f3a7cb1bc228064c";
     "845281e3967b4816448ada3e72566ddf";
     "17a96b0b0f512679eb59d92490e16965";
     "6af97d9e1b7fc2aabb8862b256525aae";
     "9cd10fb6c16b242fba0421c7ee1f8f4a";
     "3679eea1f0f60c438ee7d48062d3db97";
     "52b7e669daadcf1031429bced08ddd52";
     "7d5c4b9dab7a0789f925837023235189";
     "bc68bcfa364c0700fbbf9b84fd4339f2";
     "a8800a16db9d559c37f8001dd73ddba9";
     "52ce7621b4e215f43b3cacf08be37489";
     "5882bbbb6e4b4802602bfa488c492f3e";
     "ec94c415c51419d9c3ccf1aecb2e1863";
     "aab9a84d556b1949915590a701516d9e";
     "c1bce7f1f33f5134e76dcf2e9ed701f1";
     "f4c8d3a3d0bfa89bd7ae02e9c4c3157d";
     "142050acff2c00fa514653e4c1d76d0f";
     "70b6461b4e2cac625664d210dc6c5e12";
     "d4499062ccc7d86f42f1eebd5d5a51a8";
     "c1504aaa3b6eb227ac42e5dcd8e070ab";
     "cd9a7883fa94b4f9e2de4f8dc56f50ad";
     "bc49ec4fbb746f3e25379803a7dd4ca8";
     "fc0d1612dc961c201b44c60b5268a746";
     "1a69506a5795ed97bc5ada948e591d67";
     "65e90708b800e95e4626d74bb6f1fe47";
     "0063c0d06a9bbd38812a9f18280a2141";
     "74b4477729094abebac95308706d5893";
     "900abdde08a6c9ea17a34cb8add5b8a2";
     "c24e7c6791009769b27e163b95fd90d8";
     "f579b10e8134759b422e8e4f0f260f10";
     "4e05430964f26be82cc2bf089dab790f";
     "987dead6de2b9e3be1bc7d0d4bbd934a";
     "0419c4f2fa31f7c3d97c40c53f0eba9a";
     "0676fd16a19df2c745eb1001d43d171f";
     "847c8390467190bc280d7e334564d0a4";
     "e015a6bea98c337d38f308020ccfc704";
     "b6fc80e18bb2614b9e13d48b48e47f77";
     "186773c82c35e377a4a1168d1c3b5f81";
     "8fa06363b0ed13d55cf02001f6c5da70";
     "b8dcc8714c58adf92dca32b691ae5f70";
     "3ddcf2c862c837488c2f892093e58757";
     "860e1d1cfd035482e4d7fd4a8dbf3b2d";
     "0c16a74287b389fe7d8061a31d6f88c8";
     "dc0fe4a142141b37a2caa4257a32a736";
     "b2b8da79250b3865b424b404be26ecbd";
     "5faf278539a7761ded705c387066d917";
     "44082f6aaa8f252e4274a15495d19289";
     "43de55aa312cd414869a52dd1de53e6f";
     "7b67ebd872592225477f8b6ad9ad67b0"; |]

let golden_fingerprint = "63f7b98d29f1a90278b0098277a58117"

let test_golden_trace () =
  let lines, fingerprint = run_golden_trace () in
  let digests = Array.of_list (List.map (fun l -> Digest.to_hex (Digest.string l)) lines) in
  Alcotest.(check int) "response count" (Array.length golden_digests)
    (Array.length digests);
  Array.iteri
    (fun i d ->
       if d <> golden_digests.(i) then
         Alcotest.failf "response %d differs: %s" i (List.nth lines i))
    digests;
  Alcotest.(check string) "final state" golden_fingerprint fingerprint

(* ---------------------------------------------------------------- *)
(* Resident insertion context                                        *)
(* ---------------------------------------------------------------- *)

module Cache = Mcl_service.Cache

let entry_exn eng key =
  match Cache.find (Engine.cache eng) key with
  | Some e -> e
  | None -> Alcotest.failf "design %s not loaded" key

(* The resident context may be absent, but when present its rows are
   exactly what a fresh build over the same positions gives, and the
   tracked congestion map equals a rebuild. *)
let resident_state_ok (e : Cache.entry) =
  let d = e.Cache.design in
  let ctx_ok =
    match e.Cache.ctx with
    | None -> true
    | Some ctx ->
      let fresh = Mcl.Placement.of_design d in
      let row p r =
        let arr, len = Mcl.Placement.row_cells p r in
        Array.sub arr 0 len
      in
      let ok = ref true in
      for r = 0 to d.Mcl_netlist.Design.floorplan.Mcl_netlist.Floorplan.num_rows - 1 do
        if row ctx.Mcl.Insertion.placement r <> row fresh r then ok := false
      done;
      !ok
  in
  let map_ok =
    match e.Cache.congest with
    | None -> true
    | Some m ->
      Mcl_congest.Congestion.equal m
        (Mcl_congest.Congestion.create
           ~bin_sites:(Mcl_congest.Congestion.grid m).Mcl_congest.Grid.bin_sites d)
  in
  ctx_ok && map_ok

let execute_lines eng lines =
  Engine.execute eng
    (Array.of_list
       (List.mapi
          (fun i line ->
             match Protocol.parse ~received:0.0 ~default_id:(Printf.sprintf "q%d" i) line with
             | Ok r -> r
             | Error e -> Alcotest.failf "rejected %s: %s" line e.Protocol.message)
          lines))

(* Random traces over one design: ecos (with and without targets,
   greedy or not, sometimes coalesced with an unknown-cell member),
   refines, legalizes and queries, starting from the GP placement.
   Two-site congestion bins make the tracked map notice a cell synced
   from the wrong old position. *)
let prop_resident_invariant =
  QCheck.Test.make ~name:"resident context == fresh build after every op"
    ~count:12 QCheck.(int_range 1 100000)
    (fun seed ->
       let rng = Mcl_geom.Prng.create seed in
       let eng =
         Engine.create
           ~config:{ Mcl.Config.default with Mcl.Config.congestion_bin_sites = 2 }
           ()
       in
       ignore
         (execute_lines eng
            [ Printf.sprintf {|{"op":"load","design":"d","cells":260,"seed":%d}|}
                (1 + (seed mod 50)) ]);
       let n = 260 in
       let eco () =
         let cells =
           List.init (1 + Mcl_geom.Prng.int rng 3) (fun _ -> Mcl_geom.Prng.int rng n)
         in
         let targets =
           if Mcl_geom.Prng.int rng 3 = 0 then
             Printf.sprintf "[[%d,[%d,%d]]]" (Mcl_geom.Prng.int rng n)
               (Mcl_geom.Prng.int rng 40) (Mcl_geom.Prng.int rng 10)
           else "[]"
         in
         Printf.sprintf
           {|{"op":"eco","design":"d","cells":[%s],"targets":%s,"greedy":%b}|}
           (String.concat "," (List.map string_of_int cells))
           targets
           (Mcl_geom.Prng.int rng 6 = 0)
       in
       (* several cells sent to one spot: later insertions shift the
          earlier ones, so one run moves a cell more than once *)
       let crowd () =
         let x = Mcl_geom.Prng.int rng 40 and y = Mcl_geom.Prng.int rng 10 in
         Printf.sprintf {|{"op":"eco","design":"d","targets":[%s]}|}
           (String.concat ","
              (List.init (3 + Mcl_geom.Prng.int rng 4) (fun _ ->
                   Printf.sprintf "[%d,[%d,%d]]" (Mcl_geom.Prng.int rng n) x y)))
       in
       let ok = ref true in
       (* the first query starts tracking the congestion map *)
       ignore (execute_lines eng [ {|{"op":"query","design":"d"}|} ]);
       for _ = 1 to 14 do
         let batch =
           match Mcl_geom.Prng.int rng 10 with
           | 0 -> [ {|{"op":"legalize","design":"d"}|} ]
           | 1 -> [ {|{"op":"refine","design":"d","k":2,"node_budget":3000}|} ]
           | 2 -> [ crowd () ]
           | 3 -> [ eco (); {|{"op":"eco","design":"d","cells":[99999]}|}; eco () ]
           | 4 | 5 -> [ eco (); eco () ]
           | _ -> [ eco () ]
         in
         ignore (execute_lines eng batch);
         if not (resident_state_ok (entry_exn eng "d")) then ok := false
       done;
       !ok)

(* A coalesced eco whose budget expires after cells were re-inserted:
   the undo log must restore the pre-request state exactly, and the
   engine must drop the half-updated context so the next eco answers
   as a fresh engine does. The budget clock is the engine's fault
   clock with only clock skew on, a deterministic fake clock: it jumps
   1-6 s every 2-5 reads. With this seed the 10 s deadline survives
   the run-boundary check and trips at one of the reads the insertion
   loop makes every 32 windows; the test checks that the run's undo
   log holds moves. *)
let test_mid_run_rollback () =
  let prefix =
    [ {|{"op":"load","design":"d","cells":1200,"seed":5}|};
      {|{"op":"legalize","design":"d"}|};
      {|{"op":"eco","design":"d","cells":[7,8]}|} ]
  in
  let next_eco = {|{"op":"eco","design":"d","cells":[3,40],"targets":[[41,[30,6]]]}|} in
  let faults = Mcl_resilience.Fault.create ~seed:3 ~kinds:[ Mcl_resilience.Fault.Clock_skew ] in
  let eng = Engine.create ~faults ~config:Mcl.Config.default () in
  List.iter (fun l -> check_ok l (handle eng l)) prefix;
  let entry = entry_exn eng "d" in
  let ctx =
    match entry.Cache.ctx with
    | Some c -> c
    | None -> Alcotest.fail "no resident context after an eco"
  in
  let log = Option.get ctx.Mcl.Insertion.log in
  let log_before = Array.sub log.Mcl.Arena.Ibuf.a 0 log.Mcl.Arena.Ibuf.len in
  let fingerprint = Engine.state_fingerprint eng in
  let member lo =
    Printf.sprintf {|{"op":"eco","design":"d","cells":[%s],"deadline_ms":10000}|}
      (String.concat "," (List.init 300 (fun i -> string_of_int (lo + (2 * i)))))
  in
  let received = Mcl_resilience.Fault.now (Some faults) in
  let reqs =
    Array.of_list
      (List.mapi
         (fun i line ->
            match Protocol.parse ~received ~default_id:(Printf.sprintf "m%d" i) line with
            | Ok r -> r
            | Error e -> Alcotest.failf "rejected: %s" e.Protocol.message)
         [ member 100; member 101 ])
  in
  Array.iter
    (fun r ->
       let j = parse_exn (Protocol.to_line r) in
       Alcotest.(check string) "member expired" "P430-deadline-exceeded" (error_code j))
    (Engine.execute eng reqs);
  let log_after = Array.sub log.Mcl.Arena.Ibuf.a 0 log.Mcl.Arena.Ibuf.len in
  Alcotest.(check bool) "the run moved cells before expiring" true
    (log_after <> [||] && log_after <> log_before);
  Alcotest.(check bool) "context dropped" true (entry.Cache.ctx = None);
  Alcotest.(check string) "state restored" fingerprint (Engine.state_fingerprint eng);
  let answer eng =
    golden_line (execute_lines eng [ next_eco ]).(0)
  in
  let fresh = engine () in
  List.iter (fun l -> check_ok l (handle fresh l)) prefix;
  Alcotest.(check string) "next eco as on a fresh engine" (answer fresh) (answer eng);
  Alcotest.(check string) "same state as the fresh engine"
    (Engine.state_fingerprint fresh) (Engine.state_fingerprint eng)

let () =
  Alcotest.run "service"
    [ ("json", [ Alcotest.test_case "roundtrip + malformed" `Quick test_json_roundtrip ]);
      ("protocol",
       [ Alcotest.test_case "load-legalize-eco-query" `Quick test_round_trip;
         Alcotest.test_case "error shapes" `Quick test_errors;
         Alcotest.test_case "infeasible eco + rollback" `Quick
           test_infeasible_eco_and_rollback ]);
      ("batching",
       [ Alcotest.test_case "eco coalescing" `Quick test_eco_coalescing;
         Alcotest.test_case "coalesced failure retries individually" `Quick
           test_coalesced_failure_retries_individually;
         Alcotest.test_case "parallel designs" `Quick test_parallel_designs;
         Alcotest.test_case "plan shape" `Quick test_batch_plan ]);
      ("stats",
       [ Alcotest.test_case "telemetry per-op listing deterministic" `Quick
           test_telemetry_stats_order_independent;
         Alcotest.test_case "telemetry JSON rendering" `Quick
           test_telemetry_json_rendering;
         Alcotest.test_case "cache entries sorted by key" `Quick
           test_cache_entries_sorted ]);
      ("histogram",
       [ Alcotest.test_case "log-bucket quantiles" `Quick
           test_histogram_quantiles;
         Alcotest.test_case "json + clamping" `Quick test_histogram_json ]);
      ("cache-lru",
       [ Alcotest.test_case "LRU policy, dirty protection" `Quick
           test_cache_lru_policy ]);
      ("golden",
       [ Alcotest.test_case "seeded engine trace, byte-pinned" `Quick
           test_golden_trace ]);
      ("resident",
       [ QCheck_alcotest.to_alcotest prop_resident_invariant;
         Alcotest.test_case "mid-run rollback replays the log" `Quick
           test_mid_run_rollback ]) ]
