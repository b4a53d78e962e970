(* The resident ECO legalization service: JSON codec, protocol
   round-trips, structured error responses, rollback-on-failure, and
   batching (eco coalescing + independent-design dispatch). *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Protocol = Mcl_service.Protocol
module Batch = Mcl_service.Batch

let engine ?(threads = 1) () =
  Engine.create ~threads ~config:Mcl.Config.default ()

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
  let eng = engine ~threads:4 () in
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
      congest = None; refine = None; dirty = false; pinned = false;
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

let test_histogram_merge_json () =
  let a = H.create () and b = H.create () in
  List.iter (H.add a) [ 0.001; 0.002; 0.003 ];
  List.iter (H.add b) [ 0.1; 0.2 ];
  H.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (H.count a);
  Alcotest.(check (float 1e-9)) "merged max" 0.2 (H.max_value a);
  Alcotest.(check (float 1e-9)) "merged sum" 0.306 (H.sum a);
  (match H.to_json a with
   | Mcl_service.Json.Obj fields ->
     List.iter
       (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "to_json missing %s" k)
       [ "count"; "mean"; "min"; "max"; "p50"; "p95"; "p99" ]
   | _ -> Alcotest.fail "to_json not an object");
  H.clear a;
  Alcotest.(check int) "cleared" 0 (H.count a);
  (* out-of-domain samples clamp instead of crashing *)
  H.add a nan;
  H.add a (-1.0);
  H.add a infinity;
  Alcotest.(check int) "clamped samples counted" 3 (H.count a)

let test_cache_lru_policy () =
  let design () =
    Mcl_gen.Generator.generate
      { Mcl_gen.Spec.default with Mcl_gen.Spec.seed = 1; num_cells = 10 }
  in
  let entry key =
    { Mcl_service.Cache.key; design = design (); gp_hpwl = 0; source = "test";
      load_wire = ""; loaded_at = 0.0; legalized = false; eco_count = 0;
      congest = None; refine = None; dirty = false; pinned = false;
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
  (* dirty and pinned entries are never evicted, even over bound *)
  (match C.find c "b" with
   | Some e -> e.C.dirty <- true
   | None -> Alcotest.fail "b missing");
  C.pin c "y";
  (* the engine inserts entries dirty (not yet durable), so a fresh
     put cannot evict itself either *)
  let z = entry "z" in
  z.Mcl_service.Cache.dirty <- true;
  Alcotest.(check (list string)) "no clean unpinned victim" [] (C.put c z);
  Alcotest.(check int) "over bound until a durability point" 3
    (List.length (C.entries c));
  C.unpin c "y";
  (* mark_all_clean is the durability point: the bound is re-enforced *)
  let evicted = C.mark_all_clean c in
  Alcotest.(check int) "bound restored" 2 (List.length (C.entries c));
  Alcotest.(check int) "one eviction" 1 (List.length evicted);
  Alcotest.(check int) "evictions counted" 3 (C.evictions c)

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
         Alcotest.test_case "merge + json + clamping" `Quick
           test_histogram_merge_json ]);
      ("cache-lru",
       [ Alcotest.test_case "LRU policy, dirty/pinned protection" `Quick
           test_cache_lru_policy ]) ]
