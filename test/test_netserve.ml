(* Multi-client event loop (lib/netserve): round-robin fairness and
   same-design serialization observable in the WAL record order,
   backpressure shedding, group-commit durability at every commit
   point (including across snapshot+truncation boundaries and a crash
   landing between snapshot rename and WAL truncation), byte-identical
   determinism under injected IO faults, and the LRU design-cache
   bound. *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Server = Mcl_service.Server
module Snapshot = Mcl_service.Snapshot
module Netserve = Mcl_netserve.Netserve
module Fault = Mcl_resilience.Fault
module Wal = Mcl_resilience.Wal

let config = Mcl.Config.default

let engine ?max_designs () = Engine.create ?max_designs ~config ()

let with_tmpdir f =
  let dir = Filename.temp_file "mcl_netserve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          (try Sys.readdir dir with _ -> [||]);
        try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let parse_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "bad response JSON: %s (%s)" msg line

let str path j =
  match Json.get_string path j with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S in %s" path (Json.to_string j)

let status resp = str "status" resp

let error_code resp =
  match Json.member "error" resp with
  | Some err -> str "code" err
  | None -> Alcotest.failf "no error body in %s" (Json.to_string resp)

(* -- synchronous harness ------------------------------------------- *)
(* Each client's whole script is pre-written into its socketpair and
   the write side shut down before the loop starts: every line is
   available at the first select wakeup, so admission order, batch
   composition and the WAL record order are pure functions of the
   script set — which is exactly what the fairness and determinism
   tests assert on. [run] terminates on its own once every connection
   has hit EOF with drained queues. *)

type client = { fd : Unix.file_descr; mutable replies : Json.t list }

let run_session ?wal_path ?faults ?snapshot_every ?on_commit ?max_designs
    ?engine:eng ~max_batch scripts =
  let engine = match eng with Some e -> e | None -> engine ?max_designs () in
  let wal =
    Option.map (fun p -> Wal.open_ ~next_seq:(1) ~path:p ()) wal_path
  in
  let t =
    Netserve.create engine ?wal ?wal_path ?faults ?snapshot_every ~max_batch ()
  in
  let clients =
    List.map
      (fun script ->
         let server_end, client_end =
           Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
         in
         ignore (Netserve.add_conn t server_end);
         List.iter
           (fun line ->
              let s = line ^ "\n" in
              let n =
                Unix.write client_end (Bytes.unsafe_of_string s) 0
                  (String.length s)
              in
              if n <> String.length s then
                Alcotest.fail "test harness: short pre-write")
           script;
         Unix.shutdown client_end Unix.SHUTDOWN_SEND;
         { fd = client_end; replies = [] })
      scripts
  in
  Netserve.run ?on_commit t;
  Option.iter Wal.close wal;
  List.iter
    (fun c ->
       let buf = Buffer.create 4096 in
       let chunk = Bytes.create 65536 in
       let rec slurp () =
         match Unix.read c.fd chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | n ->
           Buffer.add_subbytes buf chunk 0 n;
           slurp ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
       in
       slurp ();
       Unix.close c.fd;
       c.replies <-
         Buffer.contents buf |> String.split_on_char '\n'
         |> List.filter (fun l -> String.trim l <> "")
         |> List.map parse_exn)
    clients;
  (engine, List.map (fun c -> c.replies) clients)

let check_all_ok what replies =
  List.iter
    (fun r ->
       if status r <> "ok" then
         Alcotest.failf "%s: expected ok, got %s" what (Json.to_string r))
    replies

(* WAL records as (design, cells) of each journaled eco, in journal
   order — the observable the scheduling tests assert on. *)
let wal_ecos path =
  (Wal.read ~path).Wal.records
  |> List.filter_map (fun (r : Wal.record) ->
      match Json.parse r.Wal.payload with
      | Ok j when Json.get_string "op" j = Some "eco" ->
        let cells =
          match Json.member "cells" j with
          | Some (Json.List l) ->
            List.filter_map (function Json.Int i -> Some i | _ -> None) l
          | _ -> []
        in
        Some (str "design" j, cells)
      | _ -> None)

let load_line key =
  Printf.sprintf {|{"id":"l-%s","op":"load","design":"%s","cells":120,"seed":9}|}
    key key

let legalize_line key =
  Printf.sprintf {|{"id":"g-%s","op":"legalize","design":"%s"}|} key key

let eco_line ?(key = "d") i cell =
  Printf.sprintf {|{"id":"e%d","op":"eco","design":"%s","cells":[%d]}|} i key
    cell

(* ---------------------------------------------------------------- *)

let test_multi_client_roundtrip () =
  let keys = [ "a"; "b"; "c" ] in
  let scripts =
    List.map
      (fun k ->
         [ load_line k; legalize_line k;
           Printf.sprintf {|{"id":"q-%s","op":"query","design":"%s"}|} k k ])
      keys
  in
  let _, replies = run_session ~max_batch:8 scripts in
  List.iter2
    (fun k rs ->
       check_all_ok ("client " ^ k) rs;
       Alcotest.(check int) "one response per request" 3 (List.length rs);
       (* responses come back in request order on each connection *)
       Alcotest.(check (list string))
         "per-connection order"
         [ "l-" ^ k; "g-" ^ k; "q-" ^ k ]
         (List.map (str "id") rs);
       let q = List.nth rs 2 in
       match Json.member "result" q with
       | Some r -> Alcotest.(check bool) "legal" true
                     (Json.get_bool "legal" r = Some true)
       | None -> Alcotest.fail "query without result")
    keys replies

let test_round_robin_serialization () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      (* both clients mutate the same design: per-design serialization
         plus round-robin admission must interleave them 1:1, and the
         journal records that order *)
      let setup = engine () in
      ignore (Engine.handle_line setup (load_line "d"));
      ignore (Engine.handle_line setup (legalize_line "d"));
      let c0 = [ eco_line 0 10; eco_line 1 11; eco_line 2 12 ] in
      let c1 = [ eco_line 0 20; eco_line 1 21; eco_line 2 22 ] in
      let _, replies =
        run_session ~engine:setup ~wal_path:path ~max_batch:1 [ c0; c1 ]
      in
      List.iter (check_all_ok "eco") replies;
      Alcotest.(check (list (pair string (list int))))
        "journal order = strict client alternation"
        [ ("d", [ 10 ]); ("d", [ 20 ]); ("d", [ 11 ]); ("d", [ 21 ]);
          ("d", [ 12 ]); ("d", [ 22 ]) ]
        (wal_ecos path))

let test_no_starvation () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      let setup = engine () in
      List.iter
        (fun k ->
           ignore (Engine.handle_line setup (load_line k));
           ignore (Engine.handle_line setup (legalize_line k)))
        [ "big"; "small" ];
      (* a chatty connection vs a quiet one: the quiet client's two
         requests must land within the first sweeps, not after the
         chatty backlog *)
      let chatty = List.init 20 (fun i -> eco_line ~key:"big" i (i mod 50)) in
      let quiet = [ eco_line ~key:"small" 0 1; eco_line ~key:"small" 1 2 ] in
      let _, replies =
        run_session ~engine:setup ~wal_path:path ~max_batch:4
          [ chatty; quiet ]
      in
      List.iter (check_all_ok "eco") replies;
      (* adjacent same-design ecos coalesce into merged records, so
         assert on flattened per-design cell sequences plus where the
         quiet client's record lands in the journal *)
      let records = wal_ecos path in
      let cells_of k =
        List.concat_map (fun (d, cs) -> if d = k then cs else []) records
      in
      Alcotest.(check (list int)) "chatty trace journaled in order"
        (List.init 20 (fun i -> i mod 50))
        (cells_of "big");
      Alcotest.(check (list int)) "quiet trace journaled in order" [ 1; 2 ]
        (cells_of "small");
      let small_index =
        let rec go i = function
          | [] -> Alcotest.fail "quiet client never journaled"
          | ("small", _) :: _ -> i
          | _ :: tl -> go (i + 1) tl
        in
        go 0 records
      in
      (* the quiet client's whole trace rides the very first round-robin
         sweep: its record is one of the first two, not behind the
         chatty backlog *)
      Alcotest.(check bool) "quiet client served in first sweep" true
        (small_index <= 1))

(* One connection whose whole script goes out in a single write, the
   send side then shut: returns the loop's replies in arrival order. *)
let converse t script =
  let server_end, client_end = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Netserve.add_conn t server_end);
  let s = String.concat "" (List.map (fun l -> l ^ "\n") script) in
  if Unix.write_substring client_end s 0 (String.length s) <> String.length s
  then Alcotest.fail "test harness: short pre-write";
  Unix.shutdown client_end Unix.SHUTDOWN_SEND;
  Netserve.run t;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec slurp () =
    match Unix.read client_end chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n -> Buffer.add_subbytes buf chunk 0 n; slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  Unix.close client_end;
  Buffer.contents buf |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_exn

let test_backpressure_shed () =
  let setup = engine () in
  ignore (Engine.handle_line setup (load_line "d"));
  ignore (Engine.handle_line setup (legalize_line "d"));
  let script = List.init 6 (fun i -> eco_line i (i + 1)) in
  let replies =
    converse (Netserve.create setup ~max_pending:2 ~max_batch:64 ()) script
  in
  Alcotest.(check int) "every line answered" 6 (List.length replies);
  let shed, ok = List.partition (fun r -> status r = "error") replies in
  Alcotest.(check int) "admitted up to the bound" 2 (List.length ok);
  Alcotest.(check int) "the rest shed" 4 (List.length shed);
  List.iter
    (fun r ->
       Alcotest.(check string) "shed code" "P429-overloaded" (error_code r))
    shed;
  (* the whole script arrived in one readable burst, so exactly the
     first two lines were admitted *)
  Alcotest.(check (list string)) "admitted ids" [ "e0"; "e1" ]
    (List.map (str "id") ok)

(* A malformed line inside a batch is answered at its position, not
   ahead of the requests admitted before it. *)
let test_parse_error_in_order () =
  let replies =
    converse
      (Netserve.create (engine ()) ~max_batch:64 ())
      [ {|{"id":"a","op":"stats"}|}; {|{bad|}; {|{"id":"c","op":"stats"}|} ]
  in
  Alcotest.(check (list string)) "request order" [ "ok"; "error"; "ok" ]
    (List.map status replies);
  Alcotest.(check string) "malformed line" "P401-parse-error"
    (error_code (List.nth replies 1));
  Alcotest.(check string) "first reply" "a" (str "id" (List.hd replies));
  Alcotest.(check string) "last reply" "c" (str "id" (List.nth replies 2))

(* -- group-commit durability at every kill point ------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_kill_points_with_snapshots () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      let snap = Snapshot.path_for path in
      (* the full trace flows through the session so recovery has every
         mutation either journaled or snapshotted *)
      let script =
        load_line "d" :: legalize_line "d"
        :: List.init 14 (fun i -> eco_line i (2 * i))
      in
      (* image the durable on-disk state at every commit point: what a
         crash right after this batch's fsync would leave behind *)
      let images = ref [] in
      let live = ref None in
      let eng = engine () in
      let on_commit () =
        let wal_bytes = if Sys.file_exists path then read_file path else "" in
        let snap_bytes =
          if Sys.file_exists snap then Some (read_file snap) else None
        in
        images :=
          (wal_bytes, snap_bytes, Engine.state_fingerprint eng) :: !images
      in
      let _, replies =
        run_session ~engine:eng ~wal_path:path ~snapshot_every:6 ~on_commit
          ~max_batch:4 [ script ]
      in
      List.iter (check_all_ok "trace") replies;
      live := Some (Engine.state_fingerprint eng);
      let images = List.rev !images in
      Alcotest.(check bool) "several commit points" true
        (List.length images >= 4);
      (* at least one image must straddle a snapshot boundary *)
      Alcotest.(check bool) "snapshot happened" true
        (List.exists (fun (_, s, _) -> s <> None) images);
      List.iteri
        (fun i (wal_bytes, snap_bytes, fp) ->
           with_tmpdir (fun dir2 ->
               let p2 = Filename.concat dir2 "r.wal" in
               write_file p2 wal_bytes;
               Option.iter (write_file (Snapshot.path_for p2)) snap_bytes;
               let eng2 = engine () in
               let r = Server.recover eng2 ~path:p2 in
               Alcotest.(check int)
                 (Printf.sprintf "kill point %d: clean journal" i)
                 0 r.Server.failed;
               Alcotest.(check string)
                 (Printf.sprintf "kill point %d: fingerprint-exact" i)
                 fp
                 (Engine.state_fingerprint eng2)))
        images;
      (* the final image equals the live end state *)
      (match (List.rev images, !live) with
       | (_, _, fp) :: _, Some lfp ->
         Alcotest.(check string) "last commit = live end state" lfp fp
       | _ -> Alcotest.fail "no images"))

(* A crash can land after the snapshot's atomic rename but before the
   WAL truncation: the journal then still holds records the snapshot
   already covers, and recovery must skip them instead of replaying
   them on top of the restored state. The image is built explicitly:
   journal a full trace, rebuild the mid-trace state by recovering a
   journal prefix, snapshot that state, and pair the snapshot with the
   UN-truncated full journal. *)
let test_crash_before_truncate () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      let script =
        load_line "d" :: legalize_line "d"
        :: List.init 10 (fun i -> eco_line i (3 * i))
      in
      let eng, replies =
        run_session ~engine:(engine ()) ~wal_path:path ~max_batch:4 [ script ]
      in
      List.iter (check_all_ok "trace") replies;
      let live_fp = Engine.state_fingerprint eng in
      let records = (Wal.read ~path).Wal.records in
      let total = List.length records in
      Alcotest.(check bool) "trace journaled" true (total >= 4);
      let mid = total / 2 in
      let mid_seq = (List.nth records (mid - 1)).Wal.seq in
      (* state as of [mid_seq], rebuilt from the journal prefix *)
      let prefix = Filename.concat dir "prefix.wal" in
      let lines = String.split_on_char '\n' (read_file path) in
      write_file prefix
        (String.concat "\n" (List.filteri (fun i _ -> i < mid) lines) ^ "\n");
      let eng_mid = engine () in
      let rm = Server.recover eng_mid ~path:prefix in
      Alcotest.(check int) "prefix replays clean" 0 rm.Server.failed;
      (* the crash image: snapshot at mid_seq + the full, un-truncated
         journal *)
      Snapshot.write ~cache:(Engine.cache eng_mid) ~upto_seq:mid_seq
        ~path:(Snapshot.path_for path);
      let eng2 = engine () in
      let r = Server.recover eng2 ~path in
      Alcotest.(check int) "covered records skipped" mid r.Server.skipped;
      Alcotest.(check int) "delta replayed" (total - mid) r.Server.replayed;
      Alcotest.(check int) "no replay failures" 0 r.Server.failed;
      Alcotest.(check int) "snapshot seq seen" mid_seq r.Server.snapshot_seq;
      Alcotest.(check string) "fingerprint-exact across the window" live_fp
        (Engine.state_fingerprint eng2))

let test_determinism_under_faults () =
  let kinds =
    match Fault.kinds_of_string "short-read,short-write,eintr" with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  let scripts =
    List.map
      (fun k ->
         load_line k :: legalize_line k
         :: List.init 6 (fun i -> eco_line ~key:k i (5 * i)))
      [ "a"; "b"; "c" ]
  in
  let run seed =
    with_tmpdir (fun dir ->
        let path = Filename.concat dir "p.wal" in
        let eng, replies =
          run_session ~wal_path:path
            ~faults:(Fault.create ~seed ~kinds)
            ~max_batch:4 scripts
        in
        List.iter (check_all_ok "trace") replies;
        let per_design k =
          List.concat_map
            (fun (d, cs) -> if d = k then cs else [])
            (wal_ecos path)
        in
        ( Engine.state_fingerprint eng,
          read_file path,
          List.map per_design [ "a"; "b"; "c" ] ))
  in
  List.iter
    (fun seed ->
       (* a given fault seed replays bit-identically: same journal
          bytes, same end state *)
       let fp1, wal1, cells1 = run seed in
       let fp2, wal2, _ = run seed in
       Alcotest.(check string)
         (Printf.sprintf "seed %d: fingerprint repeats" seed)
         fp1 fp2;
       Alcotest.(check string)
         (Printf.sprintf "seed %d: journal byte-identical" seed)
         wal1 wal2;
       (* across seeds the fault plan may slice reads differently, so
          batch composition (and with it eco coalescing) can shift —
          but per-design arrival order is serialized regardless: every
          design journals its cells in script order under every seed *)
       List.iter2
         (fun k cells ->
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d: design %s journal order" seed k)
              (List.init 6 (fun i -> 5 * i))
              cells)
         [ "a"; "b"; "c" ] cells1)
    [ 1; 2; 3 ]

let test_lru_eviction () =
  (* bound 2, three loads: the oldest clean design is evicted; without
     a WAL every committed batch is a durability point so evictions are
     allowed *)
  let scripts =
    [ [ load_line "a"; load_line "b"; load_line "c";
        {|{"id":"qa","op":"query","design":"a"}|};
        {|{"id":"qb","op":"query","design":"b"}|};
        {|{"op":"stats"}|} ] ]
  in
  let _, replies = run_session ~max_designs:2 ~max_batch:1 scripts in
  let replies = List.hd replies in
  Alcotest.(check int) "six answers" 6 (List.length replies);
  let by_id id = List.find (fun r -> str "id" r = id) replies in
  check_all_ok "loads" (List.filteri (fun i _ -> i < 3) replies);
  Alcotest.(check string) "evicted design is gone" "P404-unknown-design"
    (error_code (by_id "qa"));
  Alcotest.(check string) "resident design still answers" "ok"
    (status (by_id "qb"));
  let stats = List.nth replies 5 in
  match Json.member "result" stats with
  | None -> Alcotest.fail "stats without result"
  | Some r ->
    (match Json.member "counters" r with
     | None -> Alcotest.fail "stats without counters"
     | Some c ->
       Alcotest.(check (option int)) "eviction counted" (Some 1)
         (Json.get_int "cache_evictions" c))

let test_stats_wal_counters () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      let script =
        [ load_line "d"; legalize_line "d"; eco_line 0 4; eco_line 1 9;
          {|{"op":"stats"}|} ]
      in
      let _, replies =
        run_session ~wal_path:path ~snapshot_every:3 ~max_batch:2 [ script ]
      in
      let replies = List.hd replies in
      check_all_ok "trace" replies;
      let stats = List.nth replies 4 in
      let counters =
        match Json.member "result" stats with
        | Some r ->
          (match Json.member "counters" r with
           | Some c -> c
           | None -> Alcotest.fail "stats without counters")
        | None -> Alcotest.fail "stats without result"
      in
      let geti k =
        match Json.get_int k counters with
        | Some v -> v
        | None -> Alcotest.failf "counter %s missing" k
      in
      (* load + legalize + one merged record for the two adjacent ecos *)
      Alcotest.(check int) "journaled mutations" 3 (geti "wal_appends");
      Alcotest.(check bool) "group commit: fewer fsyncs than appends" true
        (geti "wal_fsyncs" < geti "wal_appends");
      Alcotest.(check bool) "snapshot recorded" true (geti "snapshots" >= 1);
      Alcotest.(check bool) "snapshot seq advanced" true
        (geti "last_snapshot_seq" >= 3);
      Alcotest.(check bool) "truncation reclaimed bytes" true
        (geti "snapshot_truncated_bytes" > 0);
      (match Json.member "connections" counters with
       | Some (Json.List (_ :: _)) -> ()
       | _ -> Alcotest.fail "per-connection queue depths missing");
      match Json.member "latency" counters with
      | Some l ->
        Alcotest.(check bool) "latency histogram populated" true
          (Json.get_int "count" l <> Some 0 && Json.get_int "count" l <> None)
      | None -> Alcotest.fail "latency histogram missing")

(* -- telemetry call-site parity --------------------------------------- *)
(* One scripted history through the public protocol that reaches every
   counter a call site feeds: WAL replay and a torn tail (recovery),
   batches, queue depth, deadlines (P430 and degraded), kernel work,
   coalescing, dedup hits (eco and load), group commit, snapshots, LRU
   evictions and sheds. Every integer of the final [stats.counters]
   except the clock-derived ones is pinned, so a change to how the
   counters are stored must leave each one exactly where it was. *)

(* One stdio session over a pipe pair. The whole script is in the pipe
   before the loop starts, so the first read admits all of it and the
   batch composition is a pure function of the script. *)
let pipe_session engine ?wal ?wal_path ?snapshot_every ?max_pending ~max_batch
    lines =
  let r_in, w_in = Unix.pipe () in
  let r_out, w_out = Unix.pipe () in
  let input = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let n =
    Unix.write w_in (Bytes.unsafe_of_string input) 0 (String.length input)
  in
  if n <> String.length input then Alcotest.fail "test harness: short pre-write";
  Unix.close w_in;
  let reader =
    Domain.spawn (fun () ->
        let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
        let rec slurp () =
          match Unix.read r_out chunk 0 (Bytes.length chunk) with
          | 0 -> Buffer.contents buf
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
        in
        slurp ())
  in
  let t =
    Netserve.create engine ?wal ?wal_path ?snapshot_every ?max_pending
      ~max_batch ()
  in
  ignore (Netserve.add_stdio t ~in_fd:r_in ~out_fd:w_out);
  Netserve.run t;
  Unix.close w_out;
  Unix.close r_in;
  let out = Domain.join reader in
  Unix.close r_out;
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map parse_exn

(* "key=value" for every integer (and the one boolean) under [j], in
   rendering order; clock-derived fields are skipped *)
let rec counter_ints prefix j =
  match j with
  | Json.Int v -> [ Printf.sprintf "%s=%d" prefix v ]
  | Json.Bool b -> [ Printf.sprintf "%s=%b" prefix b ]
  | Json.Obj fields ->
    List.concat_map
      (fun (k, v) ->
         let key = if prefix = "" then k else prefix ^ "." ^ k in
         match key with
         | "uptime_s" | "busy_s" | "wal_group_mean" -> []
         | k when String.starts_with ~prefix:"latency." k && k <> "latency.count"
           -> []
         | key -> counter_ints key v)
      fields
  | Json.List items ->
    List.concat
      (List.mapi (fun i v -> counter_ints (Printf.sprintf "%s[%d]" prefix i) v)
         items)
  | _ -> []

let test_telemetry_call_site_parity () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "p.wal" in
      (* a journal to recover from, ending in a torn (unterminated) line *)
      let wal = Wal.open_ ~next_seq:1 ~path () in
      ignore
        (pipe_session (engine ()) ~wal ~wal_path:path ~max_batch:1
           [ load_line "a"; legalize_line "a"; eco_line ~key:"a" 1 7 ]);
      Wal.close wal;
      let oc =
        open_out_gen [ Open_append; Open_binary; Open_wronly ] 0o600 path
      in
      output_string oc {|{"seq":4,"crc":12|};
      close_out oc;
      let eng = engine ~max_designs:1 () in
      let r = Server.recover eng ~path in
      Alcotest.(check (pair int int)) "replayed, torn tail" (3, 1)
        (r.Server.replayed, r.Server.torn_tail);
      let wal = Wal.open_ ~next_seq:(r.Server.snapshot_seq + 1) ~path () in
      (* pairs of lines form the batches (max_batch 2); the snapshot
         after the third batch evicts b, the least recently used *)
      let main =
        pipe_session eng ~wal ~wal_path:path ~snapshot_every:4 ~max_batch:2
          [ {|{"id":"lb","op":"load","design":"b","cells":100,"seed":5,"req_id":"L"}|};
            {|{"id":"p430","op":"legalize","design":"b","deadline_ms":0.01}|};
            {|{"id":"deg","op":"legalize","design":"b","deadline_ms":0.01,"fallback":"greedy"}|};
            {|{"id":"lbr","op":"load","design":"b","cells":100,"seed":5,"req_id":"L"}|};
            legalize_line "a";
            {|{"id":"k1","op":"eco","design":"a","cells":[3,14],"req_id":"K"}|};
            eco_line ~key:"a" 2 15;
            eco_line ~key:"a" 3 22;
            {|{"id":"k1r","op":"eco","design":"a","cells":[3,14],"req_id":"K"}|};
            {|{"id":"qa","op":"query","design":"a"}|};
            {|{"id":"qb","op":"query","design":"b"}|};
            {|{"id":"h","op":"health"}|} ]
      in
      Alcotest.(check int) "main session answers" 12 (List.length main);
      (* a burst past the pending bound: the first two lines are
         admitted, the rest shed at arrival; stats runs second *)
      let burst =
        pipe_session eng ~wal ~wal_path:path ~max_pending:2 ~max_batch:1
          ([ {|{"id":"q","op":"query","design":"a"}|}; {|{"id":"s","op":"stats"}|} ]
           @ List.init 5 (fun i -> Printf.sprintf {|{"id":"x%d","op":"health"}|} i))
      in
      Wal.close wal;
      let stats = List.find (fun r -> str "id" r = "s") burst in
      let counters =
        match Option.bind (Json.member "result" stats) (Json.member "counters") with
        | Some c -> c
        | None -> Alcotest.fail "stats without counters"
      in
      Alcotest.(check (list string)) "stats.counters integers"
        [ "batches=11"; "max_batch=2"; "requests_total=16"; "requests.eco=5";
          "requests.health=1"; "requests.legalize=4"; "requests.load=3";
          "requests.query=3"; "errors=2"; "eco_coalesced=2";
          "cells_touched=667"; "sheds=5"; "queue_depth_max=10";
          "deadline_exceeded=2"; "degraded=1"; "wal_appends=5";
          "wal_fsyncs=4"; "wal_groups=4"; "wal_last_seq=8"; "wal_replayed=3";
          "wal_torn_tail=1"; "wal_trailing_garbage=0";
          "corruption_detected=false"; "dedup_hits=2"; "snapshots=1";
          "last_snapshot_seq=7"; "snapshot_truncated_bytes=613";
          "cache_evictions=1"; "connections[0].conn=0";
          "connections[0].queue_depth=0"; "latency.count=16";
          "windows_built=261"; "cuts_evaluated=11936"; "cuts_pruned=948" ]
        (counter_ints "" counters))

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "netserve"
    [ ("event-loop",
       [ Alcotest.test_case "multi-client round-trip" `Quick
           test_multi_client_roundtrip;
         Alcotest.test_case "round-robin serialization" `Quick
           test_round_robin_serialization;
         Alcotest.test_case "no starvation" `Quick test_no_starvation;
         Alcotest.test_case "backpressure P429" `Quick test_backpressure_shed;
         Alcotest.test_case "parse errors in request order" `Quick
           test_parse_error_in_order ]);
      ("durability",
       [ Alcotest.test_case "kill points across snapshots" `Quick
           test_kill_points_with_snapshots;
         Alcotest.test_case "crash before truncate" `Quick
           test_crash_before_truncate ]);
      ("determinism",
       [ Alcotest.test_case "seeded faults, byte-identical" `Quick
           test_determinism_under_faults ]);
      ("cache",
       [ Alcotest.test_case "LRU eviction bound" `Quick test_lru_eviction;
         Alcotest.test_case "stats: wal + connections" `Quick
           test_stats_wal_counters ]);
      ("telemetry",
       [ Alcotest.test_case "call-site parity" `Quick
           test_telemetry_call_site_parity ]) ]
