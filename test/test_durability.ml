(* Durability hardening: the crash-corruption torture matrix (every
   kill point x corruption-offset class must recover fingerprint-exact
   or refuse with the typed code — never silently diverge), the
   single-byte-flip detection property, legacy-frame compatibility,
   exactly-once req_id retries (live and across recovery), the
   bit-flip / torn-write fault lanes on the real write path, the
   health op, and graceful drain of the event loop. *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Protocol = Mcl_service.Protocol
module Server = Mcl_service.Server
module Snapshot = Mcl_service.Snapshot
module N = Mcl_netserve.Netserve
module Fault = Mcl_resilience.Fault
module Wal = Mcl_resilience.Wal
module Crc32 = Mcl_resilience.Crc32

let config = Mcl.Config.default

let engine () = Engine.create ~config ()

let with_tmpdir f =
  let dir = Filename.temp_file "mcl_durab" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          (try Sys.readdir dir with _ -> [||]);
        try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let parse_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "bad response JSON: %s (%s)" msg line

let str path j =
  match Json.get_string path j with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S in %s" path (Json.to_string j)

let handle eng line = parse_exn (Engine.handle_line eng line)

let status resp = str "status" resp

let error_code resp =
  match Json.member "error" resp with
  | Some err -> str "code" err
  | None -> Alcotest.failf "no error body in %s" (Json.to_string resp)

let check_ok what resp =
  if status resp <> "ok" then
    Alcotest.failf "%s: expected ok, got %s" what (Json.to_string resp)

let parse_req line =
  match Protocol.parse ~received:(Unix.gettimeofday ()) ~default_id:"t" line with
  | Ok req -> req
  | Error e -> Alcotest.failf "request %s rejected: %s" line e.Protocol.message

(* ---------------------------------------------------------------- *)
(* CRC-32                                                            *)
(* ---------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* the IEEE 802.3 check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  let s = "the quick brown fox" in
  Alcotest.(check int) "sub = string on full range"
    (Crc32.string s)
    (Crc32.sub s 0 (String.length s));
  (* one flipped bit always changes the checksum *)
  let base = Crc32.string s in
  String.iteri
    (fun i _ ->
       let b = Bytes.of_string s in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
       if Crc32.string (Bytes.to_string b) = base then
         Alcotest.failf "flip at %d undetected" i)
    s

(* ---------------------------------------------------------------- *)
(* Torture matrix: kill points x corruption-offset classes           *)
(* ---------------------------------------------------------------- *)

(* The journaled trace: load, legalize, one eco, one coalesced eco
   pair — four records, covering every record shape the service
   journals. *)
let torture_trace =
  [ [| {|{"id":"l","op":"load","design":"d","cells":80,"seed":11}|} |];
    [| {|{"op":"legalize","design":"d"}|} |];
    [| {|{"op":"eco","design":"d","cells":[3,14]}|} |];
    [| {|{"op":"eco","design":"d","cells":[7]}|};
       {|{"op":"eco","design":"d","cells":[21]}|} |] ]

(* Run the trace live with journaling; [fps.(k)] is the fingerprint
   after [k] journaled records ([fps.(0)] = the empty engine). *)
let run_torture_trace ~path =
  let eng = engine () in
  let w = Wal.open_ ~path () in
  let fps = ref [ Engine.state_fingerprint eng ] in
  List.iter
    (fun batch ->
       let resps =
         Server.execute_and_journal eng ~wal:w (Array.map parse_req batch)
       in
       Array.iter
         (fun r ->
            if Result.is_error r.Protocol.result then
              Alcotest.failf "torture trace failed: %s" (Protocol.to_line r))
         resps;
       fps := Engine.state_fingerprint eng :: !fps)
    torture_trace;
  Wal.close w;
  Array.of_list (List.rev !fps)

(* Byte offsets of one line's interesting corruption classes: the
   opening brace, a sequence digit, a CRC digit, mid-payload, the
   closing brace. *)
let offset_classes ~line_start line =
  let n = String.length line in
  let crc_off =
    let key = {|"crc":|} in
    let rec find i =
      if i + String.length key > n then n / 2
      else if String.sub line i (String.length key) = key then
        i + String.length key + 1
      else find (i + 1)
    in
    find 0
  in
  List.map (fun off -> line_start + off)
    [ 0; String.length {|{"seq":|}; crc_off; n / 2; n - 1 ]

let flip_byte text off =
  let b = Bytes.of_string text in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x04));
  Bytes.to_string b

let test_torture_matrix () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "live.wal" in
      let fps = run_torture_trace ~path in
      let total = Array.length fps - 1 in
      Alcotest.(check int) "records = batches" (List.length torture_trace) total;
      let fp_set = Array.to_list fps in
      let text = read_file path in
      (* (start, line) of each record, in order *)
      let lines =
        String.split_on_char '\n' text
        |> List.filter (fun l -> String.trim l <> "")
        |> List.fold_left
          (fun (off, acc) l -> (off + String.length l + 1, (off, l) :: acc))
          (0, [])
        |> snd |> List.rev |> Array.of_list
      in
      Alcotest.(check int) "one line per record" total (Array.length lines);
      let case = Filename.concat dir "case.wal" in
      let silent = ref 0 in
      let recover_case ~what ~expect_fp image =
        write_file case image;
        (try Sys.remove (Snapshot.path_for case) with Sys_error _ -> ());
        let eng = engine () in
        (match Server.recover eng ~path:case with
         | r ->
           let fp = Engine.state_fingerprint eng in
           if not (List.mem fp fp_set) then begin
             incr silent;
             Alcotest.failf "%s: silent divergence (replayed %d)" what
               r.Server.replayed
           end;
           (match expect_fp with
            | Some e ->
              Alcotest.(check string) (what ^ ": fingerprint-exact") e fp
            | None ->
              Alcotest.failf "%s: expected a typed refusal, got a clean \
                              recovery" what)
         | exception Server.Corrupt_state { code; message; recovery } ->
           Alcotest.(check string) (what ^ ": typed code")
             "P431-corrupt-journal" code;
           Alcotest.(check bool) (what ^ ": report in message") true
             (recovery.Server.wal_first_bad_seq <> None
              && String.length message > 0));
        (* best effort must always serve some acknowledged prefix *)
        write_file case image;
        let eng = engine () in
        let r = Server.recover ~best_effort:true eng ~path:case in
        let fp = Engine.state_fingerprint eng in
        if not (List.mem fp fp_set) then begin
          incr silent;
          Alcotest.failf "%s (best-effort): silent divergence (replayed %d)"
            what r.Server.replayed
        end
      in
      for k = 1 to total do
        let kill_start, kill_line = lines.(k - 1) in
        let kill_end = kill_start + String.length kill_line + 1 in
        let image = String.sub text 0 kill_end in
        (* clean kill point: fingerprint-exact at ack k *)
        recover_case ~what:(Printf.sprintf "kill %d clean" k)
          ~expect_fp:(Some fps.(k)) image;
        (* torn cut mid-way through the last record: benign, lands on
           ack k-1 *)
        recover_case ~what:(Printf.sprintf "kill %d torn" k)
          ~expect_fp:(Some fps.(k - 1))
          (String.sub text 0 (kill_start + (String.length kill_line / 2)));
        (* flip one byte in every offset class of the last record:
           must refuse with P431, never silently diverge *)
        List.iter
          (fun off ->
             recover_case
               ~what:(Printf.sprintf "kill %d flip@%d" k (off - kill_start))
               ~expect_fp:None
               (flip_byte image off))
          (offset_classes ~line_start:kill_start kill_line)
      done;
      (* flips in the FIRST record of the full journal: everything
         after it is trailing garbage; best-effort serves nothing *)
      let first_start, first_line = lines.(0) in
      List.iter
        (fun off ->
           recover_case ~what:(Printf.sprintf "first-record flip@%d" off)
             ~expect_fp:None (flip_byte text off))
        (offset_classes ~line_start:first_start first_line);
      Alcotest.(check int) "zero silently-divergent cases" 0 !silent)

(* ---------------------------------------------------------------- *)
(* Snapshot corruption: S311                                         *)
(* ---------------------------------------------------------------- *)

let test_snapshot_corruption () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.wal" in
      let snap = Snapshot.path_for path in
      let eng = engine () in
      check_ok "load a"
        (handle eng {|{"op":"load","design":"a","cells":60,"seed":3}|});
      check_ok "load b"
        (handle eng {|{"op":"load","design":"b","cells":60,"seed":4}|});
      Snapshot.write ~cache:(Engine.cache eng) ~upto_seq:2 ~path:snap;
      (* clean control: loads with zero corrupt lines *)
      let eng2 = engine () in
      let r = Server.recover eng2 ~path in
      Alcotest.(check int) "clean: nothing corrupt" 0 r.Server.snapshot_corrupt;
      Alcotest.(check string) "clean: fingerprint-exact"
        (Engine.state_fingerprint eng) (Engine.state_fingerprint eng2);
      (* flip one byte inside a design line *)
      let text = read_file snap in
      let second_line_mid =
        let first_nl = String.index text '\n' in
        first_nl + ((String.length text - first_nl) / 2)
      in
      write_file snap (flip_byte text second_line_mid);
      let eng3 = engine () in
      (match Server.recover eng3 ~path with
       | _ -> Alcotest.fail "corrupt snapshot accepted"
       | exception Server.Corrupt_state { code; recovery; _ } ->
         Alcotest.(check string) "typed code" "S311-corrupt-record" code;
         Alcotest.(check bool) "corrupt line counted" true
           (recovery.Server.snapshot_corrupt >= 1);
         Alcotest.(check int) "nothing replayed on refusal" 0
           recovery.Server.replayed);
      (* best effort: the intact design line still restores *)
      let eng4 = engine () in
      let r = Server.recover ~best_effort:true eng4 ~path in
      Alcotest.(check bool) "best effort: corrupt counted" true
        (r.Server.snapshot_corrupt >= 1);
      (* a damaged header condemns the whole snapshot *)
      write_file snap (flip_byte text 3);
      let eng5 = engine () in
      (match Server.recover eng5 ~path with
       | _ -> Alcotest.fail "corrupt header accepted"
       | exception Server.Corrupt_state { code; _ } ->
         Alcotest.(check string) "header: typed code" "S311-corrupt-record"
           code))

(* ---------------------------------------------------------------- *)
(* QCheck: any single-byte flip in a checksummed record is detected  *)
(* ---------------------------------------------------------------- *)

let gen_flip_case =
  QCheck.Gen.(
    quad
      (list_size (int_range 1 6) (int_range 0 500))
      (int_range 1 5000) (float_range 0.0 1.0) (int_range 0 7))

let arbitrary_flip_case =
  QCheck.make gen_flip_case ~print:(fun (cells, seq_base, frac, bit) ->
      Printf.sprintf "cells=[%s] seq=%d frac=%.3f bit=%d"
        (String.concat ";" (List.map string_of_int cells))
        seq_base frac bit)

let prop_single_byte_flip_detected =
  QCheck.Test.make ~name:"single-byte flip in a checksummed record is caught"
    ~count:150 arbitrary_flip_case
    (fun (cells, seq_base, frac, bit) ->
       with_tmpdir (fun dir ->
           let path = Filename.concat dir "q.wal" in
           let payload =
             Printf.sprintf {|{"op":"eco","design":"q","cells":[%s]}|}
               (String.concat "," (List.map string_of_int cells))
           in
           let w = Wal.open_ ~next_seq:seq_base ~path () in
           ignore (Wal.append w payload);
           Wal.close w;
           (* clean round trip first *)
           let clean = Wal.read ~path in
           if Wal.corrupt clean then QCheck.Test.fail_report "clean read corrupt";
           (match clean.Wal.records with
            | [ r ] when r.Wal.seq = seq_base && r.Wal.payload = payload -> ()
            | _ -> QCheck.Test.fail_report "clean round trip mismatch");
           let text = read_file path in
           (* flip one bit of one byte of the record line (never the
              trailing newline) *)
           let off =
             min (String.length text - 2)
               (int_of_float (frac *. float_of_int (String.length text - 1)))
           in
           let b = Bytes.of_string text in
           Bytes.set b off
             (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
           write_file path (Bytes.to_string b);
           let r = Wal.read ~path in
           Wal.corrupt r && r.Wal.records = []))

(* ---------------------------------------------------------------- *)
(* Legacy-frame compatibility                                        *)
(* ---------------------------------------------------------------- *)

let test_legacy_compat () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "legacy.wal" in
      (* a journal written before the CRC layer *)
      write_file path
        ({|{"seq":1,"req":{"op":"load","design":"d","cells":80,"seed":11}}|}
         ^ "\n" ^ {|{"seq":2,"req":{"op":"legalize","design":"d"}}|} ^ "\n");
      let r = Wal.read ~path in
      Alcotest.(check bool) "legacy journal not corrupt" false (Wal.corrupt r);
      Alcotest.(check int) "legacy frames counted" 2 r.Wal.legacy;
      Alcotest.(check int) "records recovered" 2 (List.length r.Wal.records);
      Alcotest.(check string) "payload exact"
        {|{"op":"legalize","design":"d"}|}
        (List.nth r.Wal.records 1).Wal.payload;
      (* replay works unchanged *)
      let eng = engine () in
      let rec_ = Server.recover eng ~path in
      Alcotest.(check int) "legacy replayed" 2 rec_.Server.replayed;
      (* reopening appends checksummed frames after the legacy prefix *)
      let w = Wal.open_ ~path () in
      Alcotest.(check int) "seq continues" 3
        (Wal.append w {|{"op":"eco","design":"d","cells":[3]}|});
      Wal.close w;
      let r = Wal.read ~path in
      Alcotest.(check int) "mixed journal reads whole" 3
        (List.length r.Wal.records);
      Alcotest.(check int) "only the old frames are legacy" 2 r.Wal.legacy)

(* ---------------------------------------------------------------- *)
(* Bit-flip / torn-write lanes on the real write path                *)
(* ---------------------------------------------------------------- *)

(* Reconstruct the exact checksummed frame the journal writes, so a
   twin plan can predict the armed plan's draws query-for-query. *)
let expect_frame ~seq payload =
  let legacy = Printf.sprintf {|{"seq":%d,"req":%s}|} seq payload in
  Printf.sprintf {|{"seq":%d,"crc":%d,"req":%s}|} seq (Crc32.string legacy)
    payload

let test_fault_lanes_write_path () =
  let payload i = Printf.sprintf {|{"op":"eco","design":"f","cells":[%d]}|} i in
  (* bit-flip lane: the twin plan predicts which append gets flipped;
     recovery must stop exactly there with a corruption verdict *)
  let flip_seed = 5 in
  let predict = Fault.create ~seed:flip_seed ~kinds:[ Fault.Bit_flip ] in
  let armed = Fault.create ~seed:flip_seed ~kinds:[ Fault.Bit_flip ] in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "flip.wal" in
      let w = Wal.open_ ~faults:armed ~path () in
      let first_flipped = ref None in
      for i = 1 to 40 do
        let group = expect_frame ~seq:i (payload i) ^ "\n" in
        (match Fault.bit_flip (Some predict) (String.length group) with
         | Some off when !first_flipped = None ->
           (* a flip of the trailing newline merges two lines; both
              outcomes below accept it as detected damage *)
           first_flipped := Some (i, off)
         | _ -> ());
        ignore (Fault.torn_write (Some predict) (String.length group));
        ignore (Wal.append w (payload i))
      done;
      Wal.close w;
      let r = Wal.read ~path in
      match !first_flipped with
      | None -> Alcotest.fail "seed never fired the bit-flip lane"
      | Some (i, _) ->
        Alcotest.(check bool) "flip detected, never silent" true
          (Wal.corrupt r || r.Wal.torn_tail > 0);
        Alcotest.(check bool)
          (Printf.sprintf "records stop before flipped append %d" i) true
          (List.length r.Wal.records < i));
  (* torn-write lane: a torn final group reads back as the benign torn
     tail, repaired on reopen *)
  let torn_seed = 3 in
  let predict = Fault.create ~seed:torn_seed ~kinds:[ Fault.Torn_write ] in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "torn.wal" in
      let fired = ref None in
      let i = ref 0 in
      while !fired = None && !i < 100 do
        incr i;
        let group = expect_frame ~seq:1 (payload !i) ^ "\n" in
        let keep = Fault.torn_write (Some predict) (String.length group) in
        ignore (Fault.bit_flip (Some predict) (String.length group));
        if keep < String.length group then fired := Some (!i, keep)
      done;
      match !fired with
      | None -> Alcotest.fail "seed never fired the torn-write lane"
      | Some (n, keep) ->
        (* re-arm an identical plan and drive the real write path to
           the same point: append n-1 clean groups, then the torn one *)
        let armed = Fault.create ~seed:torn_seed ~kinds:[ Fault.Torn_write ] in
        let w = Wal.open_ ~faults:armed ~path () in
        for j = 1 to n do ignore (Wal.append w (payload j)) done;
        Wal.close w;
        let r = Wal.read ~path in
        let full = expect_frame ~seq:n (payload n) ^ "\n" in
        Alcotest.(check bool) "prefix strictly shorter" true
          (keep < String.length full);
        Alcotest.(check int) "clean records before the torn group" (n - 1)
          (List.length r.Wal.records);
        Alcotest.(check int) "torn tail, not corruption" 1 r.Wal.torn_tail;
        Alcotest.(check bool) "not a corruption verdict" false (Wal.corrupt r);
        (* reopen repairs and continues *)
        let w = Wal.open_ ~path () in
        Alcotest.(check int) "sequence continues past the repair" n
          (Wal.append w (payload 999));
        Wal.close w)

let test_fault_lane_determinism () =
  (* same seed, same draws — and a lane's stream does not depend on
     which other kinds are enabled *)
  let drain plan =
    List.init 64 (fun i ->
        ( Fault.bit_flip (Some plan) (100 + i),
          Fault.torn_write (Some plan) (100 + i) ))
  in
  let a = drain (Fault.create ~seed:42 ~kinds:[ Fault.Bit_flip; Fault.Torn_write ]) in
  let b = drain (Fault.create ~seed:42 ~kinds:[ Fault.Bit_flip; Fault.Torn_write ]) in
  let c = drain (Fault.create ~seed:42 ~kinds:Fault.all_kinds) in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "lane streams independent of enabled set" true (a = c);
  let d = drain (Fault.create ~seed:43 ~kinds:[ Fault.Bit_flip; Fault.Torn_write ]) in
  Alcotest.(check bool) "different seed differs" true (a <> d);
  (* parse-stable names *)
  (match Fault.kinds_of_string "bit-flip,torn-write" with
   | Ok [ Fault.Bit_flip; Fault.Torn_write ] -> ()
   | _ -> Alcotest.fail "bit-flip,torn-write failed to parse");
  Alcotest.(check bool) "all includes the new lanes" true
    (match Fault.kinds_of_string "all" with
     | Ok ks -> List.mem Fault.Bit_flip ks && List.mem Fault.Torn_write ks
     | Error _ -> false)

(* ---------------------------------------------------------------- *)
(* Exactly-once: req_id dedup, live and across recovery              *)
(* ---------------------------------------------------------------- *)

let test_dedup_live () =
  let eng = engine () in
  check_ok "load"
    (handle eng {|{"op":"load","design":"d","cells":80,"seed":11}|});
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let eco = {|{"id":"e1","op":"eco","design":"d","cells":[3,14],"req_id":"tok-1"}|} in
  let first = Engine.handle_line eng eco in
  check_ok "eco" (parse_exn first);
  let fp = Engine.state_fingerprint eng in
  (* the retry replays the cached response byte for byte and moves
     nothing *)
  let retry = Engine.handle_line eng eco in
  Alcotest.(check string) "retry is byte-identical" first retry;
  Alcotest.(check string) "retry applied nothing" fp
    (Engine.state_fingerprint eng);
  let retry2 = Engine.handle_line eng eco in
  Alcotest.(check string) "third try identical too" first retry2;
  (* dedup hits surface in stats *)
  let stats = handle eng {|{"op":"stats"}|} in
  (match Json.member "result" stats with
   | Some r ->
     (match Json.member "counters" r with
      | Some c ->
        Alcotest.(check (option int)) "dedup hits counted" (Some 2)
          (Json.get_int "dedup_hits" c)
      | None -> Alcotest.fail "no counters in stats")
   | None -> Alcotest.fail "no result in stats");
  (* a fresh token applies normally (the target forces a real move) *)
  check_ok "new token applies"
    (handle eng
       {|{"op":"eco","design":"d","cells":[7],"targets":[[7,[40,2]]],"req_id":"tok-2"}|});
  Alcotest.(check bool) "new token moved state" true
    (Engine.state_fingerprint eng <> fp);
  (* a load retry must not reset the legalized placement *)
  let load_rid = {|{"op":"load","design":"d","cells":80,"seed":11,"req_id":"tok-3"}|} in
  check_ok "load with token" (handle eng load_rid);
  check_ok "relegalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let fp_leg = Engine.state_fingerprint eng in
  check_ok "load retry" (handle eng load_rid);
  Alcotest.(check string) "load retry did not reset placement" fp_leg
    (Engine.state_fingerprint eng);
  (* req_id is rejected on non-mutating ops, and must be non-empty *)
  Alcotest.(check string) "req_id on query = P402" "P402-bad-request"
    (error_code (handle eng {|{"op":"stats","req_id":"x"}|}));
  Alcotest.(check string) "empty req_id = P402" "P402-bad-request"
    (error_code
       (handle eng {|{"op":"eco","design":"d","cells":[1],"req_id":""}|}))

let test_dedup_across_recovery () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "dedup.wal" in
      let eng = engine () in
      let w = Wal.open_ ~path () in
      let journal line =
        let resp =
          (Server.execute_and_journal eng ~wal:w [| parse_req line |]).(0)
        in
        if Result.is_error resp.Protocol.result then
          Alcotest.failf "journal failed: %s" (Protocol.to_line resp)
      in
      journal {|{"op":"load","design":"d","cells":80,"seed":11}|};
      journal {|{"op":"legalize","design":"d","req_id":"tok-L"}|};
      journal {|{"id":"e9","op":"eco","design":"d","cells":[3,14],"req_id":"tok-9"}|};
      (* a coalesced run journals its members' tokens as req_ids *)
      let batch =
        [| parse_req {|{"op":"eco","design":"d","cells":[7],"req_id":"tok-a"}|};
           parse_req {|{"op":"eco","design":"d","cells":[21],"req_id":"tok-b"}|} |]
      in
      Array.iter
        (fun r ->
           if Result.is_error r.Protocol.result then
             Alcotest.fail "coalesced batch failed")
        (Server.execute_and_journal eng ~wal:w batch);
      Wal.close w;
      let live_fp = Engine.state_fingerprint eng in
      (* the tokens ride inside the journal records *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      let records = (Wal.read ~path).Wal.records in
      Alcotest.(check bool) "legalize journals its token" true
        (List.exists
           (fun (r : Wal.record) -> contains r.Wal.payload {|"req_id":"tok-L"|})
           records);
      (* eco runs always journal as merged records, so even a single
         eco's token rides in req_ids *)
      Alcotest.(check bool) "eco token journaled" true
        (List.exists
           (fun (r : Wal.record) ->
              contains r.Wal.payload {|"req_ids":["tok-9"]|})
           records);
      Alcotest.(check bool) "merged record carries member tokens" true
        (List.exists
           (fun (r : Wal.record) ->
              contains r.Wal.payload {|"req_ids":["tok-a","tok-b"]|})
           records);
      (* recovery re-arms the window: every token retries as a no-op *)
      let eng2 = engine () in
      let r = Server.recover eng2 ~path in
      Alcotest.(check int) "no replay failures" 0 r.Server.failed;
      Alcotest.(check string) "recovery fingerprint-exact" live_fp
        (Engine.state_fingerprint eng2);
      List.iter
        (fun tok ->
           let line =
             Printf.sprintf
               {|{"op":"eco","design":"d","cells":[3],"req_id":"%s"}|} tok
           in
           let a = Engine.handle_line eng2 line in
           check_ok ("retry " ^ tok) (parse_exn a);
           Alcotest.(check string)
             (Printf.sprintf "retry %s is a no-op across recovery" tok)
             live_fp (Engine.state_fingerprint eng2);
           let b = Engine.handle_line eng2 line in
           Alcotest.(check string)
             (Printf.sprintf "retry %s byte-identical" tok) a b)
        [ "tok-L"; "tok-9"; "tok-a"; "tok-b" ])

(* ---------------------------------------------------------------- *)
(* Health op                                                         *)
(* ---------------------------------------------------------------- *)

let test_health_op () =
  with_tmpdir (fun dir ->
      let eng = engine () in
      let health () =
        let resp = handle eng {|{"op":"health"}|} in
        check_ok "health" resp;
        match Json.member "result" resp with
        | Some r -> r
        | None -> Alcotest.fail "no result in health"
      in
      let h = health () in
      Alcotest.(check (option int)) "no journal yet" (Some 0)
        (Json.get_int "wal_last_seq" h);
      Alcotest.(check (option int)) "no designs yet" (Some 0)
        (Json.get_int "designs" h);
      Alcotest.(check (option bool)) "clean" (Some false)
        (Json.get_bool "corruption_detected" h);
      Alcotest.(check bool) "uptime present" true
        (Json.member "uptime_s" h <> None
         && Json.member "pending" h <> None
         && Json.member "snapshot_seq" h <> None
         && Json.member "dedup_hits" h <> None);
      check_ok "load"
        (handle eng {|{"op":"load","design":"d","cells":60,"seed":2}|});
      Alcotest.(check (option int)) "designs counted" (Some 1)
        (Json.get_int "designs" (health ()));
      (* best-effort recovery of a corrupt journal latches the flag *)
      let path = Filename.concat dir "bad.wal" in
      write_file path
        ({|{"seq":1,"req":{"op":"load","design":"x","cells":40,"seed":1}}|}
         ^ "\n" ^ {|{"seq":9,"req":{"op":"legalize","design":"x"}}|} ^ "\n");
      let r = Server.recover ~best_effort:true eng ~path in
      Alcotest.(check int) "garbage counted" 1 r.Server.trailing_garbage;
      Alcotest.(check (option bool)) "corruption latched" (Some true)
        (Json.get_bool "corruption_detected" (health ()));
      (* ... and in the stats counters, split by class *)
      let stats = handle eng {|{"op":"stats"}|} in
      (match Option.bind (Json.member "result" stats) (Json.member "counters") with
       | Some c ->
         Alcotest.(check (option int)) "torn tail split" (Some 0)
           (Json.get_int "wal_torn_tail" c);
         Alcotest.(check (option int)) "garbage split" (Some 1)
           (Json.get_int "wal_trailing_garbage" c);
         Alcotest.(check (option bool)) "stats corruption flag" (Some true)
           (Json.get_bool "corruption_detected" c)
       | None -> Alcotest.fail "no counters in stats"))

(* ---------------------------------------------------------------- *)
(* Graceful drain of the event loop                                  *)
(* ---------------------------------------------------------------- *)

(* Blocking line reader over a raw fd: [take n] returns once [n]
   complete lines have arrived, [rest ()] reads to EOF. *)
let line_reader fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let eof = ref false in
  let lines () =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> String.trim l <> "")
  in
  let complete () =
    let s = Buffer.contents buf in
    let n = List.length (lines ()) in
    if String.length s > 0 && s.[String.length s - 1] <> '\n' then n - 1 else n
  in
  let refill () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> eof := true
    | n -> Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    (* the draining server may close before reading our wake-up blank
       line; the reset still means "no more responses" *)
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> eof := true
  in
  let rec take n = if complete () >= n || !eof then lines () else (refill (); take n) in
  let rec rest () = if !eof then lines () else (refill (); rest ()) in
  (take, rest)

let test_graceful_drain () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "drain.wal" in
      let eng = engine () in
      let wal = Wal.open_ ~path () in
      let t = N.create eng ~wal ~wal_path:path ~max_batch:4 () in
      let server_end, client_end =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      ignore (N.add_conn t server_end);
      let server = Domain.spawn (fun () -> N.run t) in
      let script =
        {|{"op":"load","design":"d","cells":80,"seed":11}|}
        :: {|{"op":"legalize","design":"d"}|}
        :: List.init 8 (fun i ->
            Printf.sprintf {|{"op":"eco","design":"d","cells":[%d]}|} (3 + i))
      in
      let send s =
        ignore (Unix.write_substring client_end s 0 (String.length s))
      in
      let take, rest = line_reader client_end in
      List.iter (fun l -> send (l ^ "\n")) script;
      (* wait until every request is acknowledged, then request the
         drain; the blank line wakes the blocking select so the loop
         notices the flag (in production the signal's EINTR does
         this) *)
      let replies = take (List.length script) in
      N.request_drain t;
      send "\n";
      let all = rest () in
      ignore (Domain.join server);
      Unix.close client_end;
      Wal.close wal;
      Alcotest.(check int) "all requests answered" (List.length script)
        (List.length replies);
      Alcotest.(check int) "drain answered nothing new" (List.length replies)
        (List.length all);
      List.iter (fun l -> check_ok "drained reply" (parse_exn l)) all;
      (* drained shutdown leaves a snapshot covering everything and an
         empty journal: recovery replays zero records *)
      Alcotest.(check int) "journal truncated" 0
        (List.length (Wal.read ~path).Wal.records);
      Alcotest.(check bool) "snapshot cut" true
        (Sys.file_exists (Snapshot.path_for path));
      let eng2 = engine () in
      let r = Server.recover eng2 ~path in
      Alcotest.(check int) "zero records replayed" 0 r.Server.replayed;
      Alcotest.(check bool) "snapshot restored the state" true
        (r.Server.snapshot_seq > 0);
      Alcotest.(check string) "fingerprint-exact after drain"
        (Engine.state_fingerprint eng) (Engine.state_fingerprint eng2))

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "durability"
    [ ("crc32", [ Alcotest.test_case "vectors + flips" `Quick test_crc32_vectors ]);
      ("torture",
       [ Alcotest.test_case "kill points x corruption sites" `Quick
           test_torture_matrix;
         Alcotest.test_case "snapshot corruption S311" `Quick
           test_snapshot_corruption ]);
      ("property",
       [ QCheck_alcotest.to_alcotest prop_single_byte_flip_detected ]);
      ("compat",
       [ Alcotest.test_case "legacy frames" `Quick test_legacy_compat ]);
      ("fault-lanes",
       [ Alcotest.test_case "write-path injection" `Quick
           test_fault_lanes_write_path;
         Alcotest.test_case "determinism + parsing" `Quick
           test_fault_lane_determinism ]);
      ("exactly-once",
       [ Alcotest.test_case "live retries" `Quick test_dedup_live;
         Alcotest.test_case "across recovery" `Quick
           test_dedup_across_recovery ]);
      ("health", [ Alcotest.test_case "op + counters" `Quick test_health_op ]);
      ("drain",
       [ Alcotest.test_case "graceful event-loop drain" `Quick
           test_graceful_drain ]) ]
