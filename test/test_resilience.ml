(* Resilience layer: deterministic fault plans, deadline budgets with
   bit-identical rollback, IO-edge fault tolerance (short reads/writes,
   EINTR, resets, overlong lines, backpressure shed), and crash-safe
   WAL journaling with replay == live-run equality at every kill
   point. *)

module Json = Mcl_service.Json
module Engine = Mcl_service.Engine
module Protocol = Mcl_service.Protocol
module Server = Mcl_service.Server
module Netserve = Mcl_netserve.Netserve
module Budget = Mcl_resilience.Budget
module Fault = Mcl_resilience.Fault
module Wal = Mcl_resilience.Wal

let config = Mcl.Config.default

let engine ?faults () = Engine.create ?faults ~config ()

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

let result_exn resp =
  match Json.member "result" resp with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" (Json.to_string resp)

let check_ok what resp =
  if status resp <> "ok" then
    Alcotest.failf "%s: expected ok, got %s" what (Json.to_string resp)

let load_line = {|{"id":"l","op":"load","design":"d","cells":300,"seed":11}|}

let parse_req line =
  match Protocol.parse ~received:(Unix.gettimeofday ()) ~default_id:"t" line with
  | Ok req -> req
  | Error e -> Alcotest.failf "request %s rejected: %s" line e.Protocol.message

(* ---------------------------------------------------------------- *)
(* Budget                                                            *)
(* ---------------------------------------------------------------- *)

let test_budget_poll () =
  let tnow = ref 0.0 in
  let clock () = !tnow in
  let b = Budget.create ~clock ~poll_every:4 ~deadline:10.0 () in
  (* within budget: polls never raise *)
  for _ = 1 to 20 do Budget.check (Some b) done;
  Alcotest.(check bool) "not expired" false (Budget.expired (Some b));
  tnow := 11.0;
  Alcotest.(check bool) "expired" true (Budget.expired (Some b));
  (* the clock is read at most [poll_every] polls after expiry *)
  let raised =
    try
      for _ = 1 to 4 do Budget.check (Some b) done;
      false
    with Budget.Deadline_exceeded _ -> true
  in
  Alcotest.(check bool) "check raises within poll_every" true raised;
  let raised_now =
    try Budget.check_now (Some b); false
    with Budget.Deadline_exceeded { elapsed_s; budget_s } ->
      Alcotest.(check (float 1e-9)) "elapsed" 11.0 elapsed_s;
      Alcotest.(check (float 1e-9)) "budget" 10.0 budget_s;
      true
  in
  Alcotest.(check bool) "check_now raises" true raised_now;
  (* absent budgets are free and never raise *)
  Budget.check None;
  Budget.check_now None;
  Alcotest.(check bool) "None never expires" false (Budget.expired None);
  let b2 = Budget.of_deadline_ms ~clock ~received:100.0 250.0 in
  Alcotest.(check (float 1e-9)) "of_deadline_ms" 100.25 (Budget.deadline b2)

(* ---------------------------------------------------------------- *)
(* Fault plans                                                       *)
(* ---------------------------------------------------------------- *)

let short_read_seq plan n =
  List.init n (fun _ -> Fault.short_read (Some plan) 1000)

let test_fault_determinism () =
  let a = Fault.create ~seed:7 ~kinds:[ Fault.Short_read ] in
  let b = Fault.create ~seed:7 ~kinds:[ Fault.Short_read ] in
  let sa = short_read_seq a 64 and sb = short_read_seq b 64 in
  Alcotest.(check (list int)) "same seed, same schedule" sa sb;
  Alcotest.(check bool) "fires at least once" true
    (List.exists (fun v -> v < 1000) sa);
  List.iter
    (fun v ->
       if v < 1 || v > 1000 then Alcotest.failf "short_read out of range: %d" v)
    sa;
  (* lanes are independent: enabling eintr must not disturb the
     short-read schedule, even with interleaved eintr queries *)
  let c = Fault.create ~seed:7 ~kinds:[ Fault.Short_read; Fault.Eintr ] in
  let sc =
    List.init 64 (fun _ ->
        ignore (Fault.eintr (Some c));
        Fault.short_read (Some c) 1000)
  in
  Alcotest.(check (list int)) "lane independence" sa sc;
  (* different seeds diverge *)
  let d = Fault.create ~seed:8 ~kinds:[ Fault.Short_read ] in
  Alcotest.(check bool) "different seed diverges" false
    (short_read_seq d 64 = sa);
  (* production configuration costs nothing and fires nothing *)
  Alcotest.(check int) "None passthrough" 1000 (Fault.short_read None 1000);
  Alcotest.(check bool) "None eintr" false (Fault.eintr None);
  Alcotest.(check bool) "None stage" false (Fault.stage_fail None ~stage:"mgl")

let test_fault_kind_parsing () =
  (match Fault.kinds_of_string "short-read, stage-fail:mgl ,clock-skew" with
   | Ok [ Fault.Short_read; Fault.Stage_fail "mgl"; Fault.Clock_skew ] -> ()
   | Ok _ -> Alcotest.fail "wrong kinds"
   | Error msg -> Alcotest.fail msg);
  (match Fault.kinds_of_string "all" with
   | Ok ks ->
     Alcotest.(check int) "all kinds" (List.length Fault.all_kinds)
       (List.length ks)
   | Error msg -> Alcotest.fail msg);
  (match Fault.kinds_of_string "bogus" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted bogus kind");
  (match Fault.kinds_of_string "stage-fail:nope" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "accepted bogus stage");
  List.iter
    (fun k ->
       match Fault.kinds_of_string (Fault.kind_name k) with
       | Ok [ k' ] when k' = k -> ()
       | _ -> Alcotest.failf "kind_name round-trip failed for %s"
                (Fault.kind_name k))
    Fault.all_kinds

(* ---------------------------------------------------------------- *)
(* Deadlines                                                         *)
(* ---------------------------------------------------------------- *)

let test_deadline_p430 () =
  let eng = engine () in
  check_ok "load" (handle eng load_line);
  let fp = Engine.state_fingerprint eng in
  (* a hopeless budget: the pipeline cannot finish in 10 us *)
  let r =
    handle eng {|{"id":"g","op":"legalize","design":"d","deadline_ms":0.01}|}
  in
  Alcotest.(check string) "status" "error" (status r);
  Alcotest.(check string) "code" "P430-deadline-exceeded" (error_code r);
  Alcotest.(check string) "bit-identical rollback" fp
    (Engine.state_fingerprint eng);
  (* the service is still fully usable afterwards *)
  check_ok "query after P430" (handle eng {|{"op":"query","design":"d"}|});
  check_ok "legalize after P430"
    (handle eng {|{"op":"legalize","design":"d"}|});
  let stats = handle eng {|{"op":"stats"}|} in
  check_ok "stats" stats;
  (match Json.member "counters" (result_exn stats) with
   | Some c ->
     Alcotest.(check (option int)) "deadline counter" (Some 1)
       (Json.get_int "deadline_exceeded" c)
   | None -> Alcotest.fail "no counters")

let test_deadline_fallback_greedy () =
  let eng = engine () in
  check_ok "load" (handle eng load_line);
  let r =
    handle eng
      {|{"op":"legalize","design":"d","deadline_ms":0.01,"fallback":"greedy"}|}
  in
  check_ok "degraded legalize" r;
  let result = result_exn r in
  Alcotest.(check (option bool)) "degraded flag" (Some true)
    (Json.get_bool "degraded" result);
  Alcotest.(check (option string)) "mode" (Some "greedy")
    (Json.get_string "mode" result);
  let stats = handle eng {|{"op":"stats"}|} in
  (match Json.member "counters" (result_exn stats) with
   | Some c ->
     Alcotest.(check (option int)) "degraded counter" (Some 1)
       (Json.get_int "degraded" c)
   | None -> Alcotest.fail "no counters")

let test_deadline_eco () =
  let eng = engine () in
  check_ok "load" (handle eng load_line);
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let fp = Engine.state_fingerprint eng in
  let r =
    handle eng
      {|{"op":"eco","design":"d","cells":[3,14,15],"deadline_ms":0.0001}|}
  in
  Alcotest.(check string) "eco status" "error" (status r);
  Alcotest.(check string) "eco code" "P430-deadline-exceeded" (error_code r);
  Alcotest.(check string) "eco rollback" fp (Engine.state_fingerprint eng);
  let r2 =
    handle eng
      {|{"op":"eco","design":"d","cells":[3,14,15],"deadline_ms":0.0001,"fallback":"greedy"}|}
  in
  check_ok "degraded eco" r2;
  Alcotest.(check (option bool)) "eco degraded flag" (Some true)
    (Json.get_bool "degraded" (result_exn r2))

(* With no faults armed and no deadline set, the service path must be
   bit-identical to calling the pipeline directly. *)
let test_no_fault_bit_identical () =
  let eng = engine () in
  check_ok "load" (handle eng load_line);
  check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
  let spec =
    { Mcl_gen.Spec.default with
      Mcl_gen.Spec.name = "d"; num_cells = 300; seed = 11 }
  in
  let direct = Mcl_gen.Generator.generate spec in
  ignore (Mcl.Pipeline.run config direct);
  let eng2 = engine () in
  check_ok "load2" (handle eng2 load_line);
  check_ok "legalize2" (handle eng2 {|{"op":"legalize","design":"d"}|});
  Alcotest.(check string) "engine runs agree" (Engine.state_fingerprint eng)
    (Engine.state_fingerprint eng2);
  (* compare the engine's resident placement against the direct run *)
  let resp = handle eng {|{"op":"query","design":"d"}|} in
  check_ok "query" resp;
  let direct_disp = Mcl_eval.Metrics.total_displacement_sites direct in
  (match Json.member "result" resp with
   | Some result ->
     (match Json.member "total_disp_sites" result with
      | Some (Json.Float f) ->
        Alcotest.(check (float 0.0)) "identical displacement" direct_disp f
      | _ -> Alcotest.fail "no total_disp_sites")
   | None -> Alcotest.fail "no result")

(* ---------------------------------------------------------------- *)
(* Engine-level fault matrix                                         *)
(* ---------------------------------------------------------------- *)

(* Drive one mutating request against a plan with a single armed kind
   until it fires (the first firing is at most the 3rd opportunity):
   the response must be the expected structured error, the resident
   state bit-identical to the pre-request snapshot, and the service
   must keep answering. *)
let matrix_case ~kind ~seed ~prep ~req_line ~code () =
  let faults = Fault.create ~seed ~kinds:[ kind ] in
  let eng = engine ~faults () in
  List.iter (fun line -> check_ok "prep" (handle eng line)) prep;
  let rec attempt n =
    if n > 10 then
      Alcotest.failf "%s (seed %d): fault never fired" (Fault.kind_name kind)
        seed
    else begin
      let fp = Engine.state_fingerprint eng in
      let resp = handle eng req_line in
      if status resp = "ok" then attempt (n + 1)
      else begin
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d code" (Fault.kind_name kind) seed)
          code (error_code resp);
        Alcotest.(check string)
          (Printf.sprintf "%s seed %d rollback" (Fault.kind_name kind) seed)
          fp (Engine.state_fingerprint eng)
      end
    end
  in
  attempt 1;
  (* stats is a global op: no stage or group opportunities consumed,
     so it answers ok even while the plan keeps firing *)
  check_ok "service alive" (handle eng {|{"op":"stats"}|})

let stage_fail_cases seed =
  List.map
    (fun stage ->
       let prep =
         if stage = "eco" then
           [ load_line; {|{"op":"legalize","design":"d"}|} ]
         else [ load_line ]
       in
       let req_line =
         if stage = "eco" then {|{"op":"eco","design":"d","cells":[3,14]}|}
         else {|{"op":"legalize","design":"d"}|}
       in
       matrix_case ~kind:(Fault.Stage_fail stage) ~seed ~prep ~req_line
         ~code:"S390-injected-fault")
    [ "mgl"; "matching"; "row-order"; "eco" ]

let test_fault_matrix_engine () =
  List.iter
    (fun seed ->
       List.iter (fun case -> case ()) (stage_fail_cases seed);
       matrix_case ~kind:Fault.Worker_death ~seed ~prep:[ load_line ]
         ~req_line:{|{"op":"legalize","design":"d"}|}
         ~code:"S310-worker-death" ();
       (* clock skew under a deadline: the skewed clock jumps 1-6 s per
          firing, so a 1 s budget always expires mid-run *)
       matrix_case ~kind:Fault.Clock_skew ~seed ~prep:[ load_line ]
         ~req_line:{|{"op":"legalize","design":"d","deadline_ms":1000}|}
         ~code:"P430-deadline-exceeded" ())
    [ 1; 2; 3 ]

(* ---------------------------------------------------------------- *)
(* IO edge: the request loop over a pipe pair (stdio mode)           *)
(* ---------------------------------------------------------------- *)

let read_all fd =
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd bytes 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf bytes 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let write_string fd s =
  let b = Bytes.of_string s in
  let pos = ref 0 in
  while !pos < Bytes.length b do
    match Unix.write fd b !pos (Bytes.length b - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Run one conversation over blocking pipes wired as the loop's stdio
   connection; returns the parsed response lines and whether the
   session stopped on a [shutdown] request. *)
let serve_conversation ?faults ?max_pending ?max_line ?(max_batch = 8) input =
  let r_in, w_in = Unix.pipe () in
  let r_out, w_out = Unix.pipe () in
  let eng = engine () in
  let server =
    Domain.spawn (fun () ->
        let t =
          Netserve.create eng ?faults ?max_pending ?max_line ~max_batch ()
        in
        ignore (Netserve.add_stdio t ~in_fd:r_in ~out_fd:w_out);
        Netserve.run t;
        Unix.close w_out;
        Unix.close r_in;
        Engine.shutdown_requested eng)
  in
  write_string w_in input;
  Unix.close w_in;
  let out = read_all r_out in
  Unix.close r_out;
  let finished = Domain.join server in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  (List.map parse_exn lines, finished)

let io_trace =
  String.concat "\n"
    [ {|{"id":"a","op":"load","design":"d","cells":120,"seed":3}|};
      {|{"id":"b","op":"query","design":"d"}|};
      {|{"id":"c","op":"stats"}|};
      {|{"id":"e","op":"shutdown"}|} ]
  ^ "\n"

let check_io_trace what (resps, finished) =
  Alcotest.(check bool) (what ^ " shutdown honored") true finished;
  Alcotest.(check int) (what ^ " response count") 4 (List.length resps);
  List.iter2
    (fun id resp ->
       Alcotest.(check string) (what ^ " id order") id (str "id" resp);
       check_ok (what ^ " " ^ id) resp)
    [ "a"; "b"; "c"; "e" ] resps

let test_pipe_clean () =
  check_io_trace "clean" (serve_conversation io_trace);
  (* final unterminated line is still served at EOF *)
  let resps, finished =
    serve_conversation {|{"id":"x","op":"stats"}|}
  in
  Alcotest.(check bool) "EOF exit" false finished;
  Alcotest.(check int) "one response" 1 (List.length resps);
  check_ok "unterminated stats" (List.hd resps)

let test_pipe_io_faults () =
  List.iter
    (fun seed ->
       List.iter
         (fun kinds ->
            let faults = Fault.create ~seed ~kinds in
            check_io_trace
              (Printf.sprintf "faults seed %d" seed)
              (serve_conversation ~faults io_trace))
         [ [ Fault.Short_read ]; [ Fault.Short_write ]; [ Fault.Eintr ];
           [ Fault.Short_read; Fault.Short_write; Fault.Eintr ] ])
    [ 1; 2; 3 ]

let test_overlong_line () =
  let garbage = String.make 5000 'x' in
  let input =
    garbage ^ "\n" ^ {|{"id":"s","op":"stats"}|} ^ "\n"
    ^ {|{"id":"e","op":"shutdown"}|} ^ "\n"
  in
  let resps, finished = serve_conversation ~max_line:1024 input in
  Alcotest.(check bool) "finished" true finished;
  Alcotest.(check int) "three responses" 3 (List.length resps);
  (match resps with
   | [ too_long; stats; shutdown ] ->
     Alcotest.(check string) "P400" "P400-line-too-long" (error_code too_long);
     check_ok "stats after discard" stats;
     Alcotest.(check string) "stats id" "s" (str "id" stats);
     check_ok "shutdown" shutdown
   | _ -> Alcotest.fail "unexpected responses")

let test_backpressure_shed () =
  let input =
    String.concat ""
      (List.init 10 (fun i ->
           Printf.sprintf {|{"id":"r%d","op":"stats"}|} (i + 1) ^ "\n"))
  in
  let resps, _ = serve_conversation ~max_pending:2 ~max_batch:1 input in
  Alcotest.(check int) "all answered" 10 (List.length resps);
  let shed, ok =
    List.partition (fun r -> status r = "error") resps
  in
  Alcotest.(check int) "sheds" 8 (List.length shed);
  List.iter
    (fun r ->
       Alcotest.(check string) "shed code" "P429-overloaded" (error_code r))
    shed;
  Alcotest.(check (list string)) "admitted ids" [ "r1"; "r2" ]
    (List.map (str "id") ok)

(* ---------------------------------------------------------------- *)
(* Socket: disconnects and injected resets never kill the listener   *)
(* ---------------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "mcl_resil" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
        Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          (try Sys.readdir dir with _ -> [||]);
        try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let connect_retry path =
  let rec go n =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> Some sock
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if n = 0 then None
      else begin
        Unix.sleepf 0.02;
        go (n - 1)
      end
  in
  go 100

let test_socket_survives_disconnects () =
  List.iter
    (fun seed ->
       with_tmpdir (fun dir ->
           let path = Filename.concat dir "svc.sock" in
           let eng = engine () in
           let faults = Fault.create ~seed ~kinds:[ Fault.Conn_reset ] in
           let server =
             Domain.spawn (fun () ->
                 Netserve.serve eng ~faults ~drain_signals:false ~max_batch:8
                   (`Socket path))
           in
           (* connection 1: disconnect abruptly mid-conversation *)
           (match connect_retry path with
            | None -> Alcotest.fail "server never bound its socket"
            | Some sock ->
              write_string sock ({|{"op":"stats"}|} ^ "\n");
              Unix.close sock);
           (* later connections: injected resets may kill any of them;
              keep reconnecting until the shutdown lands *)
           let responses = ref 0 in
           let rec drive n =
             if n = 0 then Alcotest.failf "seed %d: server never stopped" seed
             else
               match connect_retry path with
               | None -> ()  (* socket gone: server stopped *)
               | Some sock ->
                 (try
                    write_string sock
                      (String.concat "\n"
                         [ {|{"op":"stats"}|}; {|{"op":"stats"}|};
                           {|{"op":"shutdown"}|} ]
                       ^ "\n");
                    let out = read_all sock in
                    String.split_on_char '\n' out
                    |> List.iter (fun l ->
                        if String.trim l <> "" then begin
                          ignore (parse_exn l);
                          incr responses
                        end)
                  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                    ());
                 (try Unix.close sock with Unix.Unix_error _ -> ());
                 if Engine.shutdown_requested eng then ()
                 else drive (n - 1)
           in
           drive 20;
           ignore (Domain.join server);
           Alcotest.(check bool)
             (Printf.sprintf "seed %d: served through resets" seed)
             true (!responses >= 1 || Engine.shutdown_requested eng)))
    [ 1; 2; 3 ]

(* ---------------------------------------------------------------- *)
(* WAL framing                                                       *)
(* ---------------------------------------------------------------- *)

let test_wal_frame () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "test.wal" in
      (* missing file reads as empty *)
      let empty = Wal.read ~path in
      Alcotest.(check int) "missing = empty" 0 (List.length empty.Wal.records);
      Alcotest.(check bool) "missing is not corrupt" false (Wal.corrupt empty);
      let w = Wal.open_ ~path () in
      Alcotest.(check int) "first seq" 1 (Wal.next_seq w);
      ignore (Wal.append w {|{"op":"load","design":"a"}|});
      ignore (Wal.append w {|{"op":"legalize","design":"a"}|});
      ignore (Wal.append w {|{"op":"eco","design":"a","cells":[1]}|});
      Wal.close w;
      let r = Wal.read ~path in
      let records = r.Wal.records in
      Alcotest.(check int) "three records" 3 (List.length records);
      Alcotest.(check int) "nothing dropped" 0 (r.Wal.torn_tail + r.Wal.trailing_garbage);
      Alcotest.(check int) "checksummed, not legacy" 0 r.Wal.legacy;
      Alcotest.(check (list int)) "consecutive seqs" [ 1; 2; 3 ]
        (List.map (fun (r : Wal.record) -> r.Wal.seq) records);
      Alcotest.(check string) "payload preserved"
        {|{"op":"legalize","design":"a"}|}
        (List.nth records 1).Wal.payload;
      (* torn tail: a crash mid-append leaves a partial last line *)
      let oc = open_out_gen [ Open_append ] 0o600 path in
      output_string oc {|{"seq":4,"req":{"op":"truncat|};
      close_out oc;
      let r = Wal.read ~path in
      Alcotest.(check int) "valid prefix survives" 3 (List.length r.Wal.records);
      Alcotest.(check int) "torn tail dropped" 1 r.Wal.torn_tail;
      Alcotest.(check bool) "torn tail is not corruption" false (Wal.corrupt r);
      (* reopening repairs the tail and journaling continues at seq 4 *)
      let w = Wal.open_ ~path () in
      Alcotest.(check int) "repaired next seq" 4 (Wal.next_seq w);
      Alcotest.(check int) "append continues" 4 (Wal.append w {|{"op":"x"}|});
      Wal.close w;
      let r = Wal.read ~path in
      Alcotest.(check int) "four records" 4 (List.length r.Wal.records);
      Alcotest.(check int) "clean after repair" 0
        (r.Wal.torn_tail + r.Wal.trailing_garbage);
      (* a gap in sequence numbers is a corruption verdict from there
         on (legacy frames: accepted unverified, but the sequence
         discipline still holds) *)
      let oc = open_out path in
      output_string oc
        ({|{"seq":1,"req":{"op":"a"}}|} ^ "\n" ^ {|{"seq":3,"req":{"op":"b"}}|}
         ^ "\n");
      close_out oc;
      let r = Wal.read ~path in
      Alcotest.(check int) "prefix before gap" 1 (List.length r.Wal.records);
      Alcotest.(check int) "gap dropped" 1 r.Wal.trailing_garbage;
      Alcotest.(check bool) "gap is corruption" true (Wal.corrupt r);
      Alcotest.(check (option int)) "bad seq reported" (Some 3)
        r.Wal.first_bad_seq;
      Alcotest.(check int) "legacy frames counted" 1 r.Wal.legacy;
      (* strict open refuses a corrupt journal; best-effort repairs to
         the valid prefix and keeps journaling *)
      (match Wal.open_ ~path () with
       | exception Wal.Corrupt (p, rep) ->
         Alcotest.(check string) "corrupt path" path p;
         Alcotest.(check (option int)) "corrupt report seq" (Some 3)
           rep.Wal.first_bad_seq
       | w ->
         Wal.close w;
         Alcotest.fail "strict open_ accepted a corrupt journal");
      let w = Wal.open_ ~best_effort:true ~path () in
      Alcotest.(check int) "best-effort continues after prefix" 2
        (Wal.append w {|{"op":"c"}|});
      Wal.close w;
      let r = Wal.read ~path in
      Alcotest.(check bool) "best-effort repaired the journal" false
        (Wal.corrupt r);
      Alcotest.(check int) "prefix + new record" 2 (List.length r.Wal.records))

let test_wal_group_commit () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "group.wal" in
      let w = Wal.open_ ~path () in
      (* one append_all = one frame batch, one fsync, consecutive seqs *)
      Alcotest.(check int) "group returns last seq" 3
        (Wal.append_all w [ {|{"op":"a"}|}; {|{"op":"b"}|}; {|{"op":"c"}|} ]);
      Alcotest.(check int) "empty group is a no-op" 3 (Wal.append_all w []);
      ignore (Wal.append w {|{"op":"d"}|});
      let s = Wal.stats w in
      Alcotest.(check int) "appends" 4 s.Wal.appends;
      Alcotest.(check int) "one fsync per group" 2 s.Wal.fsyncs;
      Alcotest.(check int) "groups" 2 s.Wal.groups;
      Wal.close w;
      let r = Wal.read ~path in
      Alcotest.(check int) "all framed" 4 (List.length r.Wal.records);
      Alcotest.(check int) "clean" 0 (r.Wal.torn_tail + r.Wal.trailing_garbage);
      Alcotest.(check (list int)) "consecutive" [ 1; 2; 3; 4 ]
        (List.map (fun (r : Wal.record) -> r.Wal.seq) r.Wal.records))

let test_wal_truncate_and_base_seq () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "trunc.wal" in
      let w = Wal.open_ ~path () in
      ignore (Wal.append_all w (List.init 5 (fun i ->
          Printf.sprintf {|{"op":"m%d"}|} i)));
      (* truncation drops the bytes but the sequence keeps running *)
      let dropped_bytes = Wal.truncate w in
      Alcotest.(check bool) "bytes reclaimed" true (dropped_bytes > 0);
      Alcotest.(check int) "file now empty" 0
        (List.length (Wal.read ~path).Wal.records);
      Alcotest.(check int) "seq survives truncation" 6
        (Wal.append w {|{"op":"after"}|});
      Alcotest.(check int) "truncated bytes counted" dropped_bytes
        (Wal.stats w).Wal.truncated_bytes;
      Wal.close w;
      (* a journal whose first record is mid-sequence (post-truncation)
         reads back from that base *)
      let r = Wal.read ~path in
      Alcotest.(check int) "tail readable" 1 (List.length r.Wal.records);
      Alcotest.(check int) "no drops" 0 (r.Wal.torn_tail + r.Wal.trailing_garbage);
      Alcotest.(check int) "base seq preserved" 6 (List.hd r.Wal.records).Wal.seq;
      (* reopen continues after the tail record *)
      let w = Wal.open_ ~path () in
      Alcotest.(check int) "reopen continues" 7 (Wal.next_seq w);
      Wal.close w;
      (* reopening an empty truncated journal needs the hint to keep
         numbering monotone *)
      let empty = Filename.concat dir "empty.wal" in
      let w = Wal.open_ ~next_seq:42 ~path:empty () in
      Alcotest.(check int) "hint honored on empty journal" 42 (Wal.next_seq w);
      Alcotest.(check int) "first append at hint" 42 (Wal.append w {|{"op":"x"}|});
      Wal.close w;
      (* ... but an existing journal overrides a stale hint *)
      let w = Wal.open_ ~next_seq:5 ~path:empty () in
      Alcotest.(check int) "journal wins over stale hint" 43 (Wal.next_seq w);
      Wal.close w)

(* ---------------------------------------------------------------- *)
(* Snapshot: placement state round-trips exactly                     *)
(* ---------------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  with_tmpdir (fun dir ->
      let snap = Filename.concat dir "state.wal.snap" in
      let eng = engine () in
      check_ok "load" (handle eng load_line);
      check_ok "legalize" (handle eng {|{"op":"legalize","design":"d"}|});
      check_ok "eco" (handle eng {|{"op":"eco","design":"d","cells":[3,14]}|});
      check_ok "load2"
        (handle eng {|{"id":"l2","op":"load","design":"e","cells":80,"seed":4}|});
      let fp = Engine.state_fingerprint eng in
      Mcl_service.Snapshot.write ~cache:(Engine.cache eng) ~upto_seq:17 ~path:snap;
      (* loading into a fresh engine restores both designs exactly *)
      let eng2 = engine () in
      (match
         Mcl_service.Snapshot.load eng2 ~received:(Unix.gettimeofday ())
           ~path:snap
       with
       | None -> Alcotest.fail "snapshot did not load"
       | Some l ->
         Alcotest.(check int) "upto_seq round-trips" 17
           l.Mcl_service.Snapshot.upto_seq;
         Alcotest.(check int) "both designs restored" 2
           l.Mcl_service.Snapshot.restored;
         Alcotest.(check int) "none failed" 0 l.Mcl_service.Snapshot.failed);
      Alcotest.(check string) "fingerprint-exact" fp
        (Engine.state_fingerprint eng2);
      (* missing and empty snapshot files load as None *)
      Alcotest.(check bool) "missing = None" true
        (Mcl_service.Snapshot.load eng2 ~received:0.0
           ~path:(Filename.concat dir "nope.snap")
         = None))

(* ---------------------------------------------------------------- *)
(* WAL recovery: replay == live run at every kill point              *)
(* ---------------------------------------------------------------- *)

(* The mutating trace: single requests plus one coalesced eco batch
   (which must journal as a single merged record). *)
let recovery_trace =
  [ [| load_line |];
    [| {|{"op":"legalize","design":"d"}|} |];
    [| {|{"op":"eco","design":"d","cells":[3,14,15]}|} |];
    [| {|{"op":"eco","design":"d","cells":[7]}|};
       {|{"op":"eco","design":"d","cells":[21],"targets":[[21,[40,2]]]}|};
       {|{"op":"eco","design":"d","cells":[33]}|} |];
    [| {|{"op":"eco","design":"d","targets":[[50,[10,1]]]}|} |] ]

(* Run the trace live with journaling, recording the fingerprint after
   every acknowledged record count. *)
let run_live_trace ~path =
  let eng = engine () in
  let w = Wal.open_ ~path () in
  let fingerprints =
    List.concat_map
      (fun batch ->
         let reqs = Array.map parse_req batch in
         let resps = Server.execute_and_journal eng ~wal:w reqs in
         Array.iter
           (fun r ->
              if Result.is_error r.Protocol.result then
                Alcotest.failf "live trace failed: %s" (Protocol.to_line r))
           resps;
         [ (Wal.next_seq w - 1, Engine.state_fingerprint eng) ])
      recovery_trace
  in
  Wal.close w;
  fingerprints

let truncate_to_records ~src ~dst k =
  let ic = open_in src in
  let oc = open_out dst in
  (try
     for _ = 1 to k do
       output_string oc (input_line ic);
       output_char oc '\n'
     done
   with End_of_file -> ());
  close_in ic;
  close_out oc

let test_wal_recovery_kill_points () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "live.wal" in
      let fingerprints = run_live_trace ~path in
      let total = fst (List.hd (List.rev fingerprints)) in
      (* one journal record per batch, including the coalesced one *)
      Alcotest.(check int) "records = batches"
        (List.length recovery_trace) total;
      (* kill after every ack: replaying the surviving prefix must land
         on the exact fingerprint the live engine had at that ack *)
      for k = 1 to total do
        let cut = Filename.concat dir (Printf.sprintf "kill%d.wal" k) in
        truncate_to_records ~src:path ~dst:cut k;
        let eng = engine () in
        let r = Server.recover eng ~path:cut in
        Alcotest.(check int) (Printf.sprintf "kill %d: replayed" k) k
          r.Server.replayed;
        Alcotest.(check int) (Printf.sprintf "kill %d: no failures" k) 0
          r.Server.failed;
        Alcotest.(check string)
          (Printf.sprintf "kill %d: replay == live" k)
          (List.assoc k fingerprints)
          (Engine.state_fingerprint eng)
      done;
      (* a crash mid-append (torn tail) recovers to the last full ack *)
      let torn = Filename.concat dir "torn.wal" in
      truncate_to_records ~src:path ~dst:torn total;
      let oc = open_out_gen [ Open_append ] 0o600 torn in
      output_string oc {|{"seq":99,"req":{"op":"legal|};
      close_out oc;
      let eng = engine () in
      let r = Server.recover eng ~path:torn in
      Alcotest.(check int) "torn: replayed all acks" total r.Server.replayed;
      Alcotest.(check int) "torn: dropped" 1 r.Server.torn_tail;
      Alcotest.(check string) "torn: state intact"
        (List.assoc total fingerprints)
        (Engine.state_fingerprint eng))

let test_wal_degraded_replay () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "degraded.wal" in
      let eng = engine () in
      let w = Wal.open_ ~path () in
      let run line =
        let resp =
          (Server.execute_and_journal eng ~wal:w [| parse_req line |]).(0)
        in
        if Result.is_error resp.Protocol.result then
          Alcotest.failf "degraded trace failed: %s" (Protocol.to_line resp)
      in
      run load_line;
      (* served under deadline pressure: degrades to greedy; the
         journal must record the greedy form, not the full request *)
      run {|{"op":"legalize","design":"d","deadline_ms":0.01,"fallback":"greedy"}|};
      Wal.close w;
      let records = (Wal.read ~path).Wal.records in
      Alcotest.(check int) "two records" 2 (List.length records);
      let journaled = (List.nth records 1).Wal.payload in
      (match Json.parse journaled with
       | Ok j ->
         Alcotest.(check (option bool)) "journaled as greedy" (Some true)
           (Json.get_bool "greedy" j);
         Alcotest.(check bool) "deadline stripped" true
           (Json.member "deadline_ms" j = None)
       | Error msg -> Alcotest.failf "journaled line unparsable: %s" msg);
      let eng2 = engine () in
      let r = Server.recover eng2 ~path in
      Alcotest.(check int) "replayed" 2 r.Server.replayed;
      Alcotest.(check string) "degraded replay == live"
        (Engine.state_fingerprint eng)
        (Engine.state_fingerprint eng2))

(* ---------------------------------------------------------------- *)

let () =
  Alcotest.run "resilience"
    [ ("budget",
       [ Alcotest.test_case "poll + expiry" `Quick test_budget_poll ]);
      ("fault-plan",
       [ Alcotest.test_case "determinism" `Quick test_fault_determinism;
         Alcotest.test_case "kind parsing" `Quick test_fault_kind_parsing ]);
      ("deadline",
       [ Alcotest.test_case "P430 + rollback" `Quick test_deadline_p430;
         Alcotest.test_case "greedy fallback" `Quick
           test_deadline_fallback_greedy;
         Alcotest.test_case "eco budgets" `Quick test_deadline_eco;
         Alcotest.test_case "no-fault bit-identical" `Quick
           test_no_fault_bit_identical ]);
      ("fault-matrix",
       [ Alcotest.test_case "stage/worker/clock x seeds" `Quick
           test_fault_matrix_engine ]);
      ("io-edge",
       [ Alcotest.test_case "clean pipes" `Quick test_pipe_clean;
         Alcotest.test_case "short-read/write + eintr" `Quick
           test_pipe_io_faults;
         Alcotest.test_case "overlong line P400" `Quick test_overlong_line;
         Alcotest.test_case "backpressure P429" `Quick test_backpressure_shed;
         Alcotest.test_case "socket survives resets" `Quick
           test_socket_survives_disconnects ]);
      ("wal",
       [ Alcotest.test_case "framing + torn tail" `Quick test_wal_frame;
         Alcotest.test_case "group commit" `Quick test_wal_group_commit;
         Alcotest.test_case "truncate + base seq" `Quick
           test_wal_truncate_and_base_seq;
         Alcotest.test_case "recovery at every kill point" `Quick
           test_wal_recovery_kill_points;
         Alcotest.test_case "degraded run replays degraded" `Quick
           test_wal_degraded_replay ]);
      ("snapshot",
       [ Alcotest.test_case "placement round-trip" `Quick
           test_snapshot_roundtrip ]) ]
