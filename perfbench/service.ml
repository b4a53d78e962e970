(* eco_service: the resident service as users run it — the real
   `serve --socket --wal --snapshot-every` subcommand of
   legalize_cli.exe in its own process, driven by this process over two
   Unix-socket connections, one resident design each.

   Phases: set-up (spawn, load both designs from the written files,
   legalize); a closed loop (each connection sends its next request when
   the reply to its previous one arrives) of single-cell ecos, queries
   and refines; a quality query; a bulk phase of pipelined windows of
   ecos; final queries, stats, shutdown; `serve --recover` on the same
   journal, which must answer the final queries identically. Three more
   set-ups on fresh servers sit between the phases and at the end.

   The closed-loop trace depends only on the workload seed, and with one
   request in flight per connection no two ecos of one design share a
   batch, so every closed-loop request meets the same placement, and
   does the same work, in every run. Bulk batching depends on arrival
   timing, so the closed loop and the quality query come before it. *)

open Mcl_netlist
open Common
module P = Mcl_service.Protocol
module Engine = Mcl_service.Engine
module Wal = Mcl_resilience.Wal

(* Closed-loop requests per connection, and the shortest bulk phase. *)
type params = { closed_loop : int; min_bulk_s : float }

let params ~tiny =
  if tiny then { closed_loop = 150; min_bulk_s = 0.2 } else { closed_loop = 1800; min_bulk_s = 3.0 }

(* bulk ecos sent back to back per connection *)
let window = 64

let snapshot_every = 512

let refine_k = 2

let refine_nodes = 20000

(* ---------------------------------------------------------------- *)
(* Request streams                                                   *)
(* ---------------------------------------------------------------- *)

(* What the client knows of a resident design: read from the same file
   the server loads. [anchor] tracks relocations the trace has made. *)
type resident = {
  key : string;
  path : string;
  movable : int array;
  anchor : (int * int) array;
  size : (int * int) array;  (** width in sites, height in rows *)
  sites : int;
  rows : int;
}

let resident path =
  match Mcl_bookshelf.Parser.parse_file path with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok d ->
    let fp = d.Design.floorplan in
    { key = d.Design.name;
      path;
      movable =
        Array.to_list d.Design.cells
        |> List.filter (fun c -> not c.Cell.is_fixed)
        |> List.map (fun c -> c.Cell.id)
        |> Array.of_list;
      anchor = Array.map (fun c -> (c.Cell.gp_x, c.Cell.gp_y)) d.Design.cells;
      size = Array.map (fun c -> (Design.width d c, Design.height d c)) d.Design.cells;
      sites = fp.Floorplan.num_sites;
      rows = fp.Floorplan.num_rows }

(* One single-cell eco; half of them relocate the cell's anchor by a
   few sites and rows first. *)
let eco_line st r ~id cell =
  if Random.State.bool st then begin
    let ax, ay = r.anchor.(cell) and w, h = r.size.(cell) in
    let clamp lo hi v = max lo (min hi v) in
    let x = clamp 0 (r.sites - w) (ax + Random.State.int st 17 - 8) in
    let y = clamp 0 (r.rows - h) (ay + Random.State.int st 5 - 2) in
    r.anchor.(cell) <- (x, y);
    Printf.sprintf {|{"id":"%s","op":"eco","design":"%s","targets":[[%d,[%d,%d]]]}|}
      id r.key cell x y
  end
  else
    Printf.sprintf {|{"id":"%s","op":"eco","design":"%s","cells":[%d]}|} id r.key cell

let query_line ~id key = Printf.sprintf {|{"id":"%s","op":"query","design":"%s"}|} id key

type kind = Eco | Query | Refine

(* The closed-loop trace of connection [conn]: each request is a refine
   with probability 2%, a query with 10%, else an eco. Drawn, not
   periodic: the connections drift in and out of step (a reply waits for
   its whole batch), and with fixed positions that drift would decide
   how often two queries share a batch. At 2% the ecos that wait behind
   the other connection's refine are a clear population above p99, not
   one straddling it. *)
let closed_loop_stream p ~trace_seed ~conn r =
  let st = Random.State.make [| trace_seed; conn |] in
  Array.init p.closed_loop (fun j ->
      let id = Printf.sprintf "c%d-%d" conn j in
      let x = Random.State.float st 1.0 in
      if x < 0.02 then
        ( Refine,
          Printf.sprintf {|{"id":"%s","op":"refine","design":"%s","k":%d,"node_budget":%d}|}
            id r.key refine_k refine_nodes )
      else if x < 0.12 then (Query, query_line ~id r.key)
      else
        (Eco, eco_line st r ~id r.movable.(Random.State.int st (Array.length r.movable))))

(* One bulk window: [window] ecos on distinct cells. *)
let bulk_window st ~conn ~w r =
  let n = Array.length r.movable in
  let picked = Hashtbl.create window in
  List.init (min window n) (fun j ->
      let rec pick () =
        let c = r.movable.(Random.State.int st n) in
        if Hashtbl.mem picked c then pick () else (Hashtbl.add picked c (); c)
      in
      eco_line st r ~id:(Printf.sprintf "b%d-%d-%d" conn w j) (pick ()))

(* ---------------------------------------------------------------- *)
(* Processes and connections                                         *)
(* ---------------------------------------------------------------- *)

let children = ref []

let spawn prog args ~stdin ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin out out in
  Unix.close out;
  children := pid :: !children;
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status ->
    children := List.filter (( <> ) pid) !children;
    status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Kill and reap anything still running (error paths). *)
let kill_children () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (wait pid))
    !children

type conn = {
  fd : Unix.file_descr;
  lines : string Queue.t;
  pend : Buffer.t;
  chunk : Bytes.t;
}

(* Connect once the server listens; fail at once if it has exited. *)
let connect ~pid path ~within =
  let deadline = now () +. within in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      { fd; lines = Queue.create (); pend = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) = pid then begin
        children := List.filter (( <> ) pid) !children;
        failwith "server exited before listening"
      end;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let read_some c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get c.chunk i = '\n' then begin
        Buffer.add_subbytes c.pend c.chunk !start (i - !start);
        Queue.push (Buffer.contents c.pend) c.lines;
        Buffer.clear c.pend;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.pend c.chunk !start (n - !start)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Send each connection's stream in bursts of [burst] requests, the
   next burst when every reply to the previous one has arrived;
   [on_reply conn index line rtt_s]. Replies released together (one
   server batch) are all read before any connection sends again, so
   connections in step stay in step. *)
let drive conns streams ~burst ~on_reply =
  let k = Array.length conns in
  let next = Array.make k 0 and answered = Array.make k 0 in
  let sent_at = Array.map (fun s -> Array.make (Array.length s) 0.0) streams in
  let send i =
    if answered.(i) = next.(i) && next.(i) < Array.length streams.(i) then begin
      let b = Buffer.create 4096 in
      let stop = min (Array.length streams.(i)) (next.(i) + burst) in
      let t = now () in
      for j = next.(i) to stop - 1 do
        Buffer.add_string b streams.(i).(j);
        Buffer.add_char b '\n';
        sent_at.(i).(j) <- t
      done;
      next.(i) <- stop;
      write_all conns.(i).fd (Buffer.contents b) 0
    end
  in
  for i = 0 to k - 1 do send i done;
  let pending () =
    List.filter (fun i -> answered.(i) < Array.length streams.(i)) (List.init k Fun.id)
  in
  let rec loop () =
    match pending () with
    | [] -> ()
    | live ->
      let fds = List.map (fun i -> conns.(i).fd) live in
      (match Unix.select fds [] [] 120.0 with
       | [], _, _ -> failwith "no reply from the server for 120 s"
       | ready, _, _ ->
         let ready = List.filter (fun i -> List.mem conns.(i).fd ready) live in
         List.iter
           (fun i ->
              let c = conns.(i) in
              read_some c;
              while not (Queue.is_empty c.lines) do
                let line = Queue.pop c.lines in
                let j = answered.(i) in
                on_reply i j line (now () -. sent_at.(i).(j));
                answered.(i) <- j + 1
              done)
           ready;
         List.iter send ready
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ()

(* ---------------------------------------------------------------- *)
(* Responses                                                         *)
(* ---------------------------------------------------------------- *)

let parse_response line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "bad response %S: %s" line e)

let ok j = Json.get_string "status" j = Some "ok"

let result j = Option.value ~default:Json.Null (Json.member "result" j)

(* A field the benchmark reads; a missing one (a renamed key, say) fails
   the run rather than printing a number nobody measured. *)
let required what = function
  | Some v -> v
  | None -> failwith ("perfbench: no " ^ what ^ " in a server reply")

let metric j key = required ("metrics." ^ key) (Option.bind (Json.member "metrics" j) (Json.get_float key))

let result_float j key = required ("result." ^ key) (Json.get_float key (result j))
let result_int j key = required ("result." ^ key) (Json.get_int key (result j))

(* Everything the client learns in one session. *)
type session = {
  mutable attempted : int;
  mutable failed : int;
  rtt : (kind, float list) Hashtbl.t;  (** closed loop, seconds as measured *)
  rtt_nominal : (kind, float list) Hashtbl.t;  (** the same at the nominal host speed *)
  exec : (kind, float list) Hashtbl.t;  (** metrics.service_s *)
  mutable queue_wait : float list;  (** closed-loop ecos *)
  mutable transport : float list;  (** closed-loop ecos *)
  mutable eco_cuts : float list;
  mutable refine_nodes : float list;
  mutable refine_windows : int;
  mutable refine_proven : int;
  mutable coalesced : float list;  (** bulk ecos *)
}

let new_session () =
  { attempted = 0; failed = 0; rtt = Hashtbl.create 3; rtt_nominal = Hashtbl.create 3;
    exec = Hashtbl.create 3;
    queue_wait = []; transport = []; eco_cuts = []; refine_nodes = [];
    refine_windows = 0; refine_proven = 0; coalesced = [] }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let samples tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

let account s j =
  s.attempted <- s.attempted + 1;
  if not (ok j) then begin
    s.failed <- s.failed + 1;
    Printf.eprintf "perfbench: request failed: %s\n%!" (Json.to_string j)
  end

(* Run one request per connection and return the replies. *)
let round s conns lines =
  let replies = Array.make (Array.length lines) Json.Null in
  drive conns (Array.map (fun l -> [| l |]) lines) ~burst:1
    ~on_reply:(fun i _ line _ ->
        let j = parse_response line in
        account s j;
        replies.(i) <- j);
  replies

let load_line r = Printf.sprintf {|{"id":"load","op":"load","design":"%s","path":"%s"}|} r.key r.path
let legalize_line r = Printf.sprintf {|{"id":"legalize","op":"legalize","design":"%s"}|} r.key

(* ---------------------------------------------------------------- *)
(* The live session                                                  *)
(* ---------------------------------------------------------------- *)

type server = { pid : int; conns : conn array; dir : string; wal : string }

let start_server opts s ~dir residents =
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" and wal = Filename.concat dir "j.wal" in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  Unix.close stdin_w;
  let c = clock () in
  let pid =
    spawn opts.cli
      [ "serve"; "--socket"; sock; "--wal"; wal; "--snapshot-every";
        string_of_int snapshot_every ]
      ~stdin:stdin_r ~log:(Filename.concat dir "server.log")
  in
  Unix.close stdin_r;
  let conns = Array.map (fun _ -> connect ~pid sock ~within:60.0) residents in
  ignore (round s conns (Array.map load_line residents));
  ignore (round s conns (Array.map legalize_line residents));
  let dt, f = lap c in
  ({ pid; conns; dir; wal }, (dt, dt *. f))

let stop_server s srv =
  ignore (round s [| srv.conns.(0) |] [| {|{"id":"stop","op":"shutdown"}|} |]);
  Array.iter (fun c -> Unix.close c.fd) srv.conns;
  match wait srv.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "server did not exit cleanly"

(* `serve --recover` on the finished journal, asked the same queries
   over stdin/stdout. *)
let recover opts s srv residents =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log = Filename.concat srv.dir "recover.log" in
  let errs = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process opts.cli [| opts.cli; "serve"; "--recover"; srv.wal |] in_r out_w errs
  in
  children := pid :: !children;
  List.iter Unix.close [ in_r; out_w; errs ];
  let requests =
    Array.to_list (Array.map (fun r -> query_line ~id:"recovered" r.key) residents)
    @ [ {|{"id":"stop","op":"shutdown"}|} ]
  in
  write_all in_w (String.concat "\n" requests ^ "\n") 0;
  Unix.close in_w;
  let ic = Unix.in_channel_of_descr out_r in
  let replies = List.map (fun _ -> parse_response (input_line ic)) requests in
  close_in ic;
  (match wait pid with
   | Unix.WEXITED 0 -> ()
   | _ -> failwith "recovering server did not exit cleanly");
  List.iter (account s) replies;
  List.map result (List.filteri (fun i _ -> i < Array.length residents) replies)

type live = {
  session : session;
  setup_s : (float * float) list;  (** measured, nominal *)
  quality : Json.t array;  (** query results after the closed loop *)
  final : Json.t array;  (** query results at the end *)
  recovered : Json.t list;
  stats : Json.t;
  peak_rss_mb : float;
  bulk_ecos : int;
  bulk_s : float * float;  (** measured, nominal *)
  bulk_lines : string list array list;  (** per window, per connection *)
}

(* Closed-loop requests per connection between two host-speed samples.
   Both connections pause for each sample, so the server is idle while
   this process times the kernels on the CPU the two share (run.sh pins
   them together). Every round trip of a stretch is scaled by the speed
   factor of that stretch. *)
let stretch = 50

(* Each connection sends its next request when the reply to its previous
   one arrives. *)
let closed_loop s srv stream =
  let c = clock () in
  let longest = Array.fold_left (fun n st -> max n (Array.length st)) 0 stream in
  let rec go start =
    if start < longest then begin
      let part =
        Array.map
          (fun st ->
             let lo = min start (Array.length st) in
             Array.sub st lo (min stretch (Array.length st - lo)))
          stream
      in
      let rtts = ref [] in
      drive srv.conns (Array.map (Array.map snd) part) ~burst:1
        ~on_reply:(fun i j line rtt ->
            let r = parse_response line in
            account s r;
            let kind = fst part.(i).(j) in
            push s.rtt kind rtt;
            rtts := (kind, rtt) :: !rtts;
            let exec = metric r "service_s" in
            push s.exec kind exec;
            match kind with
            | Eco ->
              let wait = metric r "queue_wait_s" in
              s.queue_wait <- wait :: s.queue_wait;
              s.transport <- (rtt -. wait -. exec) :: s.transport;
              s.eco_cuts <- metric r "cuts_evaluated" :: s.eco_cuts
            | Refine ->
              s.refine_nodes <- result_float r "nodes" :: s.refine_nodes;
              s.refine_windows <- s.refine_windows + result_int r "windows";
              s.refine_proven <- s.refine_proven + result_int r "proven"
            | Query -> ());
      let _, f = lap c in
      List.iter (fun (kind, rtt) -> push s.rtt_nominal kind (rtt *. f)) !rtts;
      go (start + stretch)
    end
  in
  go 0

(* Set-ups per run: the live server's, one on a fresh server after each
   measured phase and one at the end, so the median set-up time samples
   the whole run rather than its start. *)
let setups = 4

let live opts p ~run_dir residents ~closed =
  let s = new_session () in
  let setup_times = ref [] in
  let setup () =
    let dir = Filename.concat run_dir (Printf.sprintf "server%d" (List.length !setup_times)) in
    let srv, dt = start_server opts s ~dir residents in
    setup_times := dt :: !setup_times;
    srv
  in
  let fresh_setup () = stop_server s (setup ()) in
  let srv = setup () in
  let (), closed_s = timed (fun () -> closed_loop s srv closed) in
  let quality =
    Array.map result (round s srv.conns (Array.map (fun r -> query_line ~id:"quality" r.key) residents))
  in
  fresh_setup ();
  (* bulk: windows for the rest of the measured time *)
  let bulk_target = Float.max p.min_bulk_s (opts.seconds -. closed_s) in
  let bulk_start = now () in
  let c = clock () in
  let windows = ref [] and bulk_ecos = ref 0 and bulk_s = ref (0.0, 0.0) in
  let rec bulk w =
    let lines =
      Array.mapi
        (fun conn r ->
           let st = Random.State.make [| opts.seed; conn; w |] in
           Array.of_list (bulk_window st ~conn ~w r))
        residents
    in
    drive srv.conns lines ~burst:window ~on_reply:(fun _ _ line _ ->
        let r = parse_response line in
        account s r;
        s.coalesced <- metric r "coalesced" :: s.coalesced);
    let dt, f = lap c in
    bulk_s := (fst !bulk_s +. dt, snd !bulk_s +. (dt *. f));
    windows := Array.map Array.to_list lines :: !windows;
    bulk_ecos := !bulk_ecos + Array.fold_left (fun n l -> n + Array.length l) 0 lines;
    if w < 1 || now () -. bulk_start < bulk_target then bulk (w + 1)
  in
  bulk 0;
  fresh_setup ();
  let final =
    Array.map result (round s srv.conns (Array.map (fun r -> query_line ~id:"final" r.key) residents))
  in
  let stats = result (round s [| srv.conns.(0) |] [| {|{"id":"stats","op":"stats"}|} |]).(0) in
  let peak_rss_mb = peak_rss_mb (string_of_int srv.pid) in
  stop_server s srv;
  let recovered = recover opts s srv residents in
  while List.length !setup_times < setups do fresh_setup () done;
  { session = s;
    setup_s = !setup_times;
    quality;
    final;
    recovered;
    stats;
    peak_rss_mb;
    bulk_ecos = !bulk_ecos;
    bulk_s = !bulk_s;
    bulk_lines = List.rev !windows }

(* ---------------------------------------------------------------- *)
(* In-process replay (traced runs)                                   *)
(* ---------------------------------------------------------------- *)

(* The live session's request stream replayed through the layers the
   server chains per batch — Protocol.parse, Engine.execute,
   Protocol.to_line, Wal.append_all, Snapshot.write — one batch per
   closed-loop round and [max_batch]-sized batches of each bulk window,
   round-robin across connections as netserve builds them. With
   [traced] each call is a span, and the CRC-32 of every journaled
   frame is timed on its own afterwards. The host speed is sampled as in
   the live session, so the two replays' times can be compared at the
   nominal speed. *)
type replay = {
  loop_s : float;  (** wall time of the request stream, without the sampling *)
  nominal_s : float;  (** the same at the nominal host speed *)
  spans : Spans.t;
  quality_r : Json.t array;
  fingerprint : string;
}

let max_batch = 64

let replay_windows = 16

let interleave lists =
  let rec go acc lists =
    match List.filter (( <> ) []) lists with
    | [] -> List.rev acc
    | live -> go (List.rev_append (List.map List.hd live) acc) (List.map List.tl live)
  in
  go [] lists

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

let replay ~traced ~dir residents ~closed ~bulk_lines =
  mkdir_p dir;
  let engine = Engine.create ~config:Mcl.Config.default () in
  let wal_path = Filename.concat dir "replay.wal" in
  let wal = Wal.open_ ~path:wal_path () in
  let spans = Spans.create () and measuring = ref false in
  let span name f = if traced && !measuring then Spans.time spans name f else f () in
  let appended = ref 0 and frames = ref [] in
  let batch lines =
    let received = now () in
    let requests =
      span "service.parse_s" (fun () ->
          Array.of_list
            (List.map
               (fun l ->
                  match P.parse ~received ~default_id:"replay" l with
                  | Ok r -> r
                  | Error e -> failwith e.P.message)
               lines))
    in
    let responses = span "service.engine_s" (fun () -> Engine.execute engine requests) in
    let rendered = span "service.render_s" (fun () -> Array.map P.to_line responses) in
    let journal = List.filter_map (fun r -> r.P.wal) (Array.to_list responses) in
    if journal <> [] then begin
      let last = span "resilience.wal_append_s" (fun () -> Wal.append_all wal journal) in
      if traced then
        List.iteri
          (fun i payload -> frames := (last - List.length journal + 1 + i, payload) :: !frames)
          journal;
      appended := !appended + List.length journal;
      if !appended >= snapshot_every then begin
        span "service.snapshot_s" (fun () ->
            Mcl_service.Snapshot.write ~cache:(Engine.cache engine) ~upto_seq:(Wal.last_seq wal)
              ~path:(Mcl_service.Snapshot.path_for wal_path);
            ignore (Wal.truncate wal);
            ignore (Engine.mark_cache_clean engine));
        appended := 0
      end
    end;
    Array.map (fun line -> parse_response line) rendered
  in
  ignore (batch (Array.to_list (Array.map load_line residents)));
  ignore (batch (Array.to_list (Array.map legalize_line residents)));
  measuring := true;
  let c = clock () and loop_s = ref 0.0 and nominal_s = ref 0.0 in
  let lap () =
    let dt, f = lap c in
    loop_s := !loop_s +. dt;
    nominal_s := !nominal_s +. (dt *. f)
  in
  let rounds stream =
    let n = Array.fold_left (fun n s -> max n (Array.length s)) 0 stream in
    for j = 0 to n - 1 do
      ignore
        (batch
           (List.filter_map
              (fun s -> if j < Array.length s then Some (snd s.(j)) else None)
              (Array.to_list stream)));
      if j mod stretch = stretch - 1 then lap ()
    done
  in
  rounds closed;
  let quality_r =
    Array.map result
      (batch (Array.to_list (Array.map (fun r -> query_line ~id:"quality" r.key) residents)))
  in
  List.iter
    (fun window ->
       List.iter (fun b -> ignore (batch b)) (chunks max_batch (interleave (Array.to_list window)));
       lap ())
    bulk_lines;
  let fingerprint = span "check" (fun () -> Engine.state_fingerprint engine) in
  lap ();
  Wal.close wal;
  if traced then begin
    let framed =
      List.rev_map (fun (seq, payload) -> Printf.sprintf {|{"seq":%d,"req":%s}|} seq payload) !frames
    in
    span "resilience.crc_s" (fun () ->
        List.iter (fun f -> ignore (Mcl_resilience.Crc32.string f)) framed)
  end;
  { loop_s = !loop_s; nominal_s = !nominal_s; spans; quality_r; fingerprint }

(* A query result without its "eco_count": a coalesced eco run is one
   journal record, so replay counts records, not requests — the one
   field Engine.state_fingerprint documents as not surviving recovery.
   The difference is printed, not failed. *)
let without_eco_count = function
  | Json.Obj kv -> Json.Obj (List.filter (fun (k, _) -> k <> "eco_count") kv)
  | j -> j

(* Equal query results, or the differing fields on stderr. *)
let same_results what a b =
  let fields = function Json.Obj kv -> kv | _ -> [] in
  List.iter2
    (fun x y ->
       List.iter
         (fun (k, v) ->
            if Json.member k y <> Some v then
              Printf.eprintf "perfbench: %s query differs in %S: %s vs %s\n%!" what k
                (Json.to_string v)
                (Option.fold ~none:"missing" ~some:Json.to_string (Json.member k y)))
         (fields x))
    a b;
  a = b

(* ---------------------------------------------------------------- *)
(* The workload                                                      *)
(* ---------------------------------------------------------------- *)

let ms x = x *. 1000.0

(* The work the server's set-up does for both designs — parse, then
   Pipeline.run, then the calls of a query — done in this process as a
   traced batch pass, for the per-layer metrics every workload reports. *)
let set_up_layers files =
  let parses, designs = Batch.setup ~reps:3 files in
  let (results, spans), wall = timed (fun () -> Batch.pass ~traced:true designs) in
  let cells = List.fold_left (fun n x -> n + x.Batch.movable) 0 designs in
  let legal =
    List.for_all
      (fun (_, r) -> match r.Batch.q with Some q -> q.Batch.legal | None -> false)
      results
  in
  ( Batch.layers ~parse_s:(median (List.map (fun s -> s.Batch.measured) parses)) ~cells
      [ (results, spans) ],
    spans,
    wall,
    legal )

let run opts (roster : Roster.t) ~files ~run_dir =
  let p = params ~tiny:opts.tiny in
  let trace_seed = 0x5eed + opts.workload_seed in
  let residents = Array.of_list (List.map resident files) in
  let closed =
    Array.mapi (fun conn r -> closed_loop_stream p ~trace_seed ~conn r) residents
  in
  let l = Fun.protect ~finally:kill_children (fun () -> live opts p ~run_dir residents ~closed) in
  let s = l.session in
  (* a field of both quality-query results *)
  let quality key =
    Array.to_list
      (Array.map (fun q -> required ("result." ^ key) (Json.get_float key q)) l.quality)
  in
  let legal js = Array.for_all (fun q -> Json.get_bool "legal" q = Some true) js in
  let exec k = List.map ms (samples s.exec k) in
  (* the timings at the nominal host speed, and as measured *)
  let timings ~suffix rtts pick =
    let rtt k = List.map ms (samples rtts k) in
    List.map
      (fun (name, unit_, v) -> m (name ^ suffix) unit_ v)
      [ ("setup_s", "s", median (List.map pick l.setup_s));
        ("cells_per_s", "cells/s", float_of_int l.bulk_ecos /. pick l.bulk_s);
        ("latency_ms", "ms", quantile (rtt Eco) 0.5);
        ("eco_p99_ms", "ms", quantile (rtt Eco) 0.99);
        ("query_ms", "ms", quantile (rtt Query) 0.5);
        ("query_p95_ms", "ms", quantile (rtt Query) 0.95);
        ("refine_p50_ms", "ms", quantile (rtt Refine) 0.5) ]
  in
  let e2e =
    timings ~suffix:"" s.rtt_nominal snd
    @ [ m "score_geomean" "score" (geomean (quality "score"));
        m "avg_disp_rows" "rows" (mean (quality "avg_disp_rows"));
        m "max_disp_rows" "rows" (List.fold_left Float.max 0.0 (quality "max_disp_rows"));
        m "routability_violations" "count"
          (sum (quality "pin_violations") +. sum (quality "edge_violations"));
        m "peak_rss_mb" "MB" l.peak_rss_mb;
        m "failed_share" "ratio" (float_of_int s.failed /. float_of_int s.attempted) ]
    @ timings ~suffix:".measured" s.rtt fst
  in
  let counter key =
    required ("counters." ^ key) (Option.bind (Json.member "counters" l.stats) (Json.get_float key))
  in
  let wire =
    [ m "service.exec_ms.eco" "ms" (median (exec Eco));
      m "service.exec_ms.query" "ms" (median (exec Query));
      m "service.exec_ms.refine" "ms" (median (exec Refine));
      m "netserve.queue_wait_ms.p50" "ms" (quantile (List.map ms s.queue_wait) 0.5);
      m "netserve.queue_wait_ms.p99" "ms" (quantile (List.map ms s.queue_wait) 0.99);
      m "netserve.transport_ms" "ms" (median (List.map ms s.transport));
      m "core.eco.cuts_evaluated" "count" (mean s.eco_cuts);
      m "service.coalesced_mean" "count" (mean s.coalesced);
      m "netserve.batch_mean" "count" (counter "requests_total" /. counter "batches");
      m "resilience.wal_group_mean" "count" (counter "wal_group_mean");
      m "resilience.wal_fsyncs" "count" (counter "wal_fsyncs");
      m "service.snapshots" "count" (counter "snapshots");
      m "exact.refine.nodes" "count" (mean s.refine_nodes);
      m "exact.refine.proven_share" "ratio"
        (float_of_int s.refine_proven /. float_of_int (max 1 s.refine_windows)) ]
  in
  let layers, traced_checks =
    if not opts.trace then (wire, [])
    else begin
      let core, core_spans, core_wall, core_legal = set_up_layers files in
      (* the first bulk windows only: two whole replays would double
         the run *)
      let bulk_lines = List.filteri (fun i _ -> i < replay_windows) l.bulk_lines in
      let go traced =
        replay ~traced ~dir:(Filename.concat run_dir (if traced then "traced" else "untraced"))
          residents ~closed ~bulk_lines
      in
      let plain = go false and traced = go true in
      let sp = traced.spans in
      let covered = Spans.total core_spans +. Spans.total sp in
      let wall = core_wall +. traced.loop_s +. Spans.get sp "resilience.crc_s" in
      ( core
        @ [ m "trace.unaccounted_pct" "%" (100.0 *. (wall -. covered) /. wall);
            m "trace.overhead_pct" "%" (100.0 *. ((traced.nominal_s /. plain.nominal_s) -. 1.0)) ]
        @ wire
        @ List.map
            (fun name -> m name "s" (Spans.get sp name))
            [ "service.parse_s"; "service.engine_s"; "service.render_s";
              "resilience.wal_append_s"; "service.snapshot_s"; "resilience.crc_s" ],
        [ ("set_up_pass_legal", core_legal);
          ("replay_matches_server", traced.quality_r = l.quality && plain.quality_r = l.quality);
          ("traced_matches_untraced", traced.fingerprint = plain.fingerprint) ] )
    end
  in
  let samples_meta =
    [ ("eco_samples", Json.Int (List.length (samples s.rtt Eco)));
      ("query_samples", Json.Int (List.length (samples s.rtt Query)));
      ("refine_samples", Json.Int (List.length (samples s.rtt Refine)));
      ("bulk_ecos", Json.Int l.bulk_ecos);
      ("setups", Json.Int (List.length l.setup_s)) ]
  in
  let cells = Array.fold_left (fun n r -> n + Array.length r.movable) 0 residents in
  let eco_counts qs =
    Json.List (List.map (fun q -> Option.value ~default:Json.Null (Json.member "eco_count" q)) qs)
  in
  { e2e;
    layers;
    deterministic =
      Array.to_list (Array.map2 (fun r q -> (r.key, q)) residents l.quality);
    meta =
      Roster.meta roster ~workload_seed:opts.workload_seed
      @ [ ("cells", Json.Int cells); ("trace_seed", Json.Int trace_seed);
          ("eco_count_live", eco_counts (Array.to_list l.final));
          ("eco_count_recovered", eco_counts l.recovered) ]
      @ samples_meta;
    attempted = s.attempted;
    failed = s.failed;
    checks =
      [ ("legal_at_quality_query", legal l.quality);
        ("legal_at_end", legal l.final);
        ("recovery_matches",
         same_results "recovered" (List.map without_eco_count l.recovered)
           (List.map without_eco_count (Array.to_list l.final))) ]
      @ traced_checks }
