open Mcl_service
module Fault = Mcl_resilience.Fault
module Wal = Mcl_resilience.Wal

(* ---------------------------------------------------------------- *)
(* Line reader                                                       *)
(* ---------------------------------------------------------------- *)

(* Line reader over a raw fd with its own buffer: we cannot mix
   [input_line]'s channel buffering with [Unix.select], which only sees
   the fd — buffered-but-unread lines would stall the loop.

   The buffer is a growable [Bytes.t] with a consumed prefix
   ([start]), a fill mark ([fill]) and a newline scan mark ([scan]):
   [buf.[start..scan)] is known newline-free, so popping a line only
   examines bytes once no matter how many refills it takes to complete
   the line (the old [Buffer]-based reader rescanned its whole content
   on every pop — quadratic against a slow writer). Compaction is
   lazy: the consumed prefix is only blitted away when a refill needs
   the room, so steady-state popping never copies. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable fill : int;  (* end of valid data *)
  mutable scan : int;  (* no '\n' anywhere in [start, scan) *)
  mutable eof : bool;
  mutable discarding : bool;
      (* an overlong line was shed: drop bytes until its newline *)
  max_line : int;
  faults : Fault.t option;
}

let reader ?faults ~max_line fd =
  { fd; buf = Bytes.create 65536; start = 0; fill = 0; scan = 0; eof = false;
    discarding = false; max_line; faults }

let find_newline r =
  let rec go i = if i >= r.fill then None
    else if Bytes.get r.buf i = '\n' then Some i
    else go (i + 1)
  in
  go r.scan

(* Pop one complete line, if any. [`Overlong] is returned once, at the
   moment a line exceeds [max_line] without a newline in sight; the
   rest of that line is then discarded as it streams in. This caps
   memory per connection and answers the garbage with a structured
   P400 instead of buffering without bound. *)
let rec pop_line r =
  match find_newline r with
  | Some i ->
    if r.discarding then begin
      r.start <- i + 1;
      r.scan <- r.start;
      r.discarding <- false;
      pop_line r
    end
    else if i - r.start > r.max_line then begin
      (* complete but over the cap: same shed as the streaming case *)
      r.start <- i + 1;
      r.scan <- r.start;
      Some `Overlong
    end
    else begin
      let line = Bytes.sub_string r.buf r.start (i - r.start) in
      r.start <- i + 1;
      r.scan <- r.start;
      Some (`Line line)
    end
  | None ->
    r.scan <- r.fill;
    if r.discarding then begin
      (* everything buffered belongs to the shed line: drop it *)
      r.start <- r.fill;
      r.scan <- r.fill;
      None
    end
    else if r.fill - r.start > r.max_line then begin
      r.discarding <- true;
      r.start <- r.fill;
      r.scan <- r.fill;
      Some `Overlong
    end
    else if r.eof && r.fill > r.start then begin
      (* final unterminated line *)
      let line = Bytes.sub_string r.buf r.start (r.fill - r.start) in
      r.start <- r.fill;
      r.scan <- r.fill;
      Some (`Line line)
    end
    else None

(* Make room for at least one more read chunk: first reclaim the
   consumed prefix, then grow. *)
let ensure_room r =
  let cap = Bytes.length r.buf in
  if cap - r.fill < 4096 then begin
    if r.start > 0 then begin
      Bytes.blit r.buf r.start r.buf 0 (r.fill - r.start);
      r.fill <- r.fill - r.start;
      r.scan <- r.scan - r.start;
      r.start <- 0
    end;
    if Bytes.length r.buf - r.fill < 4096 then begin
      let bigger = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf 0 bigger 0 r.fill;
      r.buf <- bigger
    end
  end

(* One read into the buffer, made once select has reported the fd
   readable — so it returns promptly on a blocking fd too. This is
   where the short-read and EINTR fault lanes fire. *)
let refill r =
  if not r.eof then
    if Fault.eintr r.faults then () (* injected interrupted read *)
    else begin
      ensure_room r;
      let room = min (Bytes.length r.buf - r.fill) 65536 in
      let want = Fault.short_read r.faults room in
      match Unix.read r.fd r.buf r.fill want with
      | 0 -> r.eof <- true
      | n -> r.fill <- r.fill + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      (* a readiness report can be stale on a non-blocking socket *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
    end

(* ---------------------------------------------------------------- *)
(* Connections                                                       *)
(* ---------------------------------------------------------------- *)

type conn = {
  id : int;  (* accept order; the scheduling and reporting key *)
  r : reader;  (* reads [r.fd]: the socket, or stdin *)
  out_fd : Unix.file_descr;  (* the socket again, or stdout *)
  out : string Queue.t;  (* response lines awaiting the fd *)
  mutable out_off : int;  (* bytes of the head already written *)
  pending : (string * float) Queue.t;  (* admitted lines + read stamp *)
  mutable counter : int;  (* per-connection default request ids *)
  mutable dead : bool;  (* IO error: close and drop, service lives on *)
}

type t = {
  engine : Engine.t;
  wal : Wal.t option;
  wal_path : string option;
  faults : Fault.t option;
  max_batch : int;
  max_pending : int;
  max_line : int;
  max_conns : int;
  snapshot_every : int option;
  mutable conns : conn list;  (* ascending id = accept order *)
  mutable next_id : int;
  mutable rr : int;  (* round-robin: id to favor in the next sweep *)
  mutable appends_since_snapshot : int;
  mutable draining : bool;  (* graceful-drain requested (signal-safe) *)
}

let create engine ?wal ?wal_path ?faults ?(max_pending = 256)
    ?(max_line = 1 lsl 20) ?(max_conns = 64) ?snapshot_every ~max_batch () =
  (match snapshot_every with
   | Some k ->
     if k < 1 then invalid_arg "Netserve.create: snapshot_every must be >= 1";
     if wal = None || wal_path = None then
       invalid_arg "Netserve.create: snapshot_every requires wal and wal_path"
   | None -> ());
  { engine; wal; wal_path; faults;
    max_batch = max 1 max_batch;
    max_pending = max 1 max_pending;
    max_line; max_conns = max 1 max_conns; snapshot_every;
    conns = []; next_id = 0; rr = 0; appends_since_snapshot = 0;
    draining = false }

(* Only a mutable-bool store: safe to call from a signal handler. The
   loop notices on its next wakeup (a caught signal interrupts the
   blocking select with EINTR, so "next wakeup" is immediate). *)
let request_drain t = t.draining <- true

let register t ~in_fd ~out_fd =
  let id = t.next_id in
  t.next_id <- id + 1;
  let c =
    { id; r = reader ?faults:t.faults ~max_line:t.max_line in_fd; out_fd;
      out = Queue.create (); out_off = 0;
      pending = Queue.create (); counter = 0; dead = false }
  in
  t.conns <- t.conns @ [ c ];
  id

let add_conn t fd =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  register t ~in_fd:fd ~out_fd:fd

(* Inherited fds stay blocking: O_NONBLOCK lives on the open file
   description, which stdin/stdout share with the parent shell. *)
let add_stdio t ~in_fd ~out_fd = register t ~in_fd ~out_fd

(* ---------------------------------------------------------------- *)
(* Per-connection IO                                                 *)
(* ---------------------------------------------------------------- *)

let enqueue c resp = Queue.add (Protocol.to_line resp ^ "\n") c.out

let next_id c =
  c.counter <- c.counter + 1;
  Printf.sprintf "req-%d" c.counter

(* Drain the head of the out queue into the fd until it would block,
   resilient to partial writes and EINTR — exactly the sites the
   short-write/EINTR fault lanes exercise; an injected reset surfaces
   as EPIPE, like a real vanished peer with SIGPIPE ignored. On a
   non-blocking socket EAGAIN parks the rest for the next writable
   wakeup instead of spinning. *)
let flush_conn t c =
  let continue = ref true in
  while (not c.dead) && !continue && not (Queue.is_empty c.out) do
    let s = Queue.peek c.out in
    let len = String.length s in
    if Fault.conn_reset t.faults then
      raise (Unix.Unix_error (Unix.EPIPE, "write", "injected connection reset"));
    if Fault.eintr t.faults then () (* injected interrupted attempt; retry *)
    else begin
      let want = Fault.short_write t.faults (len - c.out_off) in
      match Unix.write c.out_fd (Bytes.unsafe_of_string s) c.out_off want with
      | n ->
        c.out_off <- c.out_off + n;
        if c.out_off >= len then begin
          ignore (Queue.pop c.out);
          c.out_off <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

(* A socket is the loop's to close; the stdio pair (two fds) belongs
   to the process and is only marked dead. *)
let kill_conn c =
  if not c.dead then begin
    c.dead <- true;
    if c.r.fd == c.out_fd then
      try Unix.close c.out_fd with Unix.Unix_error _ -> ()
  end

(* IO against one connection, with that connection's death contained:
   a reset/EPIPE kills it and the loop carries on serving the rest. *)
let guarded c f =
  try f () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
  | Sys_error _ ->
    kill_conn c

let shed t c line ~received =
  Telemetry.add (Engine.telemetry t.engine) Sheds 1;
  let default_id = next_id c in
  let resp =
    match Protocol.parse ~received ~default_id line with
    | Ok req ->
      Protocol.error ~id:req.Protocol.id
        ~op:(Protocol.op_name req.Protocol.op)
        ~code:"P429-overloaded"
        (Printf.sprintf
           "pending queue full (%d requests) on this connection; request shed"
           t.max_pending)
    | Error e -> Protocol.error_of_parse e
  in
  enqueue c resp

let overlong c =
  enqueue c
    (Protocol.error ~id:(next_id c) ~op:"?" ~code:"P400-line-too-long"
       (Printf.sprintf "request line exceeds %d bytes; line discarded"
          c.r.max_line))

(* Admit every complete buffered line; past the per-connection bound a
   line is answered P429 immediately (the shed response may overtake
   admitted-but-unanswered requests — sheds are not ordered work). *)
let drain t c =
  let continue = ref true in
  while !continue do
    match pop_line c.r with
    | Some (`Line line) ->
      if String.trim line <> "" then begin
        let received = Fault.now t.faults in
        if Queue.length c.pending >= t.max_pending then
          shed t c line ~received
        else Queue.add (line, received) c.pending
      end
    | Some `Overlong -> overlong c
    | None -> continue := false
  done

(* ---------------------------------------------------------------- *)
(* Scheduling and execution                                          *)
(* ---------------------------------------------------------------- *)

(* Fair round-robin: sweep the connections in accept order starting
   from the rotation cursor, taking one pending request per connection
   per sweep, until the batch is full or the queues are empty. One
   chatty connection therefore gets at most ceil(max_batch / active)
   slots ahead of anyone — no starvation. The cursor then advances one
   position, so the head-of-sweep advantage itself rotates. Given one
   arrival trace the batch composition is a pure function of queue
   states: the interleaving is deterministic. *)
let build_batch t =
  let rotated =
    let before, after = List.partition (fun c -> c.id < t.rr) t.conns in
    after @ before
  in
  (match rotated with
   | [] -> ()
   | first :: _ -> t.rr <- first.id + 1);
  let taken = ref [] and total = ref 0 in
  let progress = ref true in
  while !progress && !total < t.max_batch do
    progress := false;
    List.iter
      (fun c ->
         if !total < t.max_batch && not (Queue.is_empty c.pending) then begin
           taken := (c, Queue.take c.pending) :: !taken;
           incr total;
           progress := true
         end)
      rotated
  done;
  List.rev !taken

(* Snapshot the whole resident cache and truncate the journal: the
   next boot restores the snapshot and replays only what follows it.
   Without a journal there is nothing to cut. *)
let snapshot t =
  match (t.wal, t.wal_path) with
  | Some w, Some wal_path ->
    let upto_seq = Wal.last_seq w in
    Snapshot.write ~cache:(Engine.cache t.engine) ~upto_seq
      ~path:(Snapshot.path_for wal_path);
    let dropped = Wal.truncate w in
    let tel = Engine.telemetry t.engine in
    Telemetry.add tel Snapshots 1;
    Telemetry.keep_max tel Last_snapshot_seq upto_seq;
    Telemetry.add tel Snapshot_truncated_bytes dropped;
    ignore (Engine.mark_cache_clean t.engine);
    t.appends_since_snapshot <- 0
  | _ -> ()

let run_one_batch t ~on_commit =
  let batch = build_batch t in
  if batch <> [] then begin
    Telemetry.keep_max (Engine.telemetry t.engine) Queue_depth_max
      (List.fold_left (fun acc c -> max acc (Queue.length c.pending)) 0 t.conns);
    Telemetry.set_connections (Engine.telemetry t.engine)
      (List.map (fun c -> (c.id, Queue.length c.pending)) t.conns);
    let parsed =
      List.map
        (fun (c, (line, received)) ->
           (c, Protocol.parse ~received ~default_id:(next_id c) line))
        batch
    in
    let requests =
      List.filter_map (fun (_, p) -> Result.to_option p) parsed
      |> Array.of_list
    in
    (* group commit: the batch's acknowledged mutations are journaled
       with one fsync before any response is released below — a
       response a client can read implies its group is durable *)
    let responses = Server.execute_and_journal t.engine ?wal:t.wal requests in
    (match t.wal with
     | None ->
       (* nothing acknowledged outlives the process, so every entry is
          trivially durable: let the LRU bound evict between batches *)
       ignore (Engine.mark_cache_clean t.engine)
     | Some _ ->
       Array.iter
         (fun resp ->
            if Option.is_some resp.Protocol.wal then
              t.appends_since_snapshot <- t.appends_since_snapshot + 1)
         responses);
    (match t.snapshot_every with
     | Some every when t.appends_since_snapshot >= every -> snapshot t
     | _ -> ());
    on_commit ();
    (* every line answers at its request position: a malformed line
       does not overtake the requests admitted before it *)
    let next_ok = ref 0 in
    List.iter
      (fun (c, p) ->
         match p with
         | Error e -> enqueue c (Protocol.error_of_parse e)
         | Ok _ ->
           enqueue c responses.(!next_ok);
           incr next_ok)
      parsed;
    (* opportunistic flush: most responses leave without waiting for
       the next select round *)
    List.iter (fun c -> guarded c (fun () -> flush_conn t c)) t.conns
  end

(* ---------------------------------------------------------------- *)
(* Event loop                                                        *)
(* ---------------------------------------------------------------- *)

let accept_ready t listen_fd =
  let continue = ref true in
  while !continue && List.length t.conns < t.max_conns do
    match Unix.accept listen_fd with
    | fd, _ -> ignore (add_conn t fd)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let have_pending t =
  List.exists (fun c -> not (Queue.is_empty c.pending)) t.conns

(* Drop connections that are finished (EOF seen, nothing queued in
   either direction) or dead. *)
let sweep_conns t =
  t.conns <-
    List.filter
      (fun c ->
         if c.dead then false
         else if
           c.r.eof && Queue.is_empty c.pending && Queue.is_empty c.out
         then begin
           kill_conn c;
           false
         end
         else true)
      t.conns

(* After shutdown executes, give every surviving connection a bounded
   chance to receive its queued responses: rounds of writable-select
   with a short timeout, giving up after [max_rounds] without full
   drain (a peer that stopped reading must not wedge shutdown). The
   bound is counted in rounds, not wall time, so the loop stays
   clock-free. *)
let drain_outputs t ~max_rounds =
  let rounds = ref 0 in
  let remaining () =
    List.filter (fun c -> (not c.dead) && not (Queue.is_empty c.out)) t.conns
  in
  let rec go () =
    match remaining () with
    | [] -> ()
    | cs when !rounds < max_rounds ->
      incr rounds;
      (match Unix.select [] (List.map (fun c -> c.out_fd) cs) [] 0.05 with
       | _, ws, _ ->
         List.iter
           (fun c ->
              if List.memq c.out_fd ws then guarded c (fun () -> flush_conn t c))
           cs
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    | _ -> ()
  in
  go ()

let run ?(on_commit = fun () -> ()) ?listen t =
  (match listen with
   | Some fd -> (try Unix.set_nonblock fd with Unix.Unix_error _ -> ())
   | None -> ());
  let finished = ref false in
  while not !finished do
    if Engine.shutdown_requested t.engine then begin
      drain_outputs t ~max_rounds:200;
      List.iter kill_conn t.conns;
      t.conns <- [];
      finished := true
    end
    else if t.draining then begin
      (* graceful drain: stop accepting and reading, finish every
         request already admitted (each batch group-commits before its
         responses release), cut a final snapshot + truncate so the
         journal is empty, then give the peers a bounded chance to
         read their answers *)
      while have_pending t do
        run_one_batch t ~on_commit
      done;
      snapshot t;
      drain_outputs t ~max_rounds:200;
      List.iter kill_conn t.conns;
      t.conns <- [];
      finished := true
    end
    else begin
      let accepting =
        match listen with
        | Some fd when List.length t.conns < t.max_conns -> [ fd ]
        | _ -> []
      in
      let readers = List.filter (fun c -> not c.r.eof) t.conns in
      let writers =
        List.filter (fun c -> not (Queue.is_empty c.out)) t.conns
      in
      if
        accepting = [] && readers = [] && writers = [] && not (have_pending t)
      then begin
        (* no listener, every connection drained: the session is over *)
        List.iter kill_conn t.conns;
        t.conns <- [];
        finished := true
      end
      else begin
        let read_fds = accepting @ List.map (fun c -> c.r.fd) readers in
        let write_fds = List.map (fun c -> c.out_fd) writers in
        (* with work already admitted, poll instead of blocking: the
           batch below must not wait on quiet sockets *)
        let timeout = if have_pending t then 0.0 else -1.0 in
        (match Unix.select read_fds write_fds [] timeout with
         | rs, ws, _ ->
           (match listen with
            | Some fd when List.memq fd rs -> accept_ready t fd
            | _ -> ());
           (* readable connections are visited in accept order, not
              select's reporting order: the admission interleaving is
              deterministic given the trace *)
           List.iter
             (fun c ->
                if List.memq c.r.fd rs then
                  guarded c (fun () ->
                      refill c.r;
                      drain t c))
             readers;
           List.iter
             (fun c ->
                if List.memq c.out_fd ws then guarded c (fun () -> flush_conn t c))
             writers
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        run_one_batch t ~on_commit;
        sweep_conns t
      end
    end
  done

(* ---------------------------------------------------------------- *)
(* Front-end                                                         *)
(* ---------------------------------------------------------------- *)

(* SIGPIPE is ignored so a vanished peer fails its write with EPIPE
   (one dead connection) instead of killing the process. SIGTERM/SIGINT
   request a graceful drain rather than killing the process mid-batch;
   the handler only sets a flag, and the caught signal interrupts the
   loop's blocking select so the drain starts immediately. Previous
   dispositions are restored on the way out. *)
let with_signals t ~drain_signals f =
  let set signo behavior =
    try Some (signo, Sys.signal signo behavior)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let drain = Sys.Signal_handle (fun _ -> request_drain t) in
  let saved =
    List.filter_map Fun.id
      (set Sys.sigpipe Sys.Signal_ignore
       :: (if drain_signals then [ set Sys.sigterm drain; set Sys.sigint drain ]
           else []))
  in
  Fun.protect f ~finally:(fun () ->
      List.iter
        (fun (signo, behavior) ->
           try ignore (Sys.signal signo behavior)
           with Invalid_argument _ | Sys_error _ -> ())
        saved)

let serve engine ?wal ?wal_path ?faults ?max_pending ?max_line ?max_conns
    ?snapshot_every ?(drain_signals = true) ~max_batch endpoint =
  let t =
    create engine ?wal ?wal_path ?faults ?max_pending ?max_line ?max_conns
      ?snapshot_every ~max_batch ()
  in
  with_signals t ~drain_signals (fun () ->
      match endpoint with
      | `Stdio ->
        ignore (add_stdio t ~in_fd:Unix.stdin ~out_fd:Unix.stdout);
        run t
      | `Socket path ->
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (match Unix.lstat path with
         | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
         | _ -> ()
         | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        Fun.protect
          ~finally:(fun () ->
              (try Unix.close sock with Unix.Unix_error _ -> ());
              try Unix.unlink path with Unix.Unix_error _ -> ())
          (fun () ->
             Unix.bind sock (Unix.ADDR_UNIX path);
             Unix.listen sock 64;
             run ~listen:sock t))
