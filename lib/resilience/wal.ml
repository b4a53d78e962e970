type t = {
  fd : Unix.file_descr;
  faults : Fault.t option;
  mutable seq : int;  (* last assigned *)
  mutable closed : bool;
  mutable appends : int;
  mutable fsyncs : int;
  mutable groups : int;
  mutable truncated_bytes : int;
}

type record = { seq : int; payload : string }

type report = {
  records : record list;
  torn_tail : int;
  trailing_garbage : int;
  first_bad_seq : int option;
  legacy : int;
}

type stats = {
  appends : int;
  fsyncs : int;
  groups : int;
  truncated_bytes : int;
}

exception Corrupt of string * report

let corrupt r = r.first_bad_seq <> None

let corrupt_summary r =
  Printf.sprintf "records-kept=%d records-dropped=%d first-bad-seq=%s"
    (List.length r.records)
    (r.torn_tail + r.trailing_garbage)
    (match r.first_bad_seq with Some s -> string_of_int s | None -> "none")

(* A legacy record line is exactly [{"seq":N,"req":PAYLOAD}]; a
   checksummed one is [{"seq":N,"crc":C,"req":PAYLOAD}] where [C] is
   the CRC-32 of the legacy form — covering the sequence digits too,
   so a flipped seq digit cannot masquerade as a different base after
   snapshot truncation. Parsing is plain string surgery so the library
   needs no JSON codec. *)
(* CRC of the legacy form, fed to {!Crc32.update} piecewise so the hot
   append path never materialises the legacy string. *)
let frame_crc ~seq payload =
  let digits = string_of_int seq in
  let c = Crc32.update 0 {|{"seq":|} 0 7 in
  let c = Crc32.update c digits 0 (String.length digits) in
  let c = Crc32.update c {|,"req":|} 0 7 in
  let c = Crc32.update c payload 0 (String.length payload) in
  Crc32.update c "}" 0 1

(* Append one checksummed record to [buf]: the legacy shape with the
   [,"crc":C] field spliced in after the sequence number. *)
let add_frame buf ~seq payload =
  Buffer.add_string buf {|{"seq":|};
  Buffer.add_string buf (string_of_int seq);
  Buffer.add_string buf {|,"crc":|};
  Buffer.add_string buf (string_of_int (frame_crc ~seq payload));
  Buffer.add_string buf {|,"req":|};
  Buffer.add_string buf payload;
  Buffer.add_char buf '}'

(* Per-line verdict: [Valid (record, is_legacy)], or [Damaged seq_opt]
   carrying the frame's sequence number when the shape parsed far
   enough to recover it (a CRC mismatch knows its claimed seq). *)
type parsed = Valid of record * bool | Damaged of int option

let parse_line line =
  let prefix = {|{"seq":|} in
  let plen = String.length prefix in
  let n = String.length line in
  if n < plen + 2 || String.sub line 0 plen <> prefix || line.[n - 1] <> '}'
  then Damaged None
  else
    match String.index_from_opt line plen ',' with
    | None -> Damaged None
    | Some comma ->
      (match int_of_string_opt (String.sub line plen (comma - plen)) with
       | None -> Damaged None
       | Some seq ->
         let mid = {|"req":|} in
         let mlen = String.length mid in
         let crc_key = {|"crc":|} in
         let clen = String.length crc_key in
         if comma + 1 + mlen < n && String.sub line (comma + 1) mlen = mid
         then
           let start = comma + 1 + mlen in
           Valid ({ seq; payload = String.sub line start (n - 1 - start) }, true)
         else if
           comma + 1 + clen < n && String.sub line (comma + 1) clen = crc_key
         then
           match String.index_from_opt line (comma + 1 + clen) ',' with
           | None -> Damaged (Some seq)
           | Some comma2 ->
             (match
                int_of_string_opt
                  (String.sub line (comma + 1 + clen)
                     (comma2 - comma - 1 - clen))
              with
              | None -> Damaged (Some seq)
              | Some stored ->
                if
                  comma2 + 1 + mlen >= n
                  || String.sub line (comma2 + 1) mlen <> mid
                then Damaged (Some seq)
                else
                  let start = comma2 + 1 + mlen in
                  let payload = String.sub line start (n - 1 - start) in
                  if frame_crc ~seq payload = stored then
                    Valid ({ seq; payload }, false)
                  else Damaged (Some seq))
         else Damaged (Some seq))

(* Scan the journal text into a report plus the byte length of the
   valid prefix. The first valid record sets the base sequence (a
   truncated-after-snapshot journal restarts above 1); records must be
   consecutive from there. One unterminated partial final line is the
   benign crash artifact ([torn_tail]); any {e terminated} bad line —
   CRC mismatch, unparsable frame, sequence gap — is corruption:
   [first_bad_seq] is set and everything after counts as
   [trailing_garbage]. *)
let scan text =
  let n = String.length text in
  let records = ref [] and valid_bytes = ref 0 in
  let torn = ref 0 and garbage = ref 0 and legacy = ref 0 in
  let first_bad = ref None in
  let pos = ref 0 and expect = ref 0 and ok = ref true in
  while !pos < n do
    let nl = try String.index_from text !pos '\n' with Not_found -> n in
    let line = String.sub text !pos (nl - !pos) in
    let terminated = nl < n in
    (if !ok then begin
       if terminated then begin
         match parse_line line with
         | Valid (r, is_legacy)
           when (if !expect = 0 then r.seq > 0 else r.seq = !expect) ->
           records := r :: !records;
           expect := r.seq + 1;
           valid_bytes := nl + 1;
           if is_legacy then incr legacy
         | Valid (r, _) ->
           ok := false;
           first_bad := Some r.seq;
           if String.trim line <> "" then incr garbage
         | Damaged seq_opt ->
           ok := false;
           first_bad :=
             Some
               (match seq_opt with
                | Some s -> s
                | None -> if !expect > 0 then !expect else 0);
           if String.trim line <> "" then incr garbage
       end
       else if String.trim line <> "" then incr torn
     end
     else if String.trim line <> "" then incr garbage);
    pos := nl + 1
  done;
  ( { records = List.rev !records; torn_tail = !torn;
      trailing_garbage = !garbage; first_bad_seq = !first_bad;
      legacy = !legacy },
    !valid_bytes )

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let read ~path = fst (scan (read_file path))

let open_ ?(best_effort = false) ?faults ?(next_seq = 1) ~path () =
  let report, valid_bytes = scan (read_file path) in
  (* a terminated bad record is corruption, not a torn tail: refuse to
     append after it unless the caller explicitly settles for the
     valid prefix *)
  if corrupt report && not best_effort then raise (Corrupt (path, report));
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  (* repair the torn tail (and, under [best_effort], drop everything
     from the first bad record on) before appending: a partial last
     line would otherwise concatenate with the next record and poison
     it *)
  Unix.ftruncate fd valid_bytes;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  (* a journal truncated after a snapshot is empty but must keep
     counting from where it left off: the caller passes the snapshot's
     sequence as [next_seq]; surviving records take precedence (they
     can only be at or beyond it) *)
  let seq =
    match List.rev report.records with
    | r :: _ -> max r.seq (next_seq - 1)
    | [] -> next_seq - 1
  in
  { fd; faults; seq; closed = false;
    appends = 0; fsyncs = 0; groups = 0; truncated_bytes = 0 }

let next_seq (t : t) = t.seq + 1

let last_seq (t : t) = t.seq

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Group commit: the whole batch of payloads is framed into one buffer,
   written with one write loop and made durable with one fsync — the
   per-record fsync is what caps a per-request journal at disk-flush
   rate. Callers must hold every member's response until this returns:
   the group's durability is all-or-nothing.

   The Bit_flip / Torn_write fault lanes corrupt the buffer here, on
   the real write path, so the torture harness exercises exactly what
   a crashed or bit-rotted disk would hand back to recovery. *)
let append_all t payloads =
  if t.closed then invalid_arg "Wal.append_all: closed journal";
  match payloads with
  | [] -> t.seq
  | _ ->
    let buf = Buffer.create 256 in
    let seq = ref t.seq in
    List.iter
      (fun payload ->
         if String.contains payload '\n' then
           invalid_arg "Wal.append_all: payload contains a newline";
         incr seq;
         add_frame buf ~seq:!seq payload;
         Buffer.add_char buf '\n')
      payloads;
    let group = Buffer.contents buf in
    let group =
      match Fault.bit_flip t.faults (String.length group) with
      | None -> group
      | Some off ->
        let b = Bytes.of_string group in
        Bytes.set b off
          (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (off land 7))));
        Bytes.to_string b
    in
    let keep = Fault.torn_write t.faults (String.length group) in
    write_all t.fd (String.sub group 0 keep);
    Unix.fsync t.fd;
    t.fsyncs <- t.fsyncs + 1;
    t.appends <- t.appends + List.length payloads;
    t.groups <- t.groups + 1;
    t.seq <- !seq;
    t.seq

let append t payload =
  ignore (append_all t [ payload ]);
  t.seq

(* Drop the journaled prefix once a snapshot covers it. The sequence
   counter keeps running — the next append continues numbering where
   the snapshot stopped, and {!scan} accepts the non-1 base. *)
let truncate t =
  if t.closed then invalid_arg "Wal.truncate: closed journal";
  let size = (Unix.fstat t.fd).Unix.st_size in
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  Unix.fsync t.fd;
  t.truncated_bytes <- t.truncated_bytes + size;
  size

let stats (t : t) =
  { appends = t.appends; fsyncs = t.fsyncs; groups = t.groups;
    truncated_bytes = t.truncated_bytes }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
