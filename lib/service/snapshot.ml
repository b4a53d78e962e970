open Mcl_netlist
module Crc32 = Mcl_resilience.Crc32

(* ---------------------------------------------------------------- *)
(* Format                                                            *)
(* ---------------------------------------------------------------- *)

(* NDJSON, one header line then one line per resident design:

     {"snapshot":2,"upto_seq":S,"designs":N,"crc":C}
     {"design":K,"legalized":B,"eco_count":E,
      "load":<canonical load request>,
      "positions":[x0,y0,x1,y1,...],"anchors":[x0,y0,...],"crc":C}

   Every line carries a trailing CRC-32 over its base form (the line
   with the ["crc"] field removed), so recovery can tell bit rot from
   honest state. Version-1 snapshots (no CRC fields) still load,
   unverified. The design is rebuilt by re-executing its canonical
   [load] line (deterministic: same generator seed / file / suite),
   then positions and GP anchors are overwritten with the journaled
   arrays — exactly the state components {!Engine.state_fingerprint}
   covers, so a loaded snapshot is fingerprint-identical to the live
   engine at the moment the snapshot was cut. *)

let path_for wal_path = wal_path ^ ".snap"

(* [seal B] turns a base object line [{...}] into its checksummed
   form: the CRC is computed over the whole base line, then spliced in
   as a final ["crc"] field. [unseal line] inverts and verifies:
   [Some base] when the stored CRC matches, [None] otherwise. Lines
   without a ["crc"] suffix are legacy (v1) and handled by the
   caller. *)
let seal base =
  Printf.sprintf {|%s,"crc":%d}|}
    (String.sub base 0 (String.length base - 1))
    (Crc32.string base)

let crc_key = {|,"crc":|}

let split_crc line =
  let n = String.length line in
  let klen = String.length crc_key in
  if n < klen + 2 || line.[n - 1] <> '}' then None
  else
    let rec rfind i =
      if i < 0 then None
      else if String.sub line i klen = crc_key then Some i
      else rfind (i - 1)
    in
    match rfind (n - klen - 1) with
    | None -> None
    | Some i ->
      (match int_of_string_opt (String.sub line (i + klen) (n - 1 - i - klen)) with
       | None -> None
       | Some stored -> Some (String.sub line 0 i ^ "}", stored))

let unseal line =
  match split_crc line with
  | None -> None
  | Some (base, stored) ->
    if Crc32.string base = stored then Some base else None

let flat_points arr =
  Json.List
    (Array.to_list arr
     |> List.concat_map (fun (x, y) -> [ Json.Int x; Json.Int y ]))

let points_of_json j =
  match Json.to_list j with
  | None -> None
  | Some items ->
    let rec pairs = function
      | [] -> Some []
      | Json.Int x :: Json.Int y :: rest ->
        Option.map (fun tl -> (x, y) :: tl) (pairs rest)
      | _ -> None
    in
    Option.map Array.of_list (pairs items)

let entry_line (e : Cache.entry) =
  (* [load_wire] is already canonical single-line JSON: embed it raw
     rather than re-parsing it into the tree *)
  Printf.sprintf
    {|{"design":%s,"legalized":%s,"eco_count":%d,"load":%s,"positions":%s,"anchors":%s}|}
    (Json.to_string (Json.String e.Cache.key))
    (if e.Cache.legalized then "true" else "false")
    e.Cache.eco_count e.Cache.load_wire
    (Json.to_string (flat_points (Design.snapshot e.Cache.design)))
    (Json.to_string (flat_points (Design.snapshot_anchors e.Cache.design)))

(* ---------------------------------------------------------------- *)
(* Writing                                                           *)
(* ---------------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Atomic replace: the snapshot is complete-or-absent. The bytes are
   fsync'd before the rename and the directory after it, so a crash
   leaves either the previous snapshot or the new one — never a torn
   file. The per-line CRCs guard against what atomicity cannot: bytes
   that rot, or get edited, after the rename. *)
let write ~cache ~upto_seq ~path =
  let entries = Cache.entries cache in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (seal
       (Printf.sprintf {|{"snapshot":2,"upto_seq":%d,"designs":%d}|} upto_seq
          (List.length entries)));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
       Buffer.add_string buf (seal (entry_line e));
       Buffer.add_char buf '\n')
    entries;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       write_all fd (Buffer.contents buf);
       Unix.fsync fd);
  Unix.rename tmp path;
  (match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
   | dirfd ->
     (try Unix.fsync dirfd with Unix.Unix_error _ -> ());
     (try Unix.close dirfd with Unix.Unix_error _ -> ())
   | exception Unix.Unix_error _ -> ())

(* ---------------------------------------------------------------- *)
(* Loading                                                           *)
(* ---------------------------------------------------------------- *)

type loaded = {
  upto_seq : int;
  restored : int;
  failed : int;
  corrupt : int;
  first_corrupt_line : int option;
}

let read_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
         let rec go acc =
           match input_line ic with
           | line -> go (line :: acc)
           | exception End_of_file -> List.rev acc
         in
         Some (go []))

let restore_design engine ~received line =
  match Json.parse line with
  | Error _ -> false
  | Ok j ->
    (match (Json.get_string "design" j, Json.member "load" j) with
     | Some key, Some load_j ->
       let load_line = Json.to_string load_j in
       (match
          Protocol.parse ~received ~default_id:("snap-" ^ key) load_line
        with
        | Error _ -> false
        | Ok req ->
          let resp = (Engine.execute engine [| req |]).(0) in
          if Result.is_error resp.Protocol.result then false
          else
            (match Cache.find (Engine.cache engine) key with
             | None -> false
             | Some entry ->
               (match
                  ( Option.bind (Json.member "positions" j) points_of_json,
                    Option.bind (Json.member "anchors" j) points_of_json )
                with
                | Some pos, Some anchors
                  when Array.length pos
                       = Array.length (Design.snapshot entry.Cache.design) ->
                  Design.restore entry.Cache.design pos;
                  Design.restore_anchors entry.Cache.design anchors;
                  entry.Cache.legalized <-
                    Option.value (Json.get_bool "legalized" j) ~default:false;
                  entry.Cache.eco_count <-
                    Option.value (Json.get_int "eco_count" j) ~default:0;
                  entry.Cache.dirty <- false;
                  (* the re-executed load left a stale congestion map
                     seed; drop it (and any resident context) so both
                     are rebuilt over the restored placement *)
                  entry.Cache.congest <- None;
                  entry.Cache.ctx <- None;
                  true
                | _ -> false)))
     | _ -> false)

(* A version-2 snapshot verifies every line before using it; a bad CRC
   (or a line count short of the header's [designs] claim — a
   truncated file) is a corruption verdict, counted in [corrupt] with
   the 1-based line number of the first offender. Version-1 snapshots
   load as before, unverified: rebuild failures stay [failed]. A
   non-empty file whose header cannot be read at all is wholly
   corrupt — only a missing or empty file is "no snapshot". *)
let load engine ~received ~path =
  match read_lines path with
  | None | Some [] -> None
  | Some (header :: designs) ->
    let total = 1 + List.length designs in
    let all_corrupt () =
      Some
        { upto_seq = 0; restored = 0; failed = 0; corrupt = total;
          first_corrupt_line = Some 1 }
    in
    let checked, header_base =
      match split_crc header with
      | Some _ -> (true, unseal header)
      | None -> (false, Some header)
    in
    (match header_base with
     | None -> all_corrupt ()  (* checksummed header, bad CRC *)
     | Some header_base ->
       (match Json.parse header_base with
        | Error _ -> all_corrupt ()
        | Ok h ->
          (match Json.get_int "upto_seq" h with
           | None -> all_corrupt ()
           | Some upto_seq ->
             let restored = ref 0 and failed = ref 0 and corrupt = ref 0 in
             let first_corrupt = ref None in
             let flag_corrupt lineno =
               incr corrupt;
               if !first_corrupt = None then first_corrupt := Some lineno
             in
             List.iteri
               (fun i line ->
                  let lineno = i + 2 in
                  if String.trim line <> "" then
                    if checked && unseal line = None then flag_corrupt lineno
                    else if restore_design engine ~received line then
                      incr restored
                    else incr failed)
               designs;
             (* fewer design lines than the header promised: the tail
                of the snapshot is gone *)
             (match Json.get_int "designs" h with
              | Some n when n > !restored + !failed + !corrupt ->
                flag_corrupt (total + 1)
              | _ -> ());
             Some
               { upto_seq; restored = !restored; failed = !failed;
                 corrupt = !corrupt; first_corrupt_line = !first_corrupt })))
