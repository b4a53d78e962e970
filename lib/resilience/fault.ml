module Prng = Mcl_geom.Prng

type kind =
  | Short_read
  | Short_write
  | Eintr
  | Conn_reset
  | Stage_fail of string
  | Worker_death
  | Clock_skew
  | Bit_flip
  | Torn_write

let stages = [ "mgl"; "matching"; "row-order"; "eco" ]

(* New kinds must be appended at the END: lane sub-seeds are split off
   the master in this order, so inserting one mid-list would silently
   reshuffle every later kind's schedule (pinned by the determinism
   test). *)
let all_kinds =
  [ Short_read; Short_write; Eintr; Conn_reset; Worker_death; Clock_skew ]
  @ List.map (fun s -> Stage_fail s) stages
  @ [ Bit_flip; Torn_write ]

let kind_name = function
  | Short_read -> "short-read"
  | Short_write -> "short-write"
  | Eintr -> "eintr"
  | Conn_reset -> "conn-reset"
  | Stage_fail s -> "stage-fail:" ^ s
  | Worker_death -> "worker-death"
  | Clock_skew -> "clock-skew"
  | Bit_flip -> "bit-flip"
  | Torn_write -> "torn-write"

let kind_of_string s =
  match s with
  | "short-read" -> Ok Short_read
  | "short-write" -> Ok Short_write
  | "eintr" -> Ok Eintr
  | "conn-reset" -> Ok Conn_reset
  | "worker-death" -> Ok Worker_death
  | "clock-skew" -> Ok Clock_skew
  | "bit-flip" -> Ok Bit_flip
  | "torn-write" -> Ok Torn_write
  | _ ->
    (match String.index_opt s ':' with
     | Some i when String.sub s 0 i = "stage-fail" ->
       let stage = String.sub s (i + 1) (String.length s - i - 1) in
       if List.mem stage stages then Ok (Stage_fail stage)
       else Error (Printf.sprintf "unknown stage %S in fault kind" stage)
     | _ -> Error (Printf.sprintf "unknown fault kind %S" s))

let kinds_of_string s =
  if String.trim s = "all" then Ok all_kinds
  else
    String.split_on_char ',' s
    |> List.filter (fun p -> String.trim p <> "")
    |> List.fold_left
      (fun acc p ->
         match acc, kind_of_string (String.trim p) with
         | Error _, _ -> acc
         | Ok ks, Ok k -> Ok (k :: ks)
         | Ok _, (Error _ as e) -> e)
      (Ok [])
    |> Result.map List.rev

(* Per-kind firing state: [countdown] opportunities until the next
   firing; when it reaches zero, the next period is drawn from the
   kind's own stream. Every site is polled from the control thread
   (the engine draws worker-death fates up front and runs design
   groups in order), so the streams advance in one order; the mutex
   only keeps a plan safe to poll from another thread. *)
type lane = {
  prng : Prng.t;
  mutable countdown : int;
  mutable skew : float;  (* Clock_skew only: accumulated seconds *)
}

type t = {
  lanes : (kind * lane) list;  (* tiny; assq-style lookup *)
  lock : Mutex.t;
}

let create ~seed ~kinds =
  let master = Prng.create seed in
  (* draw per-lane seeds in a canonical order (all_kinds), so the
     schedule of one kind does not depend on which others are on *)
  let lanes =
    List.filter_map
      (fun k ->
         let sub = Prng.split master in
         if List.mem k kinds then
           Some (k, { prng = sub; countdown = 1 + Prng.int sub 3; skew = 0.0 })
         else None)
      all_kinds
  in
  { lanes; lock = Mutex.create () }

let find t k = List.assoc_opt k t.lanes

(* One opportunity: true when the lane fires now. *)
let fires t k =
  match find t k with
  | None -> false
  | Some lane ->
    Mutex.lock t.lock;
    lane.countdown <- lane.countdown - 1;
    let fired = lane.countdown <= 0 in
    if fired then lane.countdown <- 2 + Prng.int lane.prng 4;
    Mutex.unlock t.lock;
    fired

let draw_in t k lo hi =
  match find t k with
  | None -> lo
  | Some lane ->
    Mutex.lock t.lock;
    let v = Prng.int_in lane.prng lo hi in
    Mutex.unlock t.lock;
    v

let short_read t n =
  match t with
  | None -> n
  | Some t -> if n > 1 && fires t Short_read then draw_in t Short_read 1 (n - 1) else n

let short_write t n =
  match t with
  | None -> n
  | Some t -> if n > 1 && fires t Short_write then draw_in t Short_write 1 (n - 1) else n

let eintr = function None -> false | Some t -> fires t Eintr

let conn_reset = function None -> false | Some t -> fires t Conn_reset

let stage_fail t ~stage =
  match t with None -> false | Some t -> fires t (Stage_fail stage)

let worker_death = function None -> false | Some t -> fires t Worker_death

let bit_flip t n =
  match t with
  | None -> None
  | Some t ->
    if n > 0 && fires t Bit_flip then Some (draw_in t Bit_flip 0 (n - 1))
    else None

let torn_write t n =
  match t with
  | None -> n
  | Some t ->
    if n > 1 && fires t Torn_write then draw_in t Torn_write 1 (n - 1) else n

let now = function
  | None -> Unix.gettimeofday ()
  | Some t ->
    (match find t Clock_skew with
     | None -> Unix.gettimeofday ()
     | Some lane ->
       if fires t Clock_skew then begin
         let jump = float_of_int (draw_in t Clock_skew 1 6) in
         Mutex.lock t.lock;
         lane.skew <- lane.skew +. jump;
         Mutex.unlock t.lock
       end;
       Unix.gettimeofday () +. lane.skew)
