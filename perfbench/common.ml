(* Plumbing shared by every workload: run options, clocks, summary
   statistics, host facts, the determinism reference and the result
   line every run ends with. *)

module Json = Mcl_service.Json

type opts = {
  workload : string;
  seed : int;  (** run seed: only reorders work, never changes a design *)
  seconds : float;  (** measured-phase length *)
  trace : bool;
  workload_seed : int;  (** shifts every design seed and the ECO trace *)
  tiny : bool;  (** test-sized inputs *)
  work : string;  (** scratch + reference directory *)
  cli : string;  (** path of legalize_cli.exe *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------------------------------------------------------- *)
(* Statistics                                                        *)
(* ---------------------------------------------------------------- *)

(* Nearest-rank quantile; [nan] on no samples. *)
let quantile xs q =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0

let geomean xs =
  exp (mean (List.map log xs))

(* Named self-time accumulators for the traced runs, reported in first-
   use order. The benchmark wraps calls into the program's modules, so
   a span is one call's wall time. *)
module Spans = struct
  type t = { mutable order : string list; tbl : (string, float) Hashtbl.t }

  let create () = { order = []; tbl = Hashtbl.create 16 }

  let add t name dt =
    match Hashtbl.find_opt t.tbl name with
    | Some v -> Hashtbl.replace t.tbl name (v +. dt)
    | None ->
      t.order <- t.order @ [ name ];
      Hashtbl.replace t.tbl name dt

  let time t name f =
    let t0 = now () in
    let r = f () in
    add t name (now () -. t0);
    r

  let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.tbl name)
  let total t = List.fold_left (fun acc n -> acc +. get t n) 0.0 t.order
end

(* ---------------------------------------------------------------- *)
(* Host facts                                                        *)
(* ---------------------------------------------------------------- *)

(* A fixed integer workload (~50 ms on a 2020s x86 core): timed at the
   start and end of every run, it marks runs taken in a slow host
   phase without correcting anything. *)
let calib_ms () =
  let a = Array.make 4096 0 in
  let acc = ref 0 in
  let t0 = now () in
  for i = 0 to 20_000_000 do
    let j = (i * 2654435761) land 4095 in
    a.(j) <- a.(j) + i;
    acc := !acc + a.((j + 7) land 4095)
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.0

(* The host's speed drifts by up to 2x over seconds to minutes, on each
   CPU on its own (README.md, Host noise), and a raw time says more about
   the drift than about the program. [speed ()] samples it with two
   fixed kernels that allocate nothing, so the program's heap cannot
   move them: an integer hash over a 32 KB table and a dependent walk
   over a 2 MB one. Each gives its nominal time over its measured time,
   and the speed is the mean of the two: on the batch flow the mean
   tracked the legalizer's own slowdown far better than either kernel
   alone. The nominal times are the kernels' typical times on the host
   the benchmark was defined on; they are part of the benchmark's
   definition, and changing them rescales every timing metric. *)
let hash_table = Array.make 4096 0

(* outside the OCaml heap: 2 MB more of live heap would let the GC grow
   every run's heap, and so its peak RSS, by several times that *)
let walk_table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 18) (fun i ->
      (i * 7919) land ((1 lsl 18) - 1))

let hash_nominal_s = 0.0014

let walk_nominal_s = 0.00054

let hash_kernel () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 0 to 500_000 do
    let j = (i * 2654435761) land 4095 in
    hash_table.(j) <- hash_table.(j) + i;
    acc := !acc + hash_table.((j + 7) land 4095)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let walk_kernel () =
  let t0 = now () in
  let j = ref 0 and acc = ref 0 in
  for _ = 0 to 200_000 do
    j := Bigarray.Array1.get walk_table ((!j + !acc) land ((1 lsl 18) - 1));
    acc := !acc + !j
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* every sample of the run, newest first, with the time it was taken *)
let speeds = ref []

(* One sample is noisy on its own: a kernel meets whatever cache state
   the program left behind, and the samples of one run range over 3x.
   The drift it tracks moves over seconds, so samples this close to the
   present are pooled. Where samples are sparse (the service's closed
   loop, a set-up) a window this short holds one or two of them. *)
let window_s = 0.5

(* Take a sample and give the host speed now: the median of the samples
   of the last [window_s] seconds, the new one included. *)
let speed () =
  let s = 0.5 *. ((hash_nominal_s /. hash_kernel ()) +. (walk_nominal_s /. walk_kernel ())) in
  let t = now () in
  speeds := (t, s) :: !speeds;
  let rec recent acc = function
    | (ts, x) :: rest when t -. ts <= window_s -> recent (x :: acc) rest
    | _ -> acc
  in
  median (recent [] !speeds)

(* A stopwatch that samples the speed at every lap. [lap] gives the raw
   seconds since the previous lap, without the sampling itself, and the
   factor that scales them to the nominal speed: the mean of the host
   speeds at both ends of the interval. *)
type clock = { mutable t : float; mutable s : float; mutable sampling : float }

let clock () =
  let t0 = now () in
  let s = speed () in
  { t = now (); s; sampling = now () -. t0 }

let lap c =
  let t = now () in
  let s = speed () in
  let raw = t -. c.t and factor = 0.5 *. (c.s +. s) in
  c.t <- now ();
  c.sampling <- c.sampling +. (c.t -. t);
  c.s <- s;
  (raw, factor)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       let rec find () =
         match input_line ic with
         | line when String.starts_with ~prefix:"VmHWM:" line ->
           Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
         | _ -> find ()
         | exception End_of_file -> failwith "no VmHWM in /proc status"
       in
       find ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Commit of the checkout, from .git when there is one (a ref kept
   only in packed-refs, or an export without .git, gives "unknown"). *)
let git_revision () =
  match String.trim (read_file ".git/HEAD") with
  | head when String.starts_with ~prefix:"ref: " head ->
    (try String.trim (read_file (".git/" ^ String.sub head 5 (String.length head - 5)))
     with Sys_error _ -> "unknown")
  | rev -> rev
  | exception Sys_error _ -> "unknown"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ---------------------------------------------------------------- *)
(* Results                                                           *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The metrics every workload reports on its result line, with their
   units: BENCHMARK.json's end_to_end and per_layer lists (the tests
   keep the two in step). A workload measures more than these; the
   rest is printed in its tables and recorded in results.jsonl. *)
let end_to_end =
  [ ("setup_s", "s"); ("cells_per_s", "cells/s"); ("latency_ms", "ms"); ("query_ms", "ms");
    ("score_geomean", "score");
    ("avg_disp_rows", "rows"); ("max_disp_rows", "rows"); ("routability_violations", "count");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("bookshelf.parse_s", "s"); ("core.mgl_s", "s"); ("core.mgl.windows_built", "count");
    ("core.mgl.cuts_evaluated", "count"); ("core.mgl.prune_ratio", "ratio");
    ("core.mgl.window_growths", "count"); ("core.mgl.us_per_window", "us");
    ("core.matching_s", "s"); ("core.matching.groups", "count");
    ("core.matching.cells_moved", "count"); ("core.row_order_s", "s");
    ("core.row_order.arcs", "count"); ("eval.score_s", "s"); ("eval.legality_s", "s");
    ("gc.minor_words_per_cell", "words"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("trace.unaccounted_pct", "%"); ("trace.overhead_pct", "%");
    ("host.calib_ms", "ms") ]

(* The metrics of [names] from [ms], in the order of [names]; a missing
   one, or one in another unit, is a bug in the workload. *)
let select names ms =
  List.map
    (fun (name, unit_) ->
       match List.find_opt (fun x -> x.name = name) ms with
       | Some x when x.unit_ = unit_ -> x
       | Some x -> failwith (Printf.sprintf "perfbench: %s is in %s, not %s" name x.unit_ unit_)
       | None -> failwith ("perfbench: the workload did not measure " ^ name))
    names

(* What one workload run hands back to perfbench.ml. [e2e] and
   [layers] hold every metric the run measured, those of
   [end_to_end] and [per_layer] among them (layers only when traced);
   [deterministic] are the placement-quality facts every run of the
   same inputs must reproduce exactly; [meta] describes the run. *)
type outcome = {
  e2e : metric list;
  layers : metric list;
  deterministic : (string * Json.t) list;
  meta : (string * Json.t) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** correctness checks, by name *)
}

let metric_json ms =
  Json.Obj
    (List.map
       (fun x ->
          (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6g  %s\n" x.name x.value x.unit_)
    ms

(* The deterministic facts of the first run with a given input key are
   stored under [work]/reference; every later run of the same key in
   this checkout must reproduce them exactly. *)
let check_reference opts ~key facts =
  let dir = Filename.concat opts.work "reference" in
  mkdir_p dir;
  let path = Filename.concat dir (key ^ ".json") in
  (* compare printed forms: a float that prints as an integer parses
     back as [Int] *)
  let canonical text =
    match Json.parse text with
    | Ok j -> Json.to_string j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let current = canonical (Json.to_string (Json.Obj facts)) in
  if not (Sys.file_exists path) then begin
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc current);
    Sys.rename tmp path;
    true
  end
  else begin
    let stored = canonical (read_file path) in
    if stored <> current then
      Printf.eprintf
        "perfbench: deterministic metrics differ from the first run of %s\n\
        \  first: %s\n  now:   %s\n%!"
        key stored current;
    stored = current
  end
