(* The inputs of each workload: which generated designs, at what scale
   and tiling, and the seeds. The workload seed shifts every design's
   generator seed (and the ECO trace); the run seed never touches a
   design, so the deterministic metrics of one workload seed are the
   same for every run seed. *)

module Spec = Mcl_gen.Spec

type t = {
  scale : float;
  tiles : int;
  specs : Spec.t list;
}

let shifted ~workload_seed (s : Spec.t) =
  { s with Spec.seed = s.Spec.seed + (1000 * workload_seed) }

let pick names specs =
  List.map (fun n -> List.find (fun s -> s.Spec.name = n) specs) names

(* table1: the paper's Table 1 roster as is. *)
let table1 ~tiny =
  let scale = if tiny then 0.01 else 0.25 in
  let all = Mcl_gen.Suites.iccad2017 ~scale () in
  let specs =
    if tiny then pick [ "fft_2_md2"; "fft_a_md3"; "pci_bridge32_a_md1" ] all
    else all
  in
  { scale; tiles = 1; specs }

(* wide: Table 1 designs of every density class tiled side by side, so
   rows are [tiles] times longer at the same local structure. *)
let wide ~tiny =
  let scale = if tiny then 0.01 else 0.1 in
  let tiles = if tiny then 4 else 16 in
  let names =
    if tiny then [ "fft_2_md2" ]
    else [ "des_perf_1"; "des_perf_b_md2"; "edit_dist_a_md2"; "fft_2_md2" ]
  in
  { scale; tiles; specs = pick names (Mcl_gen.Suites.iccad2017 ~scale ~replicate:tiles ()) }

(* eco_service: two resident designs with different height mixes
   (1-2 rows and 1-4 rows). *)
let eco_service ~tiny =
  let scale = if tiny then 0.05 else 0.5 in
  { scale; tiles = 1;
    specs = pick [ "des_perf_a_md1"; "edit_dist_a_md3" ] (Mcl_gen.Suites.iccad2017 ~scale ()) }

let of_workload name ~tiny =
  match name with
  | "table1" -> table1 ~tiny
  | "wide" -> wide ~tiny
  | "eco_service" -> eco_service ~tiny
  | other -> invalid_arg ("unknown workload " ^ other)

let file_of dir (s : Spec.t) = Filename.concat dir (s.Spec.name ^ ".mcl")

(* Write the workload's design files into [dir]; runs in a child
   process so the generator's memory never shows in the measured
   process's peak RSS. *)
let generate t ~workload_seed ~dir =
  List.iter
    (fun s ->
       Mcl_bookshelf.Writer.write_file (file_of dir s)
         (Mcl_gen.Generator.generate (shifted ~workload_seed s)))
    t.specs

(* Key of the deterministic reference: everything that determines the
   inputs, nothing that only reorders them. *)
let key ~workload ~workload_seed ~tiny t =
  Printf.sprintf "%s-ws%d-scale%g-x%d%s" workload workload_seed t.scale t.tiles
    (if tiny then "-tiny" else "")

let meta t ~workload_seed =
  let module J = Common.Json in
  [ ("workload_seed", J.Int workload_seed);
    ("scale", J.Float t.scale);
    ("tiles", J.Int t.tiles);
    ("design_count", J.Int (List.length t.specs));
    ("designs", J.List (List.map (fun s -> J.String s.Spec.name) t.specs)) ]
