module Interval = Mcl_geom.Interval
module Rect = Mcl_geom.Rect

(* Pin [i] is listed in every bucket its x-range touches;
   [first.(i)] is its first bucket, used to report each pin exactly
   once per query. *)
type t = {
  pins : Floorplan.io_pin array;
  bin : int;          (* dbu per bucket, > 0 *)
  nbins : int;
  off : int array;    (* nbins + 1 prefix offsets into ids *)
  ids : int array;    (* pin indices, bucket-major, index-ascending *)
  first : int array;  (* pin -> first bucket *)
}

let bucket_of ~bin ~nbins x = Int.max 0 (Int.min (nbins - 1) (x / bin))

let create (fp : Floorplan.t) =
  let pins = Array.of_list fp.Floorplan.io_pins in
  let n = Array.length pins in
  let bin = max 1 (64 * fp.Floorplan.site_width) in
  let die_w = fp.Floorplan.num_sites * fp.Floorplan.site_width in
  let nbins = max 1 ((die_w / bin) + 1) in
  let bucket = bucket_of ~bin ~nbins in
  let xs (p : Floorplan.io_pin) = p.Floorplan.io_rect.Rect.x in
  let first = Array.map (fun p -> bucket (xs p).Interval.lo) pins in
  let last = Array.map (fun p -> bucket (xs p).Interval.hi) pins in
  let off = Array.make (nbins + 1) 0 in
  for i = 0 to n - 1 do
    for b = first.(i) to last.(i) do
      off.(b + 1) <- off.(b + 1) + 1
    done
  done;
  for b = 1 to nbins do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  let ids = Array.make off.(nbins) 0 in
  let cursor = Array.copy off in
  for i = 0 to n - 1 do
    for b = first.(i) to last.(i) do
      ids.(cursor.(b)) <- i;
      cursor.(b) <- cursor.(b) + 1
    done
  done;
  { pins; bin; nbins; off; ids; first }

let pins t = t.pins

(* The walk visits a pin in every bucket the query shares with it but
   reports it only in the first one ([b = b0 || first = b]). *)
let iter_near t (shape : Rect.t) f =
  if Array.length t.pins > 0 then begin
    let b0 = bucket_of ~bin:t.bin ~nbins:t.nbins shape.Rect.x.Interval.lo
    and b1 = bucket_of ~bin:t.bin ~nbins:t.nbins shape.Rect.x.Interval.hi in
    for b = b0 to b1 do
      for k = t.off.(b) to t.off.(b + 1) - 1 do
        let id = t.ids.(k) in
        if b = b0 || t.first.(id) = b then f id
      done
    done
  end
