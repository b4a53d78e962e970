open Mcl_netlist

type t = {
  s_hpwl : float;
  pin_violations : int;
  edge_violations : int;
  avg_disp : float;
  max_disp : float;
  score : float;
}

let evaluate ~gp_hpwl design =
  let legal_hpwl = Metrics.hpwl design in
  let s_hpwl = Metrics.hpwl_increase_ratio ~gp_hpwl ~legal_hpwl in
  let np, ne = Routability_check.counts design in
  let avg_disp = Metrics.average_displacement design in
  let max_disp = Metrics.max_displacement design in
  let m = float_of_int (max 1 (Design.num_cells design)) in
  let score =
    (1.0 +. s_hpwl +. (float_of_int (np + ne) /. m))
    *. (1.0 +. (max_disp /. 100.0))
    *. avg_disp
  in
  { s_hpwl; pin_violations = np; edge_violations = ne; avg_disp; max_disp;
    score }

let pp ppf t =
  Format.fprintf ppf "score=%.4f (avg=%.3f max=%.1f s_hpwl=%.4f pins=%d edges=%d)"
    t.score t.avg_disp t.max_disp t.s_hpwl t.pin_violations t.edge_violations
