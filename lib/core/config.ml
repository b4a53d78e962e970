type objective = Average_weighted | Total

type t = {
  objective : objective;
  consider_fences : bool;
  consider_routability : bool;
  window_halfwidth : int;
  window_halfheight : int;
  window_growth : int;
  max_window_tries : int;
  delta0_rows : float;
  matching_neighbors : int;
  n0_factor : float;
  pivot_rule : Mcl_flow.Network_simplex.pivot_rule;
  run_matching : bool;
  run_row_order : bool;
  threads : int;
  shards : int;
  congestion_bin_sites : int;
}

let default =
  { objective = Average_weighted;
    consider_fences = true;
    consider_routability = true;
    window_halfwidth = 30;
    window_halfheight = 3;
    window_growth = 2;
    max_window_tries = 12;
    delta0_rows = 8.0;
    matching_neighbors = 20;
    n0_factor = 4.0;
    pivot_rule = Mcl_flow.Network_simplex.Block_search;
    run_matching = true;
    run_row_order = true;
    threads = 1;
    shards = 1;
    congestion_bin_sites = 32 }

let total_displacement =
  { default with
    objective = Total;
    consider_fences = false;
    consider_routability = false }
