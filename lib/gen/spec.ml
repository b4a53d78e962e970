type t = {
  name : string;
  seed : int;
  num_cells : int;
  density : float;
  height_mix : (int * float) list;
  num_fences : int;
  fence_cell_frac : float;
  hotspots : int;
  gp_noise_rows : float;
  nets_per_cell : float;
  num_io_pins : int;
  routability : bool;
  num_edge_types : int;
  num_macros : int;
  replicate : int;
}

let default =
  { name = "default";
    seed = 1;
    num_cells = 2000;
    density = 0.6;
    height_mix = [ (1, 0.9); (2, 0.1) ];
    num_fences = 0;
    fence_cell_frac = 0.0;
    hotspots = 3;
    gp_noise_rows = 1.5;
    nets_per_cell = 0.8;
    num_io_pins = 40;
    routability = true;
    num_edge_types = 3;
    num_macros = 0;
    replicate = 1 }
