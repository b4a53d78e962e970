(** Tetris-style greedy legalizer: our stand-in for the ICCAD 2017
    contest champion binary (Table 1 comparator; see DESIGN.md §4).

    Cells are processed in GP x-order; each is placed at the nearest
    feasible gap (parity- and fence-correct, overlap-free) without
    moving already-placed cells and {e without} considering edge
    spacing or pin access — exactly the class of fast legalizer whose
    routability violation counts the paper's Table 1 reports. *)

open Mcl_netlist

type stats = { legalized : int }

(** Raises {!Mcl_analysis.Diagnostic.Failed} with
    [S301-unplaceable-cell] (stage ["greedy"]) when some cell fits in
    no free gap. *)
val run : Config.t -> Design.t -> stats
