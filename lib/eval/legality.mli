(** Hard-constraint audit of a placement (paper Sec. 2): overlaps, die
    and fence containment, blockages, P/G parity for even-height cells,
    and fixed cells staying put. A legal result from any of our
    legalizers must produce an empty violation list; the test suite
    relies on this audit. *)

open Mcl_netlist

type violation =
  | Overlap of int * int           (** two cell ids with positive overlap *)
  | Out_of_die of int
  | On_blockage of int
  | Outside_region of int          (** cell not fully inside its region *)
  | Bad_parity of int              (** even-height cell on odd row *)
  | Fixed_moved of int

val pp_violation : Format.formatter -> violation -> unit

(** Full audit; returns all violations (overlaps reported once per
    offending pair). *)
val check : Design.t -> violation list

val is_legal : Design.t -> bool
