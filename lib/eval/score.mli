(** The ICCAD 2017 contest quality score used in the paper's Table 1
    (Eq. 10):

    {[ S = (1 + S_hpwl + (N_p + N_e) / m) * (1 + max_disp / 100) * S_am ]} *)

open Mcl_netlist

type t = {
  s_hpwl : float;        (** relative HPWL increase over GP *)
  pin_violations : int;  (** N_p *)
  edge_violations : int; (** N_e *)
  avg_disp : float;      (** S_am, row heights *)
  max_disp : float;      (** row heights *)
  score : float;         (** Eq. 10 *)
}

(** [evaluate ~gp_hpwl d] scores the current placement of [d] against
    the GP wirelength [gp_hpwl] (compute it with {!Metrics.hpwl} before
    legalizing). *)
val evaluate : gp_hpwl:int -> Design.t -> t

val pp : Format.formatter -> t -> unit
