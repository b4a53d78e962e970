(** Successive-shortest-path min-cost-flow solver, the reference
    test_flow holds {!Mcl_flow.Network_simplex} to. Test-only: nothing
    in lib/ or bin/ links it.

    Independent of the network simplex (different algorithm family),
    so agreement of the two objective values is strong evidence of
    correctness. Negative-cost arcs are handled by pre-saturation, so
    min-cost circulations (the paper's Eq. 6/9 duals) are supported. *)

type status = Optimal | Infeasible

type result = {
  status : status;
  flow : int array;   (** per arc *)
  total_cost : int;
}

val solve : Mcl_flow.Graph.t -> result
