(** Mutable builder for min-cost-flow problems.

    Nodes carry integer supplies (positive = source, negative = sink;
    the paper's formulations are circulations with all-zero supplies).
    Arcs carry a capacity in [0, cap] and a per-unit cost; both may be
    large (costs up to ~1e9, capacities up to ~2^21 are safe against
    overflow in the solvers). *)

type t

type arc = int  (** dense arc identifier, in insertion order *)

val create : unit -> t

(** [add_node t ~supply] returns the new node id (dense, from 0). *)
val add_node : t -> supply:int -> int

(** [add_arc t ~src ~dst ~cap ~cost] returns the new arc id. Raises
    [Invalid_argument] on negative capacity or unknown endpoints. *)
val add_arc : t -> src:int -> dst:int -> cap:int -> cost:int -> arc

val num_nodes : t -> int
val num_arcs : t -> int
val supply : t -> int -> int
val src : t -> arc -> int
val dst : t -> arc -> int
val cap : t -> arc -> int
val cost : t -> arc -> int

(** Finalized copies of the arc/node attributes (length = counts). *)
val arcs_arrays : t -> int array * int array * int array * int array
(** [(src, dst, cap, cost)] *)
