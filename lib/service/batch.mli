(** Batch execution planning.

    A batch of requests is split into ordered {e segments}. Requests
    that touch global service state ([load], [stats], [shutdown]) run
    alone, on the control thread, at their position in the batch;
    maximal runs of per-design requests between them are grouped by
    design key, and the groups of one segment are independent — the
    engine runs them one after another. Within a group the
    original request order is preserved, so "eco then query" on one
    design always observes the mutation.

    Coalescing is a separate, per-group step: {!eco_runs} splits a
    group into maximal runs of adjacent [eco] requests (merged into one
    [Eco.relegalize] call) and singleton non-eco requests. *)

type indexed = int * Protocol.request  (** position in the batch, request *)

type segment =
  | Global of indexed
  | Groups of (string * indexed list) list
      (** per-design groups, keyed; group order follows first
          appearance, requests within a group keep batch order *)

val plan : Protocol.request array -> segment list

(** [eco_runs group] splits a design group into execution units:
    [`Eco run] is a maximal run of adjacent eco requests (length >= 1),
    [`One req] any other request. *)
val eco_runs : indexed list -> [ `Eco of indexed list | `One of indexed ] list
