(** Per-request execution budgets with cooperative cancellation.

    A budget is an absolute wall-clock deadline plus a poll counter:
    long-running stages call {!check} at their natural retry/round
    boundaries (MGL window retries, matching rounds, flow pivots) and
    the clock is only consulted every [poll_every] polls, so a check
    costs an atomic decrement on the fast path. When the deadline has
    passed, {!check} raises {!Deadline_exceeded}; the caller's
    transactional wrapper rolls the design back, so cancellation never
    leaves a half-applied mutation behind.

    All entry points take a [t option] and are no-ops on [None] — code
    threaded with an absent budget behaves bit-identically to code
    that was never instrumented.

    The poll counter is an atomic so budgets may be polled from the
    scheduler's worker domains; the raise propagates through
    [Scheduler.run_jobs]'s join. *)

type t

exception Deadline_exceeded of { elapsed_s : float; budget_s : float }

(** [create ?clock ?poll_every ~deadline ()] — [deadline] is absolute,
    in [clock]'s timebase (default [Unix.gettimeofday]).
    [poll_every] (default 32) is how many {!check} polls elapse
    between clock reads. *)
val create :
  ?clock:(unit -> float) -> ?poll_every:int -> deadline:float -> unit -> t

(** [of_deadline_ms ?clock ~received ms] — budget expiring [ms]
    milliseconds after [received], with elapsed time measured from
    [received] (queue wait included) rather than from creation. *)
val of_deadline_ms : ?clock:(unit -> float) -> received:float -> float -> t

(** Raises {!Deadline_exceeded} when the deadline has passed; cheap
    (counter decrement) most calls, a clock read every [poll_every]. *)
val check : t option -> unit

(** Like {!check} but forces a clock read; for coarse boundaries. *)
val check_now : t option -> unit

(** Non-raising probe (forces a clock read). *)
val expired : t option -> bool

(** The absolute deadline, in the budget clock's timebase (lets a
    batch executor take the tightest of its members' deadlines). *)
val deadline : t -> float
