(** Seeded, deterministic fault-injection harness.

    A plan is built from a {!Mcl_geom.Prng} seed and a list of enabled
    fault kinds. Every kind owns an independent splitmix stream (split
    off the master seed) and a firing schedule drawn from it: the kind
    fires at its [k0]-th opportunity and then every [k]-th opportunity
    after that, with [k0]/[k] drawn per plan. Given the same seed and
    the same sequence of queries, a plan injects exactly the same
    faults — that is what lets the fault-matrix tests assert exact
    rollback and lets a failure be replayed from its seed.

    Query points take a [t option]; [None] is the production
    configuration and every query is then a constant-time match — the
    hooks cost nothing when injection is off.

    Fault kinds and where the service consults them:
    - [Short_read]: the server's reader clamps [Unix.read] sizes;
    - [Short_write]: the server's writer truncates individual
      [Unix.write] attempts (the write-all loop must recover);
    - [Eintr]: reader/writer syscall sites behave as if interrupted;
    - [Conn_reset]: the writer raises [EPIPE] as if the peer vanished;
    - [Stage_fail s]: the engine forces a [Diagnostic.Failed] at the
      named pipeline stage ("mgl", "matching", "row-order", "eco");
    - [Worker_death]: the worker of a design group dies before
      running it (the engine must answer the group with errors and
      keep serving);
    - [Clock_skew]: the engine's clock jumps forward by 1–6 s at a
      firing (surfaces as spurious deadline pressure and skewed
      metrics, never as corruption);
    - [Bit_flip]: the WAL flips one bit of a framed commit group
      before it reaches the disk — modeling silent media corruption
      the CRC layer must catch on recovery;
    - [Torn_write]: the WAL persists only a prefix of a commit group —
      modeling a crash mid-write (the classic torn tail) through the
      real write path. *)

type kind =
  | Short_read
  | Short_write
  | Eintr
  | Conn_reset
  | Stage_fail of string
  | Worker_death
  | Clock_skew
  | Bit_flip
  | Torn_write

type t

(** Every kind (stage failures for all four mutating stages). *)
val all_kinds : kind list

val kind_name : kind -> string

(** Inverse of {!kind_name} over a comma-separated list, e.g.
    ["short-read,stage-fail:mgl,clock-skew"]; ["all"] enables
    {!all_kinds}. *)
val kinds_of_string : string -> (kind list, string) result

val create : seed:int -> kinds:kind list -> t

(** {2 Query points} — each consumes one opportunity of its kind. *)

(** [short_read t n] is the byte count the reader may request
    ([1 <= result <= n]; [n] when off or not firing). *)
val short_read : t option -> int -> int

(** [short_write t n] is the byte count the writer may hand to one
    [Unix.write] ([1 <= result <= n]). *)
val short_write : t option -> int -> int

(** True when the syscall site should behave as interrupted. *)
val eintr : t option -> bool

(** True when the writer should raise [EPIPE] now. *)
val conn_reset : t option -> bool

(** True when the named stage must fail now. *)
val stage_fail : t option -> stage:string -> bool

(** True when the next design group's worker must die. *)
val worker_death : t option -> bool

(** [bit_flip t n] is [Some offset] (with [0 <= offset < n]) when the
    journal must corrupt one bit of the [n]-byte buffer it is about to
    write, [None] when off or not firing. *)
val bit_flip : t option -> int -> int option

(** [torn_write t n] is the number of leading bytes of the [n]-byte
    commit group that actually reach the file ([1 <= result <= n];
    [n] when off or not firing). *)
val torn_write : t option -> int -> int

(** The engine's clock: [Unix.gettimeofday] plus the accumulated
    forward skew; a firing adds 1–6 s. Monotone non-decreasing skew so
    budgets only ever tighten. *)
val now : t option -> float
