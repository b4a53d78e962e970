(** Log-bucketed latency histogram.

    Fixed geometric buckets spanning 1 ns – 1000 s, 20 per decade, so
    quantile estimates are within ~6% of the true sample value while
    the whole structure is one small int array: O(1) insert,
    O(buckets) quantile, no per-sample allocation — what the [stats]
    op reports its latency percentiles from.

    Values are in seconds (any non-negative unit works; NaN and
    negatives clamp to the lowest bucket). Not thread-safe: callers
    synchronize (Telemetry holds its histograms under its lock). *)

type t

val create : unit -> t

(** Record one sample (seconds). NaN and negative samples clamp to 0,
    samples beyond the 1000 s range clamp to the top bucket — a bad
    clock read can skew a tail percentile but never poison the sums. *)
val add : t -> float -> unit

val count : t -> int

val sum : t -> float

val mean : t -> float

val min_value : t -> float

val max_value : t -> float

(** [quantile t q] estimates the [q]-quantile ([0..1]) as the
    geometric midpoint of the bucket where the cumulative count
    crosses [q * count], clamped to the observed min/max. 0 when
    empty. *)
val quantile : t -> float -> float

(** Render as [{count, mean, min, max, p50, p95, p99}]. *)
val to_json : t -> Json.t
