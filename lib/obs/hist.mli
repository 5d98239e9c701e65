(** Lock-free log-scale histograms for latency-style integer samples.

    Buckets are geometric with four sub-buckets per octave (relative width
    2^(1/4) at most), so any recorded value is off from its bucket bounds by
    less than 25% — precise enough for p50/p95/p99 while the whole histogram
    is a fixed 256-slot array of atomics that worker domains update without
    locks. *)

type t

val create : unit -> t

val observe : t -> int -> unit
(** Record one sample (negative samples clamp to 0). *)

val count : t -> int
(** Samples recorded so far. *)

val sum : t -> int
(** Sum of all recorded samples. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,1] is the midpoint of the bucket holding
    the rank-[ceil (p * count)] sample (0 if the histogram is empty).  The
    true sample of that rank lies inside the same bucket, i.e. within
    [bounds_of_value (truncate (percentile t p))]. *)

val bounds_of_value : int -> int * int
(** The inclusive [lo, hi] range of the bucket a value falls into (exposed
    for the percentile-accuracy tests and the JSON export). *)

val nonzero_buckets : t -> (int * int * int) list
(** [(lo, hi, count)] for every bucket with a nonzero count, ascending. *)

val merge : t -> t -> t
(** A fresh histogram holding both inputs' samples: per-bucket counts,
    total and sum are added bucket-wise (exact — both sides bucket values
    identically), so percentiles of the merge are those of the combined
    sample stream.  The inputs are left untouched. *)

val reset : t -> unit
(** Zero every bucket (tests / bench harness). *)
