(** The process-wide metrics registry: named counters, gauges and log-scale
    latency histograms.

    Instruments are registered once by name and shared from then on —
    [counter name] called twice returns the same counter, so modules can
    obtain their instruments idempotently at initialization.  Registering
    one name as two different instrument kinds raises [Invalid_argument]:
    a name identifies exactly one time series.

    Counters and gauges are always live (they back {!Linear.Solver_stats}
    and the engine statistics, which predate this registry).  Histogram
    *observation at timed call sites* is gated by {!enabled} so that hot
    paths pay one branch — no clock reads — when metrics are off. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val set : t -> int -> unit
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val get : t -> int
end

val counter : string -> Counter.t
val gauge : string -> Gauge.t
val histogram : string -> Hist.t

val set_enabled : bool -> unit
(** Turn timed-histogram recording on ([uhc --metrics]). *)

val enabled : unit -> bool
(** One atomic read; call sites guard their clock reads with this. *)

val names : unit -> string list
(** Registered metric names, sorted. *)

(** A point-in-time reading of one histogram: count/sum, the three standard
    percentiles, and the nonzero [(lo, hi, count)] buckets (ascending;
    [hi = max_int] on the overflow bucket). *)
type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_buckets : (int * int * int) list;
}

type snapshot = S_counter of int | S_gauge of int | S_hist of hist_snapshot

val snapshot : unit -> (string * snapshot) list
(** Every registered instrument with its current value, sorted by name —
    the enumeration behind {!dump_json}, exposed so the run ledger (and any
    other exporter) can serialize the registry without re-parsing JSON. *)

val snapshot_hist : Hist.t -> hist_snapshot
(** Snapshot one histogram (shared by {!snapshot} and the ledger tests). *)

val dump_json : unit -> string
(** The full registry as a JSON document:
    [{"metrics":[{"name":..,"kind":..,...}, ...]}], metrics sorted by name,
    histograms carrying count/sum/p50/p95/p99 and their nonzero buckets. *)

val save : path:string -> unit
(** Write {!dump_json} to [path]. *)
