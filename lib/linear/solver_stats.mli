(** Process-wide counters for the solver layer in {!System}.

    Every counter is an ["solver.*"] metric in the {!Obs.Metrics} registry
    (this module is a facade over it), atomic so engine worker domains can
    update them without locks.  [snapshot]/[diff] let callers (the engine,
    the bench harness) attribute counter deltas to a particular run.

    Every counter except the wall-clock sums is scheduling-independent:
    {!System}'s memos compute each distinct key exactly once (later
    arrivals wait for that answer and count a hit), so each distinct
    system contributes to [cache_misses], [fm_runs], the row counts and
    the fallback counters exactly once, and the hit counters equal calls
    minus distinct keys, however the pool interleaves the work — [--stats]
    counter output is identical at any [--jobs] setting. *)

type t = {
  queries : int;  (** [System.feasible] entry points answered *)
  cache_hits : int;
  cache_misses : int;
  box_refutations : int;
      (** queries decided by the per-variable interval bounding box *)
  syntactic_hits : int;  (** [implies] decided without any elimination *)
  fm_runs : int;  (** packed Fourier-Motzkin eliminations performed *)
  fm_rows_built : int;  (** rows produced by FM pair combination *)
  fm_rows_pruned : int;  (** rows dropped by Imbert's criterion / dominance *)
  tighten_fallbacks : int;
      (** GCD tightening refuted a system; exact re-run was needed *)
  overflow_fallbacks : int;
      (** packed arithmetic overflowed; query used the reference path *)
  reference_runs : int;  (** queries answered by the reference path *)
  wall_fast_ns : int;  (** nanoseconds inside fast-path feasible queries *)
  wall_reference_ns : int;
      (** nanoseconds inside reference-path feasible queries *)
  implies_queries : int;  (** [System.implies] entry points answered *)
  implies_memo_hits : int;
      (** implies queries answered from the (system id, constraint id)
          memo.  Derived as [implies_queries - fresh computes] *)
  implies_wall_ns : int;  (** nanoseconds inside [System.implies] queries *)
  ctx_bound_hits : int;
      (** [System.bounds] results served from the memo (the [ctx_] prefix
          predates the memo living in {!System}) *)
  ctx_proj_hits : int;
      (** [System.project_onto] results served from the memo *)
}

val query : unit -> unit
val cache_hit : unit -> unit
val cache_miss : unit -> unit
val box_refutation : unit -> unit
val syntactic_hit : unit -> unit
val fm_run : unit -> unit
val fm_rows_built : int -> unit
val fm_rows_pruned : int -> unit
val tighten_fallback : unit -> unit
val overflow_fallback : unit -> unit
val reference_run : unit -> unit
val add_fast_ns : int -> unit
val add_reference_ns : int -> unit
val implies_query : unit -> unit

val implies_fresh : unit -> unit
(** A fresh implies compute (first arrival of a distinct (system,
    constraint) pair when the memo is on; every call when it is off). *)

val add_implies_ns : int -> unit

val ctx_bound_hit : unit -> unit
val ctx_proj_hit : unit -> unit

val snapshot : unit -> t
(** Current counter values. *)

val diff : t -> t -> t
(** [diff later earlier] is the per-field difference. *)

val to_alist : t -> (string * int) list
(** Every field as [(name, value)], in declaration order — the
    serialization the run ledger and other exporters use, kept here so a
    new counter can't be added without appearing in them. *)

val reset : unit -> unit
(** Zero every counter (bench harness only; the engine uses [diff]). *)

val pp : Format.formatter -> t -> unit

val pp_deterministic : Format.formatter -> t -> unit
(** Like [pp] without the wall-clock line — every printed number is
    scheduling-independent, so the output is diffable in CI. *)
