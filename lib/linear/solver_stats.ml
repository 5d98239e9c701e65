(* Thin facade over the {!Obs.Metrics} registry: every counter here is a
   registered "solver.*" metric, so the same numbers show up in
   [uhc --metrics] dumps and in the [Engine.Stats] record without being
   kept twice.  Totals are exact under parallelism (wall-clock sums are
   per-query deltas, so concurrent queries may sum to more than elapsed
   time — they measure solver work, not latency). *)

type t = {
  queries : int;  (* System.feasible entry points answered *)
  cache_hits : int;
  cache_misses : int;
  box_refutations : int;  (* disjoint/feasible decided by interval boxes *)
  syntactic_hits : int;  (* implies decided without any elimination *)
  fm_runs : int;  (* packed Fourier-Motzkin eliminations performed *)
  fm_rows_built : int;  (* rows produced by FM combination *)
  fm_rows_pruned : int;  (* rows dropped by Imbert's criterion / dominance *)
  tighten_fallbacks : int;  (* GCD tightening refuted; exact rerun needed *)
  overflow_fallbacks : int;  (* packed arithmetic overflowed; used reference *)
  reference_runs : int;  (* queries answered by the reference path *)
  wall_fast_ns : int;  (* time inside fast-path feasible queries *)
  wall_reference_ns : int;  (* time inside reference-path feasible queries *)
  implies_queries : int;  (* System.implies entry points answered *)
  implies_memo_hits : int;  (* derived: queries - fresh computes *)
  implies_wall_ns : int;  (* time inside computed implies queries *)
  ctx_bound_hits : int;  (* bounds served from the memo *)
  ctx_proj_hits : int;  (* projections served from the memo *)
}

let c_queries = Obs.Metrics.counter "solver.queries"
let c_cache_hits = Obs.Metrics.counter "solver.cache.hits"
let c_cache_misses = Obs.Metrics.counter "solver.cache.misses"
let c_box_refutations = Obs.Metrics.counter "solver.box_refutations"
let c_syntactic_hits = Obs.Metrics.counter "solver.syntactic_hits"
let c_fm_runs = Obs.Metrics.counter "solver.fm.runs"
let c_fm_rows_built = Obs.Metrics.counter "solver.fm.rows_built"
let c_fm_rows_pruned = Obs.Metrics.counter "solver.fm.rows_pruned"
let c_tighten_fallbacks = Obs.Metrics.counter "solver.fallback.tighten"
let c_overflow_fallbacks = Obs.Metrics.counter "solver.fallback.overflow"
let c_reference_runs = Obs.Metrics.counter "solver.reference.runs"
let c_wall_fast_ns = Obs.Metrics.counter "solver.wall.fast_ns"
let c_wall_reference_ns = Obs.Metrics.counter "solver.wall.reference_ns"
let c_implies_queries = Obs.Metrics.counter "solver.implies.queries"
let c_implies_fresh = Obs.Metrics.counter "solver.implies.fresh"
let c_implies_wall_ns = Obs.Metrics.counter "solver.implies.wall_ns"
let c_ctx_bound_hits = Obs.Metrics.counter "solver.ctx.bound_hits"
let c_ctx_proj_hits = Obs.Metrics.counter "solver.ctx.proj_hits"

let all =
  [
    c_queries; c_cache_hits; c_cache_misses; c_box_refutations;
    c_syntactic_hits; c_fm_runs; c_fm_rows_built; c_fm_rows_pruned;
    c_tighten_fallbacks; c_overflow_fallbacks; c_reference_runs;
    c_wall_fast_ns; c_wall_reference_ns; c_implies_queries; c_implies_fresh;
    c_implies_wall_ns; c_ctx_bound_hits; c_ctx_proj_hits;
  ]

let bump = Obs.Metrics.Counter.incr
let add = Obs.Metrics.Counter.add

let query () = bump c_queries
let cache_hit () = bump c_cache_hits
let cache_miss () = bump c_cache_misses
let box_refutation () = bump c_box_refutations
let syntactic_hit () = bump c_syntactic_hits
let fm_run () = bump c_fm_runs
let fm_rows_built n = add c_fm_rows_built n
let fm_rows_pruned n = add c_fm_rows_pruned n
let tighten_fallback () = bump c_tighten_fallbacks
let overflow_fallback () = bump c_overflow_fallbacks
let reference_run () = bump c_reference_runs
let add_fast_ns n = add c_wall_fast_ns n
let add_reference_ns n = add c_wall_reference_ns n
let implies_query () = bump c_implies_queries
let implies_fresh () = bump c_implies_fresh
let add_implies_ns n = add c_implies_wall_ns n

let ctx_bound_hit () = bump c_ctx_bound_hits
let ctx_proj_hit () = bump c_ctx_proj_hits

let get = Obs.Metrics.Counter.get

let snapshot () =
  let implies_queries = get c_implies_queries in
  let implies_fresh = get c_implies_fresh in
  {
    queries = get c_queries;
    cache_hits = get c_cache_hits;
    cache_misses = get c_cache_misses;
    box_refutations = get c_box_refutations;
    syntactic_hits = get c_syntactic_hits;
    fm_runs = get c_fm_runs;
    fm_rows_built = get c_fm_rows_built;
    fm_rows_pruned = get c_fm_rows_pruned;
    tighten_fallbacks = get c_tighten_fallbacks;
    overflow_fallbacks = get c_overflow_fallbacks;
    reference_runs = get c_reference_runs;
    wall_fast_ns = get c_wall_fast_ns;
    wall_reference_ns = get c_wall_reference_ns;
    implies_queries;
    (* every entry point either computes a fresh memo key (counted in
       solver.implies.fresh) or is answered from it, so hits are derived
       and stay scheduling-independent *)
    implies_memo_hits = implies_queries - implies_fresh;
    implies_wall_ns = get c_implies_wall_ns;
    ctx_bound_hits = get c_ctx_bound_hits;
    ctx_proj_hits = get c_ctx_proj_hits;
  }

let diff a b =
  {
    queries = a.queries - b.queries;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    box_refutations = a.box_refutations - b.box_refutations;
    syntactic_hits = a.syntactic_hits - b.syntactic_hits;
    fm_runs = a.fm_runs - b.fm_runs;
    fm_rows_built = a.fm_rows_built - b.fm_rows_built;
    fm_rows_pruned = a.fm_rows_pruned - b.fm_rows_pruned;
    tighten_fallbacks = a.tighten_fallbacks - b.tighten_fallbacks;
    overflow_fallbacks = a.overflow_fallbacks - b.overflow_fallbacks;
    reference_runs = a.reference_runs - b.reference_runs;
    wall_fast_ns = a.wall_fast_ns - b.wall_fast_ns;
    wall_reference_ns = a.wall_reference_ns - b.wall_reference_ns;
    implies_queries = a.implies_queries - b.implies_queries;
    implies_memo_hits = a.implies_memo_hits - b.implies_memo_hits;
    implies_wall_ns = a.implies_wall_ns - b.implies_wall_ns;
    ctx_bound_hits = a.ctx_bound_hits - b.ctx_bound_hits;
    ctx_proj_hits = a.ctx_proj_hits - b.ctx_proj_hits;
  }

let reset () = List.iter (fun c -> Obs.Metrics.Counter.set c 0) all

let to_alist t =
  [
    ("queries", t.queries);
    ("cache_hits", t.cache_hits);
    ("cache_misses", t.cache_misses);
    ("box_refutations", t.box_refutations);
    ("syntactic_hits", t.syntactic_hits);
    ("fm_runs", t.fm_runs);
    ("fm_rows_built", t.fm_rows_built);
    ("fm_rows_pruned", t.fm_rows_pruned);
    ("tighten_fallbacks", t.tighten_fallbacks);
    ("overflow_fallbacks", t.overflow_fallbacks);
    ("reference_runs", t.reference_runs);
    ("wall_fast_ns", t.wall_fast_ns);
    ("wall_reference_ns", t.wall_reference_ns);
    ("implies_queries", t.implies_queries);
    ("implies_memo_hits", t.implies_memo_hits);
    ("implies_wall_ns", t.implies_wall_ns);
    ("ctx_bound_hits", t.ctx_bound_hits);
    ("ctx_proj_hits", t.ctx_proj_hits);
  ]

(* everything but the wall-clock sums, which depend on timing *)
let pp_deterministic ppf t =
  Format.fprintf ppf
    "solver: %d queries (%d cache hit / %d miss), %d box-refuted, %d \
     syntactic@\n"
    t.queries t.cache_hits t.cache_misses t.box_refutations t.syntactic_hits;
  Format.fprintf ppf
    "  FM: %d runs, %d rows built, %d pruned; fallbacks: %d tighten, %d \
     overflow, %d reference@\n"
    t.fm_runs t.fm_rows_built t.fm_rows_pruned t.tighten_fallbacks
    t.overflow_fallbacks t.reference_runs;
  Format.fprintf ppf "  implies: %d queries (%d memo hit)@\n" t.implies_queries
    t.implies_memo_hits;
  Format.fprintf ppf "  memos: %d bound hits, %d proj hits@\n"
    t.ctx_bound_hits t.ctx_proj_hits

let pp ppf t =
  pp_deterministic ppf t;
  Format.fprintf ppf
    "  feasible wall: fast %.3f ms, reference %.3f ms; implies wall %.3f \
     ms@\n"
    (float_of_int t.wall_fast_ns /. 1e6)
    (float_of_int t.wall_reference_ns /. 1e6)
    (float_of_int t.implies_wall_ns /. 1e6)
