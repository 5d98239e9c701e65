(** The parallel, incremental analysis engine.

    [run] produces the same {!Ipa.Analyze.result} as the removed serial
    [Ipa.Analyze.analyze] — byte-identical [.rgn]/[.dgn]/[.cfg] contents —
    while fanning per-PU collection and CFG construction, and the SCCs of
    each call-graph level, across an OCaml domain pool.

    Collection results, the expensive gather phase, are cached under a
    digest of the global symbol table plus the PU's serialized WHIRL body,
    so editing one PU re-collects exactly that PU.  Summaries are always
    recomputed, bottom-up, from cached or fresh collection results.

    With an on-disk store ({!Engine_store.create} [~dir]), the cache
    survives across tool invocations. *)

type config = {
  jobs : int;
  store : Engine_store.t option;
  keep_going : bool;
}

val config :
  ?jobs:int ->
  ?store:Engine_store.t ->
  ?keep_going:bool ->
  unit ->
  config
(** [jobs] defaults to [1] (serial); [0] means
    [Domain.recommended_domain_count ()].  Without [store], nothing is
    cached.

    [keep_going] (default [false]) turns on per-PU error isolation: a PU
    whose collection or summarization raises — an injected {!Fault} or a
    genuine bug — degrades to conservative stand-ins (empty local
    collection, worst-case {!Ipa.Summary.opaque} summary, skeleton CFG)
    with a structured diagnostic in [e_diags], instead of aborting the
    run.  Degraded results are never persisted to the store.  Store-level
    faults (corrupt entries, I/O errors) are tolerated regardless of this
    flag — they self-heal inside {!Engine_store}. *)

module Stats : sig
  type phase = {
    ph_name : string;
    ph_wall : float;  (** seconds *)
    ph_alloc : float;
        (** bytes allocated during the phase, coordinating domain plus
            every worker domain that participated in the phase's pool
            batches (pool domains report their [Gc.allocated_bytes] deltas
            through the ambient {!Obs.Sink}) *)
  }

  type t = {
    s_jobs : int;
    s_pus : int;
    s_collect_hits : int;
    s_collect_misses : int;
    s_summary_hits : int;  (** always [0]: summaries are never cached *)
    s_summary_misses : int;  (** always [s_pus] *)
    s_phases : phase list;  (** in execution order *)
    s_total_wall : float;
    s_solver : Linear.Solver_stats.t;
        (** solver-layer counter deltas attributed to this run (queries,
            memo hits, eliminations — see {!Linear.Solver_stats}) *)
  }

  val pp : Format.formatter -> t -> unit

  val pp_deterministic : Format.formatter -> t -> unit
  (** Like {!pp} but restricted to numbers that are reproducible at any
      [--jobs] setting: wall-clock and allocation columns (and the job
      count itself) are dropped, phase names and all cache/solver counters
      are kept.  Suitable for diffing in CI. *)
end

(** What the incrementality machinery knew about one PU this run — the
    per-PU section of the run ledger and the input to [dragon explain].
    [p_key1] addresses the local collection result (global symtab + PU
    body), so comparing two runs' entries tells you *why* a PU was
    re-collected: its [p_key1] changed — its own body or the symbol
    table. *)
type pu_entry = {
  p_name : string;
  p_file : string;
  p_key1 : string;  (** hex digest of global symtab + PU body *)
  p_collect_hit : bool;
  p_callees : string list;  (** direct callees, call-graph order *)
}

type result = {
  e_result : Ipa.Analyze.result;
  e_stats : Stats.t;
  e_diags : Fault.Diag.t list;
      (** degradation diagnostics from this run: isolated PUs (in PU
          order) followed by store-level events; empty on a fault-free
          run *)
  e_pus : pu_entry list;  (** one entry per PU, module order *)
}

val run : config -> Whirl.Ir.module_ -> result
(** Also assigns the memory layout (Mem_Loc) if not yet done, like the
    serial path. *)

val analyze : ?jobs:int -> Whirl.Ir.module_ -> Ipa.Analyze.result
(** One uncached engine run, returning just the analysis result —
    the successor of the removed [Ipa.Analyze.analyze].  [jobs] defaults
    to [1]: the serial reference schedule. *)

val analyze_sources : ?jobs:int -> (string * string) list -> Ipa.Analyze.result
(** Front end + lowering + {!analyze} over [(filename, contents)] pairs —
    the successor of the removed [Ipa.Analyze.analyze_sources]. *)
